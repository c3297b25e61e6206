// Strong half of util/alloc_hooks: counting replacements for the global
// operator new/delete family. Compiled ONLY into the test binaries that
// measure allocator traffic (alloc_test, slo_test) — the core library and
// every other target keep the system allocator untouched.
//
// The replacements defer to malloc/free, so behaviour is unchanged except
// for two relaxed atomic increments per call; the counters are monotonic
// process-wide totals read through util::alloc_counters().
#include <atomic>
#include <cstdlib>
#include <new>

#include "util/alloc_hooks.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) return nullptr;
  return p;
}

void counted_free(void* p) noexcept {
  g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace srv6bpf::util {

bool alloc_hooks_active() noexcept { return true; }

AllocCounters alloc_counters() noexcept {
  return {g_news.load(std::memory_order_relaxed),
          g_deletes.load(std::memory_order_relaxed)};
}

}  // namespace srv6bpf::util

// ---- global replacements ----------------------------------------------------

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t al) {
  void* p = counted_alloc_aligned(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n, std::align_val_t al) {
  void* p = counted_alloc_aligned(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}

void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
