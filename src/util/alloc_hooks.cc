#include "util/alloc_hooks.h"

// Weak fallbacks: the no-op half of the alloc_hooks contract. A binary that
// also compiles tests/alloc_hooks_impl.cc gets that TU's strong definitions
// (plus the counting operator new/delete replacements) instead; everything
// else links these and pays nothing.

namespace srv6bpf::util {

__attribute__((weak)) bool alloc_hooks_active() noexcept { return false; }

__attribute__((weak)) AllocCounters alloc_counters() noexcept { return {}; }

}  // namespace srv6bpf::util
