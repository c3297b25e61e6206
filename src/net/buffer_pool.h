// BufferPool / BurstPool: the steady-state allocator bypass of the datapath.
//
// Real line-rate datapaths never malloc per packet: DPDK keeps mbufs in
// per-lcore mempools, the kernel recycles skbs through page pools, and the
// paper's eBPF hooks ride exactly that discipline. The simulator mirrors it
// with two freelists:
//
//   * BufferPool — fixed-size (kPoolBufCap) packet buffers with reserved
//     headroom. net::Packet draws its storage here; destroying a Packet
//     (delivery, drop, burst teardown) returns the buffer instead of freeing
//     it, so after warm-up the forwarding path performs zero heap
//     allocations per packet. Requests larger than kPoolBufCap fall back to
//     exact-size heap buffers that are freed (not pooled) on release.
//   * BurstPool — recycled net::PacketBurst nodes for in-flight link
//     deliveries: Link::transmit_burst parks the serialized burst in a
//     pooled node and the delivery event carries only a pointer, keeping the
//     event closure inside sim::InlineFn's inline capture budget.
//
// Both pools are process-wide singletons (the simulator is single-threaded;
// nothing here locks) and share one enable switch: set_enabled(false)
// degrades acquire/release to plain new/delete — the "no-pool baseline" that
// the recycling-correctness test compares against. Pooling is wall-clock-only
// by construction: buffer identity never feeds timing, hashing or byte
// content, so pooled and unpooled runs are bit-identical (tests/alloc_test.cc
// enforces it with FNV delivery digests).
#pragma once

#include <cstddef>
#include <cstdint>

namespace srv6bpf::net {

class PacketBurst;

// Data capacity of a pooled buffer: kDefaultHeadroom of encap headroom plus
// the largest frame the scenarios move (TCP's ~1.5 KiB) with slack for SRH
// growth — the same "one size class" shape as a 2 KiB mbuf.
inline constexpr std::size_t kPoolBufCap = 2048;

class BufferPool {
 public:
  // Header of every pooled/heap buffer; payload bytes follow in-place.
  struct Buf {
    Buf* next;          // freelist link (meaningful only while pooled)
    std::uint32_t cap;  // payload capacity in bytes
    std::uint8_t* data() noexcept {
      return reinterpret_cast<std::uint8_t*>(this + 1);
    }
  };

  struct Stats {
    std::uint64_t allocs = 0;       // heap allocations (cold path)
    std::uint64_t reuses = 0;       // freelist hits (warm path)
    std::uint64_t outstanding = 0;  // buffers currently owned by Packets
    std::uint64_t high_water = 0;   // max outstanding since reset_stats()
    std::uint64_t pooled = 0;       // buffers parked on the freelist now
    std::uint64_t admission_fail = 0;  // admissions refused by the hard cap
  };

  // Returns a buffer with cap >= min_cap. min_cap <= kPoolBufCap reuses the
  // freelist (or heap-allocates a kPoolBufCap buffer when cold / disabled);
  // larger requests always heap-allocate exactly min_cap.
  static Buf* acquire(std::size_t min_cap);
  // Returns a buffer to the freelist (kPoolBufCap buffers, pool enabled) or
  // frees it (oversize buffers, pool disabled).
  static void release(Buf* b) noexcept;

  // One switch for BufferPool and BurstPool both. Disabled = plain
  // new/delete per acquire/release: the test baseline.
  static void set_enabled(bool on) noexcept;
  static bool enabled() noexcept;

  // ---- Hard cap (graceful degradation under exhaustion) ---------------------
  // Bounds outstanding buffers on this thread's pool: 0 (the default) keeps
  // the historical unbounded-growth behaviour; a non-zero cap turns packet
  // *admission* fallible, like a real mempool running dry. The cap is an
  // admission gate, not a mid-pipeline failure: callers that create new
  // packets (traffic generators, copies) must check try_admit() and drop —
  // accounted as sim::DropReason::kNoBuffer — instead of acquiring; plain
  // acquire() stays infallible so in-flight packets that regrow headroom
  // never abort. The pool is thread_local, so caps are per host thread; the
  // deterministic exhaustion gates run on the serial (master-thread) path.
  static void set_max_buffers(std::uint64_t n) noexcept;
  static std::uint64_t max_buffers() noexcept;
  // True (and the admission accepted) when under the cap; false counts an
  // admission_fail. With no cap set this always succeeds.
  static bool try_admit() noexcept;

  static Stats stats() noexcept;
  // Zeroes allocs/reuses and re-bases high_water on current outstanding.
  static void reset_stats() noexcept;
  // Frees every buffer parked on the freelist (outstanding ones are
  // untouched); lets tests measure cold-start behaviour deterministically.
  static void trim() noexcept;
};

// Freelist of PacketBurst nodes for event closures that must outlive their
// stack frame (Link deliveries). Shares BufferPool's enable switch.
class BurstPool {
 public:
  static PacketBurst* acquire();
  static void release(PacketBurst* b) noexcept;

  // Move-only owner: clears the burst and returns the node on destruction,
  // so a delivery event that is destroyed without running (event loop torn
  // down mid-flight) still recycles both the node and its packet buffers.
  class Handle {
   public:
    Handle() = default;
    explicit Handle(PacketBurst* b) noexcept : b_(b) {}
    Handle(Handle&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        reset();
        b_ = o.b_;
        o.b_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

    PacketBurst& operator*() const noexcept { return *b_; }
    PacketBurst* get() const noexcept { return b_; }

   private:
    void reset() noexcept;
    PacketBurst* b_ = nullptr;
  };

  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t reuses = 0;
    std::uint64_t pooled = 0;
  };
  static Stats stats() noexcept;
  static void reset_stats() noexcept;
  static void trim() noexcept;
};

}  // namespace srv6bpf::net
