// Discrete-event simulation core: a monotonic virtual clock and a
// time-ordered event queue. All timing in the repository is in integer
// nanoseconds of virtual time; nothing ever reads the wall clock.
//
// Storage model. A pending event is two things:
//   * a 40-byte key {t, key, slot, birth} in a binary heap (std::push_heap /
//     std::pop_heap over a vector) — the only thing the queue ever moves;
//   * its closure, a sim::InlineFn built once, in place, in a slot of a slab
//     of fixed-size chunks (kChunkSlots slots each). Chunks are allocated
//     uninitialised and never move, and freed slots go on a LIFO free list,
//     so the pages touched follow the pending high-water mark.
// schedule*() forward the callable straight into its slot (a lambda is moved
// once, a pre-built InlineFn relocated once); step() pops the key, runs the
// closure where it was built, then destroys it and frees the slot. Running
// in place is safe when the closure schedules more events, because chunks
// never move. Nothing heap-allocates once the slab, the heap vector and the
// free list have grown to the pending high-water mark, which is what keeps
// the steady-state forwarding path allocation-free (bench_hotpath gates
// allocs-per-packet at zero).
//
// Ordering contract. Events execute in ascending (t, key, birth) order where
// `birth` is the event's provenance stamp: the scheduling loop's clock at
// schedule time, the scheduling domain's id, and a per-domain monotone
// sequence number. In a single-loop (serial) run the stamp reduces exactly
// to the historical FIFO tie-break — the clock is non-decreasing across
// schedule calls, the domain is constant, and the sequence number is the old
// global counter — so same-(t, key) events still run in scheduling order,
// bit-for-bit. Under parallel PDES execution (sim/pdes_domain.h) the stamp
// is what makes the tie-break *deterministic*: a cross-domain delivery
// carries its sender's stamp through the mailbox, so the merged order per
// domain is a pure function of the simulation, never of thread interleaving
// or mailbox arrival order. The order is total (stamps are unique), so any
// correct heap yields the same sequence. tests/pdes_test.cc pins both
// properties.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"

namespace srv6bpf::sim {

using TimeNs = std::uint64_t;

inline constexpr TimeNs kMicro = 1000;
inline constexpr TimeNs kMilli = 1000 * 1000;
inline constexpr TimeNs kSecond = 1000ull * 1000 * 1000;
// "No event pending": later than any schedulable time.
inline constexpr TimeNs kTimeInfinity = ~TimeNs{0};

class EventLoop {
 public:
  using Fn = InlineFn;

  // Provenance of a scheduled event: where and when the schedule call
  // happened in *logical* time. Totally ordered (birth_t, dom, seq); unique
  // because seq is per-domain monotone. Cross-domain mailbox messages carry
  // their sender's stamp so receivers reproduce one global order.
  struct Stamp {
    TimeNs birth_t = 0;      // scheduling loop's now() at schedule time
    std::uint32_t dom = 0;   // scheduling domain id
    std::uint64_t seq = 0;   // per-domain monotone schedule counter
  };

  // Slots per slab chunk.
  static constexpr std::size_t kChunkSlots = 256;

  EventLoop() = default;
  // Destroys every still-pending closure exactly once.
  ~EventLoop();
  // Nodes and link sides hold EventLoop*; closures live in its slab.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimeNs now() const noexcept { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now()).
  template <typename F>
  void schedule_at(TimeNs t, F&& fn) {
    schedule_at_key(t, 0, std::forward<F>(fn));
  }
  // Schedules `fn` `delay` ns from now.
  template <typename F>
  void schedule(TimeNs delay, F&& fn) {
    schedule_at_key(now_ + delay, 0, std::forward<F>(fn));
  }
  // Same-time events execute in ascending `key`, FIFO within a key (plain
  // schedule_at uses key 0, so existing orderings are untouched). The
  // multi-core Node keys CPU-context service events by context id: when two
  // contexts complete at the same instant, their effects apply in a
  // deterministic context order instead of the order servicing happened to
  // be scheduled in.
  template <typename F>
  void schedule_at_key(TimeNs t, std::uint32_t key, F&& fn) {
    push(t, key, Stamp{now_, domain_, next_seq_++}, std::forward<F>(fn));
  }

  // ---- PDES surface (sim/pdes_domain.h) ----
  // The domain id baked into this loop's stamps. 0 for the serial loop.
  void set_domain(std::uint32_t dom) noexcept { domain_ = dom; }
  std::uint32_t domain() const noexcept { return domain_; }
  // Allocates a stamp for a schedule that will happen *elsewhere* (a
  // cross-domain mailbox message): consumes this loop's sequence counter at
  // its current clock, exactly as a local schedule_at would have.
  Stamp make_stamp() noexcept { return Stamp{now_, domain_, next_seq_++}; }
  // Enqueues an event that was stamped by another loop (mailbox drain),
  // relocating `fn` once into its slot. `t` is clamped to now() like
  // schedule_at — conservative synchronization guarantees arrivals are never
  // in the receiver's past, so the clamp is defensive only.
  void inject(TimeNs t, std::uint32_t key, Stamp stamp, Fn&& fn) {
    push(t, key, stamp, std::move(fn));
  }
  // Earliest pending event time, kTimeInfinity when idle.
  TimeNs next_time() const noexcept {
    return heap_.empty() ? kTimeInfinity : heap_.front().t;
  }
  // Runs every event with t < bound (strict: `bound` is the conservative
  // horizon, events *at* it may still gain same-time predecessors from a
  // neighbor domain). Returns the number executed. now() is left at the last
  // executed event, never advanced to bound.
  std::size_t run_events_before(TimeNs bound);
  // Moves the clock forward to `t` without running anything (end-of-phase
  // catch-up for idle domains). No-op when t <= now().
  void advance_to(TimeNs t) noexcept {
    if (t > now_) now_ = t;
  }

  // Runs a single event; false when the queue is empty.
  bool step();
  // Runs until the queue empties or the clock passes `t`.
  void run_until(TimeNs t);
  // Drains the queue completely (use with care: traffic generators that
  // reschedule forever will never drain; prefer run_until).
  void run();

  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  // Heap entry: the ordering fields plus the slab slot of the closure.
  struct Event {
    TimeNs t;
    std::uint32_t key;   // same-time ordering class (CPU-context id)
    std::uint32_t slot;  // closure's slab index
    Stamp birth;         // provenance: deterministic FIFO tie-break
  };
  static_assert(sizeof(Event) == 40);
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      if (a.key != b.key) return a.key > b.key;
      if (a.birth.birth_t != b.birth.birth_t)
        return a.birth.birth_t > b.birth.birth_t;
      if (a.birth.dom != b.birth.dom) return a.birth.dom > b.birth.dom;
      return a.birth.seq > b.birth.seq;
    }
  };
  // Raw closure storage: chunks are allocated without initialisation and an
  // InlineFn lives in a slot only while its event is pending.
  struct Slot {
    alignas(InlineFn) std::byte bytes[sizeof(InlineFn)];
  };

  template <typename F>
  void push(TimeNs t, std::uint32_t key, Stamp birth, F&& fn) {
    static_assert(
        std::is_nothrow_constructible_v<std::remove_cvref_t<F>, F&&>,
        "the closure is built in its slot and must not throw there (pass "
        "it as an rvalue)");
    if (t < now_) t = now_;
    const std::uint32_t slot = take_slot();
    ::new (static_cast<void*>(raw(slot))) InlineFn(std::forward<F>(fn));
    // Cannot reallocate: grow() keeps capacity at the slab's slot count.
    heap_.push_back(Event{t, key, slot, birth});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::byte* raw(std::uint32_t slot) noexcept {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots].bytes;
  }
  InlineFn& fn_at(std::uint32_t slot) noexcept {
    return *std::launder(reinterpret_cast<InlineFn*>(raw(slot)));
  }
  // Pops the free list, growing the slab by one chunk when it is empty.
  std::uint32_t take_slot() {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void grow();

  TimeNs now_ = 0;
  std::uint32_t domain_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;                     // min-heap under Later
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // never move once allocated
  std::vector<std::uint32_t> free_;              // LIFO free slot indices
};

}  // namespace srv6bpf::sim
