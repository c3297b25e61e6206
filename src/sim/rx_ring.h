// RxRing: a bounded circular queue of packets — the per-(interface, CPU
// context) NIC RX ring of the multi-core Node.
//
// The previous std::deque backlog allocated and freed a block every handful
// of packets in steady state (push_back/pop_front churn walks the deque's
// node map), which is exactly the per-packet allocator traffic the pooled
// datapath eliminates. RxRing keeps a flat slot array instead, sized to the
// deepest backlog the ring has held: it doubles when a push finds every
// slot occupied, never past the `limit` of that push, so a ring that never
// holds more than one packet owns one slot, and one at rx_queue_limit owns
// at most rx_queue_limit. Growth is a warm-up event; once a ring has held
// depth d, enqueue/drain at depths <= d touch no allocator at all.
//
// When the ring drains, the head rewinds to slot 0, so a ring that is
// mostly empty reuses the same (cache-hot) slot instead of walking the
// whole array. Slots hold net::Packet by value; a drained slot is left in
// the moved-from (buffer-less) state, so packet buffers are never held by
// an idle ring.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace srv6bpf::sim {

// What to do with an arriving packet when the ring is at its limit. Both are
// explicit, counted policies (RxRing::overflows; the node charges
// drops_rx_queue for the losing packet either way):
//   kDropNewest — tail drop, the historical NIC behaviour: the arrival is
//                 refused, queued packets keep their service order.
//   kDropOldest — head drop: the oldest queued packet is evicted to admit
//                 the arrival, bounding queueing delay under overload at the
//                 cost of reordering-free-ness of *which* packets survive
//                 (CoDel-ish head dropping; per-flow order of survivors is
//                 still FIFO).
enum class RxOverflowPolicy : std::uint8_t { kDropNewest, kDropOldest };

class RxRing {
 public:
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  // Slots allocated so far: follows the deepest backlog held, never more
  // than the largest `limit` any push ran under.
  std::size_t capacity() const noexcept { return slots_.size(); }

  // Enqueues unless the ring already holds `limit` packets (tail drop —
  // the caller counts it; overflows() counts it here too). Doubles the slot
  // array, up to `limit`, when every slot is occupied.
  bool push(net::Packet&& p, std::size_t limit) {
    if (count_ >= limit) {
      ++overflows_;
      return false;
    }
    if (count_ == slots_.size())
      grow(std::min(std::max<std::size_t>(2 * slots_.size(), 1), limit));
    std::size_t pos = head_ + count_;
    if (pos >= slots_.size()) pos -= slots_.size();
    slots_[pos] = std::move(p);
    ++count_;
    return true;
  }

  // Dequeues the oldest packet. Precondition: !empty().
  net::Packet pop() {
    net::Packet p = std::move(slots_[head_]);
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    if (--count_ == 0) head_ = 0;
    return p;
  }

  // Evicts the oldest queued packet to make room (the kDropOldest policy's
  // overflow action — the caller charges the drop for the evictee, then
  // push() is guaranteed to succeed). Counts an overflow. Precondition:
  // !empty().
  net::Packet evict_oldest() {
    ++overflows_;
    return pop();
  }

  // Discards every queued packet (node crash teardown), handing each to
  // `fn(Packet&&)` so the caller can account it before the buffer recycles.
  template <typename Fn>
  void flush(Fn&& fn) {
    while (!empty()) fn(pop());
  }

  // Overflow events on this ring (either policy), since construction.
  std::uint64_t overflows() const noexcept { return overflows_; }

 private:
  // Precondition: cap > count_. Unwraps the queue to start at slot 0.
  void grow(std::size_t cap) {
    std::vector<net::Packet> grown(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t pos = head_ + i;
      if (pos >= slots_.size()) pos -= slots_.size();
      grown[i] = std::move(slots_[pos]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<net::Packet> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace srv6bpf::sim
