// PdesMailbox: the lock-free SPSC channel between two PDES domains.
//
// Exactly one producer (the sending domain's worker thread, from inside
// Link::transmit_burst) and one consumer (the receiving domain's worker, in
// its drain pass) touch a mailbox, so a Lamport single-producer
// single-consumer ring suffices: two monotone cursors, release on publish,
// acquire on observe, no CAS anywhere on the fast path.
//
// Each message carries the event's absolute delivery time, its ordering key,
// the *sender's* EventLoop stamp (see event_loop.h — this is what makes the
// receiver's tie-break deterministic regardless of when the message is
// drained), and the delivery closure itself, moved through the ring slot so
// pooled packet buffers travel without copies.
//
// Slot storage is allocated uninitialised: a PdesMail is placement-
// constructed into its slot on push and destroyed on pop, so building a
// mailbox touches none of its pages, and only slots that carry a message are
// ever written. The destructor destroys the messages still in flight.
//
// Capacity is fixed; `push` spins when the ring is full. That cannot
// deadlock: every domain worker drains its inbound mailboxes on each
// scheduling pass even when its conservative horizon forbids executing
// anything (and even after it has finished the run window), so a spinning
// producer always finds space within one consumer pass.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>

#include "sim/event_loop.h"
#include "sim/inline_fn.h"

namespace srv6bpf::sim {

struct PdesMail {
  TimeNs t = 0;            // absolute delivery time in the receiver's domain
  std::uint32_t key = 0;   // EventLoop ordering key
  EventLoop::Stamp stamp;  // sender-side provenance (deterministic tie-break)
  InlineFn fn;
};

class PdesMailbox {
 public:
  // Capacity must cover the peak number of in-flight cross-domain
  // deliveries between one pair of domains; deliveries are burst-coalesced
  // (one message per PacketBurst), so even saturated links stay far below
  // this. Overflow degrades to spinning, never to loss.
  static constexpr std::size_t kCapacity = 1024;
  static_assert((kCapacity & (kCapacity - 1)) == 0, "power-of-two ring");

  PdesMailbox()
      : slots_(std::make_unique_for_overwrite<Slot[]>(kCapacity)) {}
  ~PdesMailbox() {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = head_.load(std::memory_order_relaxed); i != tail;
         ++i)
      at(i).~PdesMail();
  }

  PdesMailbox(const PdesMailbox&) = delete;
  PdesMailbox& operator=(const PdesMailbox&) = delete;

  // Producer side. Returns false when full (slot untouched).
  bool try_push(PdesMail&& m) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == kCapacity)
      return false;
    ::new (static_cast<void*>(slots_[tail & (kCapacity - 1)].bytes))
        PdesMail(std::move(m));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Producer side; spins until space (see the deadlock-freedom note above).
  // Overflow is an explicit *counted backpressure* policy, never a drop:
  // conservative PDES cannot lose a cross-domain message (the receiver's
  // LBTS already promised it will see everything below the horizon, and a
  // dropped delivery would silently break packet conservation and the
  // determinism contract both). Each full-ring encounter bumps
  // overflow_spins(), so a chronically undersized ring is visible in
  // PdesNet::mailbox_overflow_spins() instead of just being wall-clock loss.
  void push(PdesMail&& m) noexcept {
    if (!try_push(std::move(m))) {
      overflow_spins_.fetch_add(1, std::memory_order_relaxed);
      do {
        std::this_thread::yield();
      } while (!try_push(std::move(m)));
    }
  }

  // Consumer side. Returns false when empty.
  bool try_pop(PdesMail& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    PdesMail& m = at(head);
    out = std::move(m);
    m.~PdesMail();
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  // Number of push() calls that found the ring full and had to spin —
  // wall-clock-only observability (bit-identical results either way).
  std::uint64_t overflow_spins() const noexcept {
    return overflow_spins_.load(std::memory_order_relaxed);
  }

 private:
  // Raw storage for one message; holds a live PdesMail only between the
  // push that fills it and the pop that empties it.
  struct Slot {
    alignas(PdesMail) std::byte bytes[sizeof(PdesMail)];
  };

  PdesMail& at(std::uint64_t cursor) noexcept {
    return *std::launder(
        reinterpret_cast<PdesMail*>(slots_[cursor & (kCapacity - 1)].bytes));
  }

  // Cursors on separate cache lines so producer and consumer don't false-
  // share; slots are written by the producer and read by the consumer with
  // the tail_ release/acquire pair ordering the hand-off.
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  std::atomic<std::uint64_t> overflow_spins_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace srv6bpf::sim
