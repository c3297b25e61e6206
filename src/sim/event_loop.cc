#include "sim/event_loop.h"

namespace srv6bpf::sim {

EventLoop::~EventLoop() {
  for (const Event& ev : heap_) fn_at(ev.slot).~InlineFn();
}

void EventLoop::grow() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  const std::size_t slots = base + kChunkSlots;
  // Every pending event holds one slot and every free slot one free-list
  // entry, so with this capacity push() and step() never reallocate.
  if (heap_.capacity() < slots)
    heap_.reserve(std::max(slots, 2 * heap_.capacity()));
  if (free_.capacity() < slots)
    free_.reserve(std::max(slots, 2 * free_.capacity()));
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  // Lowest index on top: a chunk's slots are first used in address order.
  for (std::size_t i = slots; i-- > base;)
    free_.push_back(static_cast<std::uint32_t>(i));
}

bool EventLoop::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.t;
  ++executed_;
  // Destroys the closure and frees its slot after it ran, or while an
  // exception it threw unwinds.
  struct Retire {
    EventLoop* loop;
    std::uint32_t slot;
    ~Retire() {
      loop->fn_at(slot).~InlineFn();
      loop->free_.push_back(slot);
    }
  } retire{this, ev.slot};
  fn_at(ev.slot)();
  return true;
}

std::size_t EventLoop::run_events_before(TimeNs bound) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().t < bound) {
    step();
    ++n;
  }
  return n;
}

void EventLoop::run_until(TimeNs t) {
  while (!heap_.empty() && heap_.front().t <= t) step();
  if (now_ < t) now_ = t;
}

void EventLoop::run() {
  while (step()) {
  }
}

}  // namespace srv6bpf::sim
