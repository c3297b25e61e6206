// PacketBurst: what one RX service event drains and one link transmit sends.
//
// A fixed-capacity inline vector of packets plus per-packet disposition
// metadata (verdict, egress interface, logical timestamp). A Node drains its
// RX rings into a burst the way NAPI polls a budget of skbs, runs each
// packet through the datapath (sim/datapath.h) in order, and hands the
// forwards per egress interface to Link::transmit_burst: one event per
// burst instead of per packet, with per-packet fates recorded in the
// metadata.
//
// Storage is inline (no heap) and lazily constructed: creating, moving and
// destroying a burst costs O(occupied slots), never O(capacity) — a burst of
// one packet must stay as cheap as the scalar path it replaced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "net/packet.h"

namespace srv6bpf::net {

// Hard capacity of a burst. The runtime drain budget (Node::Cpu::rx_burst)
// may be anything up to this; 64 matches the largest NAPI poll budget the
// burst-invariance tests exercise.
inline constexpr std::size_t kMaxBurstPackets = 64;

// Per-packet fate, assigned by the datapath.
enum class BurstVerdict : std::uint8_t {
  kPending,   // not yet classified
  kForward,   // transmit on `oif` at `at_ns`
  kLocal,     // deliver to the local stack
  kDrop,
};

// Intentionally no field initialisers: metadata slots live in bulk arrays
// that are only ever read below the burst's size, and push() assigns every
// field (same pattern as ebpf::RegionList).
struct BurstSlotMeta {
  BurstVerdict verdict;
  int oif;
  // Logical per-packet timestamp: the CPU-model completion time on the
  // transmit side, the wire arrival time on the receive side. Carrying it
  // explicitly lets one scheduled event move a whole burst while every
  // packet keeps its exact per-packet timing.
  std::uint64_t at_ns;
};

class PacketBurst {
 public:
  PacketBurst() = default;

  PacketBurst(PacketBurst&& other) noexcept { steal(other); }
  PacketBurst& operator=(PacketBurst&& other) noexcept {
    if (this != &other) {
      clear();
      steal(other);
    }
    return *this;
  }
  // The datapath always moves; copying survives for tests that want to
  // snapshot a burst. (Event closures moved off by-value burst captures
  // entirely — in-flight bursts ride pooled BurstPool nodes so the InlineFn
  // closure stays pointer-sized.) size_ grows as slots are constructed so a
  // throwing Packet copy unwinds cleanly.
  PacketBurst(const PacketBurst& other) {
    for (std::size_t i = 0; i < other.size_; ++i) {
      new (slot(i)) Packet(other.pkt(i));
      meta_[i] = other.meta_[i];
      ++size_;
    }
  }
  PacketBurst& operator=(const PacketBurst& other) {
    if (this != &other) {
      clear();
      for (std::size_t i = 0; i < other.size_; ++i) {
        new (slot(i)) Packet(other.pkt(i));
        meta_[i] = other.meta_[i];
        ++size_;
      }
    }
    return *this;
  }
  ~PacketBurst() { clear(); }

  static constexpr std::size_t capacity() noexcept { return kMaxBurstPackets; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == kMaxBurstPackets; }

  // Appends a packet; returns false (packet untouched) when full.
  bool push(Packet&& p, std::uint64_t at_ns = 0) {
    if (full()) return false;
    new (slot(size_)) Packet(std::move(p));
    meta_[size_] = BurstSlotMeta{BurstVerdict::kPending, -1, at_ns};
    ++size_;
    return true;
  }

  Packet& pkt(std::size_t i) noexcept {
    return *std::launder(reinterpret_cast<Packet*>(slot(i)));
  }
  const Packet& pkt(std::size_t i) const noexcept {
    return *std::launder(reinterpret_cast<const Packet*>(slot(i)));
  }
  BurstSlotMeta& meta(std::size_t i) noexcept { return meta_[i]; }
  const BurstSlotMeta& meta(std::size_t i) const noexcept { return meta_[i]; }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) pkt(i).~Packet();
    size_ = 0;
  }

 private:
  void steal(PacketBurst& other) noexcept {
    size_ = other.size_;
    for (std::size_t i = 0; i < size_; ++i) {
      new (slot(i)) Packet(std::move(other.pkt(i)));
      meta_[i] = other.meta_[i];
      other.pkt(i).~Packet();
    }
    other.size_ = 0;
  }

  std::byte* slot(std::size_t i) noexcept {
    return storage_ + i * sizeof(Packet);
  }
  const std::byte* slot(std::size_t i) const noexcept {
    return storage_ + i * sizeof(Packet);
  }

  alignas(Packet) std::byte storage_[kMaxBurstPackets * sizeof(Packet)];
  BurstSlotMeta meta_[kMaxBurstPackets];
  std::size_t size_ = 0;
};

}  // namespace srv6bpf::net
