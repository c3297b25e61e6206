// Constant-rate UDP packet generator — the trafgen/pktgen stand-in used to
// offer 3 Mpps of 64-byte SRv6 traffic in §3.2.
//
// Packets are stamped from a per-flow template built once at construction:
// each emission is one pooled-buffer copy of the prebuilt frame plus in-place
// patches of the varying fields (flow label, destination site, source port,
// each with the RFC 1624 incremental checksum fixup where the field is
// covered), at cached byte offsets — the header chain is walked once, not
// per packet. That is how trafgen/pktgen themselves reach line rate, and it
// is what keeps the generator inside the simulator's zero-allocation steady
// state. Each stamped packet is byte-identical to net::make_udp_packet of
// the spec with the varied fields set (tests/alloc_test.cc checks it).
#pragma once

#include <cstdint>

#include "net/burst.h"
#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace srv6bpf::apps {

class TrafGen {
 public:
  struct Config {
    net::PacketSpec spec;
    double pps = 1000.0;
    sim::TimeNs start_at = 0;
    sim::TimeNs duration = sim::kSecond;
    // Vary the UDP source port across packets so ECMP/flow hashing sees many
    // flows (trafgen's port randomisation).
    std::uint16_t src_port_spread = 1;
    // Vary the outer IPv6 flow label across packets (pktgen's multi-flow
    // mode). The RSS steering tuple of the multi-core Node is
    // (src, dst, flow label), so this is the knob that spreads one
    // generator's traffic over a router's CPU contexts. Packets cycle
    // labels spec.flow_label .. spec.flow_label + spread - 1.
    std::uint32_t flow_label_spread = 1;
    // Vary the outer IPv6 *destination* across packets: a 16-bit counter is
    // cycled through address bytes 4-5 (the third group), so consecutive
    // packets hit `dst_spread` different /48 sites — multi-destination
    // traffic that defeats any one-entry route cache and drives the router's
    // FIB trie on every packet.
    // When the packet carries no SRH the UDP checksum is incrementally
    // fixed up (the final destination is in the pseudo-header); with an SRH
    // the outer dst is the first segment and needs no fixup — but rotating
    // it would dodge the SID table, so combine the two with care.
    std::uint32_t dst_spread = 1;
    // Packets emitted per tick through Node::send_burst (capped at
    // net::kMaxBurstPackets). 1 = one event per packet, exact pps spacing;
    // >1 trades intra-burst arrival spacing (packets leave back-to-back at
    // the tick) for far fewer simulator events. The average offered rate is
    // preserved.
    std::size_t burst = 1;
  };

  TrafGen(sim::Node& node, Config cfg);

  void start();
  std::uint64_t sent() const noexcept { return sent_; }
  // Emissions refused by the BufferPool hard cap (net::BufferPool::
  // set_max_buffers): the packet was due but no buffer could be admitted, so
  // it was dropped at the source — also charged to the node as
  // drops_no_buffer. attempted() is what the conservation ledger
  // (sim::InvariantAuditor) counts as offered load.
  std::uint64_t drops_no_buffer() const noexcept { return drops_no_buffer_; }
  std::uint64_t attempted() const noexcept { return sent_ + drops_no_buffer_; }

 private:
  void tick();
  net::Packet next_packet();

  sim::Node& node_;
  Config cfg_;
  net::Packet t_template_;
  sim::TimeNs interval_ns_;
  std::uint16_t dst_site_base_ = 0;  // template dst bytes 4-5 (dst_spread)
  // Transport location cached off the template (the layout is fixed per
  // flow): spread patches fix checksums at these offsets without re-walking
  // the header chain per packet.
  std::size_t udp_off_ = 0;
  bool has_udp_ = false;
  sim::TimeNs stop_at_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t drops_no_buffer_ = 0;
  sim::TimeNs next_send_ = 0;
};

}  // namespace srv6bpf::apps
