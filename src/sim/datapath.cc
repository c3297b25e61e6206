#include "sim/datapath.h"

#include "seg6/lwt.h"
#include "seg6/seg6local.h"
#include "sim/node.h"

namespace srv6bpf::sim {

void Datapath::process(net::Packet& pkt, net::BurstSlotMeta& meta,
                       bool local_out, seg6::ProcessTrace& trace) {
  trace.reset();
  meta.verdict = decide(pkt, meta, local_out, trace);
  node_.cur().stats.account(trace);
}

net::BurstVerdict Datapath::decide(net::Packet& p, net::BurstSlotMeta& meta,
                                   bool local_out,
                                   seg6::ProcessTrace& trace) {
  seg6::Netns& ns = node_.ns();
  // Everything this run charges lands on the invoking CPU context: its
  // NodeStats shard (Node::cur() is set by the service event / local-out
  // entry points before we get here) and, inside the route lookups, the
  // netns's per-context FIB cache slot selected by Netns::current_cpu.
  NodeStats& stats = node_.cur().stats;

  // Drop charging goes through note_drop so per-reason first-occurrence
  // timestamps are captured. The time used is the packet's own logical time —
  // wire arrival for received packets, the entry clock for locally
  // originated ones — never the (coalescing-dependent) service event clock,
  // keeping the timestamps burst-invariant. The specific drop counter is
  // bumped here; `traced` marks the drops the cost trace records.
  const TimeNs at = p.rx_tstamp_ns != 0 ? static_cast<TimeNs>(p.rx_tstamp_ns)
                                        : node_.loop().now();
  auto drop = [&](DropReason reason, bool traced) {
    stats.note_drop(reason, at);
    if (traced) trace.dropped = true;
    return net::BurstVerdict::kDrop;
  };

  // ---- classify ------------------------------------------------------------
  if (p.size() < net::kIpv6HeaderSize || p.ipv6().version() != 6)
    return drop(DropReason::kMalformed, true);

  // ---- SID/local pre-lookup (does not use up a round) ----------------------
  seg6::PipelineResult r = seg6::PipelineResult::cont(0);
  if (!local_out) {
    const net::Ipv6Addr dst = p.ipv6().dst();
    if (const seg6::Seg6LocalEntry* sid = ns.seg6local().lookup(dst))
      r = seg6::seg6local_process(ns, p, *sid, &trace);
    else if (ns.is_local(dst))
      return net::BurstVerdict::kLocal;
    // else: kContinue(0) — plain FIB forwarding.
  }

  // ---- rounds --------------------------------------------------------------
  for (int round = 0; round < 4; ++round) {
    // Settle. kUseRoute never reaches here: the LWT step below resolves it
    // to the route's nexthop where it arises.
    if (r.disposition == seg6::Disposition::kDrop)
      return drop(DropReason::kVerdict, true);
    if (r.disposition == seg6::Disposition::kLocal)
      return net::BurstVerdict::kLocal;
    if (r.disposition == seg6::Disposition::kForward) {
      if (!p.dst().valid) return drop(DropReason::kNoRoute, false);
      meta.oif = p.dst().oif;
      if (!local_out) {
        const std::uint8_t hl = p.ipv6().hop_limit();
        if (hl <= 1) {
          node_.send_icmp_time_exceeded(p);
          return drop(DropReason::kTtl, true);
        }
        p.ipv6().set_hop_limit(static_cast<std::uint8_t>(hl - 1));
      }
      return net::BurstVerdict::kForward;
    }

    // kContinue. A rewritten destination may target another local SID
    // (e.g. B6 policies whose first segment is local) or a local address
    // (e.g. after decap on the final node).
    const net::Ipv6Addr dst = p.ipv6().dst();
    if (const seg6::Seg6LocalEntry* sid = ns.seg6local().lookup(dst)) {
      r = seg6::seg6local_process(ns, p, *sid, &trace);
      continue;  // next round settles
    }
    if (ns.is_local(dst)) return net::BurstVerdict::kLocal;

    const seg6::Fib* fib = ns.find_table(r.table);
    const seg6::Route* route =
        fib ? fib->lookup(dst, ns.fib_cache_slot()) : nullptr;
    ++trace.fib_lookups;
    if (route == nullptr) return drop(DropReason::kNoRoute, true);

    if (route->lwt && route->lwt->kind != seg6::LwtState::Kind::kNone) {
      r = seg6::lwt_process(ns, p, *route->lwt, seg6::LwtHook::kXmit, &trace);
      if (r.disposition != seg6::Disposition::kUseRoute) continue;
    }

    // Resolve the route's own nexthop into the packet's dst metadata (ECMP
    // per-packet: the flow hash keeps flows on one path). When the selected
    // nexthop's egress link is down and the route carries a precomputed
    // TI-LFA backup, the point-of-local-repair path activates right here:
    // encapsulate with the repair segment list and steer out the backup
    // adjacency (or re-run the lookup on the new outer destination when the
    // backup has no pinned interface).
    if (route->nexthops.empty()) return drop(DropReason::kNoRoute, false);
    const seg6::Nexthop& nh = seg6::Fib::select_nexthop(*route, p);
    if (node_.iface_link_down(nh.oif) && route->frr != nullptr) {
      const seg6::FrrBackup& frr = *route->frr;
      if (!frr.segments.empty()) {
        const net::Ipv6Addr src =
            ns.sr_tunsrc.is_unspecified() ? p.ipv6().src() : ns.sr_tunsrc;
        if (!seg6::seg6_do_encap(p, frr.segments, src))
          return drop(DropReason::kLinkDown, true);
        ++trace.encaps;
      }
      ++stats.frr_reroutes;
      if (frr.nh.oif >= 0 && !node_.iface_link_down(frr.nh.oif)) {
        p.dst().nexthop =
            frr.nh.via.is_unspecified() ? p.ipv6().dst() : frr.nh.via;
        p.dst().oif = frr.nh.oif;
        p.dst().valid = true;
        r = seg6::PipelineResult::forward();
      } else {
        // No pinned backup adjacency: the rewritten outer destination (the
        // first repair segment) goes back for another lookup round.
        r = seg6::PipelineResult::cont(0);
      }
      continue;
    }
    p.dst().nexthop = nh.via.is_unspecified() ? dst : nh.via;
    p.dst().oif = nh.oif;
    p.dst().valid = true;
    r = seg6::PipelineResult::forward();
  }

  // Rounds exhausted: whatever is still in flight loops.
  return drop(DropReason::kNoRoute, false);
}

}  // namespace srv6bpf::sim
