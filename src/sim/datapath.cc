#include "sim/datapath.h"

#include <array>

#include "seg6/lwt.h"
#include "seg6/seg6local.h"
#include "sim/node.h"

namespace srv6bpf::sim {

namespace {

// Scratch the stages share for one burst. Lives on the caller's stack so the
// pipeline stays re-entrant (ICMP generation sends from inside a burst), and
// is left uninitialised: classify writes slot i of each array for every
// i < n before any stage reads it.
struct BurstState {
  net::BurstScratch<seg6::PipelineResult> r;
  std::array<bool, net::kMaxBurstPackets> active;
};

}  // namespace

void Datapath::process_burst(net::PacketBurst& b, bool local_out,
                             seg6::ProcessTrace* traces) {
  const std::size_t n = b.size();
  Node& node = node_;
  seg6::Netns& ns = node.ns();
  // Everything this run charges lands on the invoking CPU context: its
  // NodeStats shard (Node::cur() is set by the service event / local-out
  // entry points before we get here) and, inside the route lookups, the
  // netns's per-context FIB cache slot selected by Netns::current_cpu.
  NodeStats& stats = node.cur().stats;

  // Drop charging goes through note_drop so per-reason first-occurrence
  // timestamps are captured. The time used is the packet's own logical time —
  // wire arrival for received packets, the entry clock for locally
  // originated ones — never the (coalescing-dependent) service event clock,
  // keeping the timestamps burst-invariant.
  const TimeNs entry_now = node.loop().now();
  auto drop_time = [entry_now](const net::Packet& p) {
    return p.rx_tstamp_ns != 0 ? static_cast<TimeNs>(p.rx_tstamp_ns)
                               : entry_now;
  };

  BurstState st;
  // Group scratch: packet/trace/result views over one run of packets that
  // share a lookup key (destination or route).
  std::array<net::Packet*, net::kMaxBurstPackets> gp;
  std::array<seg6::ProcessTrace*, net::kMaxBurstPackets> gt;
  net::BurstScratch<seg6::PipelineResult> gr;
  std::array<std::size_t, net::kMaxBurstPackets> gi;

  // Finalizers. These mirror the single-packet state machine's exits; the
  // specific drop counter for kDrop verdicts is bumped by the caller side.
  auto finish_drop = [&](std::size_t i) {
    b.meta(i).verdict = net::BurstVerdict::kDrop;
    st.active[i] = false;
  };
  auto finish_local = [&](std::size_t i) {
    b.meta(i).verdict = net::BurstVerdict::kLocal;
    st.active[i] = false;
  };

  // ---- Stage 1: classify ---------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    traces[i].reset();
    st.r[i] = seg6::PipelineResult::cont(0);
    st.active[i] = true;
    net::Packet& p = b.pkt(i);
    if (p.size() < net::kIpv6HeaderSize || p.ipv6().version() != 6) {
      stats.note_drop(DropReason::kMalformed, drop_time(p));
      traces[i].dropped = true;
      finish_drop(i);
    }
  }

  // First seg6local pass: run-group consecutive valid packets by destination
  // and resolve the SID table once per run (mirrors the pre-loop lookup of
  // the single-packet pipeline, so it does not consume a disposition round).
  if (!local_out) {
    std::size_t i = 0;
    while (i < n) {
      if (!st.active[i]) {
        ++i;
        continue;
      }
      const net::Ipv6Addr dst = b.pkt(i).ipv6().dst();
      std::size_t m = 0;
      std::size_t j = i;
      for (; j < n && st.active[j] && b.pkt(j).ipv6().dst() == dst; ++j) {
        gp[m] = &b.pkt(j);
        gt[m] = &traces[j];
        gi[m] = j;
        ++m;
      }
      if (const seg6::Seg6LocalEntry* sid = ns.seg6local().lookup(dst)) {
        seg6::seg6local_process_burst(ns, {gp.data(), m}, *sid, gt.data(),
                                      gr.data());
        for (std::size_t k = 0; k < m; ++k) st.r[gi[k]] = gr[k];
      } else if (ns.is_local(dst)) {
        for (std::size_t k = 0; k < m; ++k) finish_local(gi[k]);
      }
      // else: st.r stays kContinue(0) — plain FIB forwarding.
      i = j;
    }
  }

  // ---- Stages 2+3: disposition rounds (seg6local / lwt / fib) -------------
  // Each round is one iteration of the former per-packet disposition loop:
  // settle non-continue dispositions, then handle the continues with grouped
  // lookups. Encapsulations and rewritten destinations come back for another
  // round; the bound defeats routing loops inside one node.
  for (int round = 0; round < 4; ++round) {
    std::size_t still_continue = 0;

    // Settle.
    for (std::size_t i = 0; i < n; ++i) {
      if (!st.active[i]) continue;
      net::Packet& p = b.pkt(i);
      switch (st.r[i].disposition) {
        case seg6::Disposition::kDrop:
          stats.note_drop(DropReason::kVerdict, drop_time(p));
          traces[i].dropped = true;
          finish_drop(i);
          break;
        case seg6::Disposition::kLocal:
          finish_local(i);
          break;
        case seg6::Disposition::kUseRoute:
          // Only produced inside the kContinue handling; treated there.
          stats.note_drop(DropReason::kNoRoute, drop_time(p));
          finish_drop(i);
          break;
        case seg6::Disposition::kForward: {
          if (!p.dst().valid) {
            stats.note_drop(DropReason::kNoRoute, drop_time(p));
            finish_drop(i);
            break;
          }
          b.meta(i).oif = p.dst().oif;
          if (!local_out) {
            const std::uint8_t hl = p.ipv6().hop_limit();
            if (hl <= 1) {
              stats.note_drop(DropReason::kTtl, drop_time(p));
              node.send_icmp_time_exceeded(p);
              traces[i].dropped = true;
              finish_drop(i);
              break;
            }
            p.ipv6().set_hop_limit(static_cast<std::uint8_t>(hl - 1));
          }
          b.meta(i).verdict = net::BurstVerdict::kForward;
          st.active[i] = false;
          break;
        }
        case seg6::Disposition::kContinue:
          ++still_continue;
          break;
      }
    }
    if (still_continue == 0) break;

    // Continue handling, run-grouped by (destination, table).
    std::size_t i = 0;
    while (i < n) {
      if (!st.active[i]) {
        ++i;
        continue;
      }
      const net::Ipv6Addr dst = b.pkt(i).ipv6().dst();
      const int table = st.r[i].table;
      std::size_t m = 0;
      std::size_t j = i;
      for (; j < n && st.active[j] && st.r[j].table == table &&
             b.pkt(j).ipv6().dst() == dst;
           ++j) {
        gp[m] = &b.pkt(j);
        gt[m] = &traces[j];
        gi[m] = j;
        ++m;
      }
      i = j;

      // A rewritten destination may target another local SID (e.g. B6
      // policies whose first segment is local) or a local address (e.g.
      // after decap on the final node).
      if (const seg6::Seg6LocalEntry* sid = ns.seg6local().lookup(dst)) {
        seg6::seg6local_process_burst(ns, {gp.data(), m}, *sid, gt.data(),
                                      gr.data());
        for (std::size_t k = 0; k < m; ++k) st.r[gi[k]] = gr[k];
        continue;  // next round settles
      }
      if (ns.is_local(dst)) {
        for (std::size_t k = 0; k < m; ++k) finish_local(gi[k]);
        continue;
      }

      const seg6::Fib* fib = ns.find_table(table);
      const seg6::Route* route =
          fib ? fib->lookup(dst, ns.fib_cache_slot()) : nullptr;
      for (std::size_t k = 0; k < m; ++k) ++gt[k]->fib_lookups;
      if (route == nullptr) {
        for (std::size_t k = 0; k < m; ++k) {
          stats.note_drop(DropReason::kNoRoute, drop_time(*gp[k]));
          gt[k]->dropped = true;
          finish_drop(gi[k]);
        }
        continue;
      }

      // Resolves the route's own nexthop into the packet's dst metadata
      // (ECMP per-packet: the flow hash keeps flows on one path). When the
      // selected nexthop's egress link is down and the route carries a
      // precomputed TI-LFA backup, the point-of-local-repair path activates
      // right here: encapsulate with the repair segment list and steer out
      // the backup adjacency (or re-run the lookup on the new outer
      // destination when the backup has no pinned interface).
      auto take_nexthop = [&](std::size_t k) {
        if (route->nexthops.empty()) {
          stats.note_drop(DropReason::kNoRoute, drop_time(*gp[k]));
          finish_drop(gi[k]);
          return;
        }
        net::Packet& p = *gp[k];
        const seg6::Nexthop& nh = seg6::Fib::select_nexthop(*route, p);
        if (node.iface_link_down(nh.oif) && route->frr != nullptr) {
          const seg6::FrrBackup& frr = *route->frr;
          if (!frr.segments.empty()) {
            const net::Ipv6Addr src = ns.sr_tunsrc.is_unspecified()
                                          ? p.ipv6().src()
                                          : ns.sr_tunsrc;
            if (!seg6::seg6_do_encap(p, frr.segments, src)) {
              stats.note_drop(DropReason::kLinkDown, drop_time(p));
              gt[k]->dropped = true;
              finish_drop(gi[k]);
              return;
            }
            ++gt[k]->encaps;
          }
          ++stats.frr_reroutes;
          if (frr.nh.oif >= 0 && !node.iface_link_down(frr.nh.oif)) {
            p.dst().nexthop =
                frr.nh.via.is_unspecified() ? p.ipv6().dst() : frr.nh.via;
            p.dst().oif = frr.nh.oif;
            p.dst().valid = true;
            st.r[gi[k]] = seg6::PipelineResult::forward();
          } else {
            // No pinned backup adjacency: the rewritten outer destination
            // (the first repair segment) goes back for another lookup round.
            st.r[gi[k]] = seg6::PipelineResult::cont(0);
          }
          return;
        }
        p.dst().nexthop = nh.via.is_unspecified() ? dst : nh.via;
        p.dst().oif = nh.oif;
        p.dst().valid = true;
        st.r[gi[k]] = seg6::PipelineResult::forward();
      };

      if (route->lwt && route->lwt->kind != seg6::LwtState::Kind::kNone) {
        for (std::size_t k = 0; k < m; ++k)
          gr[k] = seg6::lwt_process(ns, *gp[k], *route->lwt,
                                    seg6::LwtHook::kXmit, gt[k]);
        for (std::size_t k = 0; k < m; ++k) {
          if (gr[k].disposition == seg6::Disposition::kUseRoute)
            take_nexthop(k);
          else
            st.r[gi[k]] = gr[k];
        }
        continue;
      }
      for (std::size_t k = 0; k < m; ++k) take_nexthop(k);
    }
  }

  // Disposition rounds exhausted: whatever is still in flight loops.
  for (std::size_t i = 0; i < n; ++i) {
    if (!st.active[i]) continue;
    stats.note_drop(DropReason::kNoRoute, drop_time(b.pkt(i)));
    finish_drop(i);
  }

  for (std::size_t i = 0; i < n; ++i) stats.account(traces[i]);
}

}  // namespace srv6bpf::sim
