#include "seg6/seg6local.h"

#include <cstring>

#include "net/srh.h"
#include "net/transport.h"
#include "util/byteorder.h"

namespace srv6bpf::seg6 {

bool srh_advance(net::Packet& pkt) {
  auto srh = pkt.srh();
  if (!srh) return false;
  if (srh->segments_left() == 0) return false;
  if (!srh->tlvs_well_formed()) return false;
  srh->set_segments_left(static_cast<std::uint8_t>(srh->segments_left() - 1));
  const net::Ipv6Addr next = srh->segment(srh->segments_left());
  pkt.ipv6().set_dst(next);
  return true;
}

bool seg6_decap(net::Packet& pkt) {
  if (pkt.size() < net::kIpv6HeaderSize) return false;
  net::Ipv6View outer(pkt.data());
  std::size_t off = net::kIpv6HeaderSize;
  std::uint8_t proto = outer.next_header();
  if (proto == net::kProtoRouting) {
    if (pkt.size() < off + net::kSrhFixedSize) return false;
    net::SrhView srh(pkt.data() + off, pkt.size() - off);
    if (!srh.valid()) return false;
    proto = srh.next_header();
    off += srh.total_len();
  }
  if (proto != net::kProtoIpv6) return false;  // nothing to decapsulate
  if (pkt.size() < off + net::kIpv6HeaderSize) return false;
  if ((pkt.data()[off] >> 4) != 6) return false;
  pkt.pull_front(off);
  return true;
}

bool seg6_do_encap(net::Packet& pkt, std::span<const net::Ipv6Addr> segments,
                   const net::Ipv6Addr& src) {
  if (segments.empty() || pkt.size() < net::kIpv6HeaderSize) return false;
  const std::vector<std::uint8_t> srh =
      net::build_srh(net::kProtoIpv6, segments);

  net::Ipv6Header outer;
  outer.src = src;
  outer.dst = segments.front();
  outer.next_header = net::kProtoRouting;
  outer.hop_limit = 64;
  outer.payload_length = static_cast<std::uint16_t>(srh.size() + pkt.size());

  std::uint8_t* front = pkt.push_front(net::kIpv6HeaderSize + srh.size());
  outer.write(front);
  std::memcpy(front + net::kIpv6HeaderSize, srh.data(), srh.size());
  return true;
}

bool seg6_do_inline(net::Packet& pkt,
                    std::span<const net::Ipv6Addr> segments) {
  if (segments.empty() || pkt.size() < net::kIpv6HeaderSize) return false;
  net::Ipv6View ip(pkt.data());
  const net::Ipv6Addr original_dst = ip.dst();
  const std::uint8_t inner_proto = ip.next_header();

  // Travel order: policy segments, then the original destination last.
  std::vector<net::Ipv6Addr> segs(segments.begin(), segments.end());
  segs.push_back(original_dst);
  const std::vector<std::uint8_t> srh = net::build_srh(inner_proto, segs);

  // Insert between the IPv6 header and its payload.
  if (!pkt.expand_at(net::kIpv6HeaderSize,
                     static_cast<std::ptrdiff_t>(srh.size())))
    return false;
  std::memcpy(pkt.data() + net::kIpv6HeaderSize, srh.data(), srh.size());

  net::Ipv6View ip2(pkt.data());
  ip2.set_next_header(net::kProtoRouting);
  ip2.set_payload_length(
      static_cast<std::uint16_t>(ip2.payload_length() + srh.size()));
  ip2.set_dst(segs.front());
  return true;
}

bool seg6_end_x(Netns& ns, net::Packet& pkt, const Nexthop& nh,
                ProcessTrace* trace) {
  int oif = nh.oif;
  if (oif < 0) {
    // Resolve the egress interface through the FIB.
    const Fib* fib = ns.find_table(0);
    if (fib == nullptr) return false;
    const Route* route = fib->lookup(nh.via, ns.fib_cache_slot());
    if (route == nullptr || route->nexthops.empty()) return false;
    oif = Fib::select_nexthop(*route, pkt).oif;
    if (trace != nullptr) ++trace->fib_lookups;
  }
  pkt.dst().nexthop = nh.via;
  pkt.dst().oif = oif;
  pkt.dst().valid = true;
  return true;
}

PipelineResult seg6local_process(Netns& ns, net::Packet& pkt,
                                 const Seg6LocalEntry& entry,
                                 ProcessTrace* trace) {
  auto count_op = [&] {
    if (trace != nullptr) ++trace->seg6local_ops;
  };

  switch (entry.action) {
    case Seg6Action::kEnd: {
      count_op();
      if (!srh_advance(pkt)) return PipelineResult::drop();
      return PipelineResult::cont(0);
    }
    case Seg6Action::kEndX: {
      count_op();
      if (!srh_advance(pkt)) return PipelineResult::drop();
      if (!seg6_end_x(ns, pkt, entry.nh, trace)) return PipelineResult::drop();
      return PipelineResult::forward();
    }
    case Seg6Action::kEndT: {
      count_op();
      if (!srh_advance(pkt)) return PipelineResult::drop();
      return PipelineResult::cont(entry.table);
    }
    case Seg6Action::kEndDT6: {
      count_op();
      if (!seg6_decap(pkt)) return PipelineResult::drop();
      if (trace != nullptr) ++trace->decaps;
      return PipelineResult::cont(entry.table);
    }
    case Seg6Action::kEndB6: {
      count_op();
      if (!seg6_do_inline(pkt, entry.segments)) return PipelineResult::drop();
      if (trace != nullptr) ++trace->encaps;
      return PipelineResult::cont(0);
    }
    case Seg6Action::kEndB6Encaps: {
      count_op();
      if (!srh_advance(pkt)) return PipelineResult::drop();
      const net::Ipv6Addr src = ns.sr_tunsrc.is_unspecified()
                                    ? pkt.ipv6().src()
                                    : ns.sr_tunsrc;
      if (!seg6_do_encap(pkt, entry.segments, src))
        return PipelineResult::drop();
      if (trace != nullptr) ++trace->encaps;
      return PipelineResult::cont(0);
    }
    case Seg6Action::kEndBPF: {
      // The paper's action (§3): behave as an endpoint — validate + advance —
      // then run the eBPF program and interpret its return code.
      if (entry.prog == nullptr) return PipelineResult::drop();
      count_op();  // the endpoint part (validate + advance) is End-equivalent
      if (!srh_advance(pkt)) return PipelineResult::drop();

      const auto run = ns.run_prog(*entry.prog, pkt, trace);
      if (!run.exec.ok()) return PipelineResult::drop();
      // "If the SRH has been altered by the BPF program, a quick
      // verification is performed to ensure that it is still valid" (§3.1).
      if (run.verdict.srh_dirty) {
        auto srh = pkt.srh();
        if (!srh || !srh->tlvs_well_formed()) return PipelineResult::drop();
      }
      switch (run.exec.ret) {
        case ebpf::BPF_OK:
          // Regular FIB lookup on the (possibly rewritten) destination.
          return PipelineResult::cont(0);
        case ebpf::BPF_REDIRECT:
          // The destination set by bpf_lwt_seg6_action must not be
          // overwritten by the default lookup (§3.1).
          if (!pkt.dst().valid) return PipelineResult::drop();
          return PipelineResult::forward();
        case ebpf::BPF_DROP:
        default:
          return PipelineResult::drop();
      }
    }
  }
  return PipelineResult::drop();
}

void seg6local_process_burst(Netns& ns, std::span<net::Packet* const> pkts,
                             const Seg6LocalEntry& entry,
                             ProcessTrace* const* traces,
                             PipelineResult* results) {
  for (std::size_t i = 0; i < pkts.size(); ++i)
    results[i] = seg6local_process(ns, *pkts[i], entry, traces[i]);
}

}  // namespace srv6bpf::seg6
