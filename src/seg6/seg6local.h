// seg6local: SRv6 endpoint behaviours bound to local SIDs.
//
// Mirrors net/ipv6/seg6_local.c. The static behaviours (End, End.X, End.T,
// End.B6, End.B6.Encaps, End.DT6) are implemented in the kernel; End.BPF is
// the paper's contribution: it advances the SRH like End, then hands the
// packet to an eBPF program which may modify SRH flags/tag/TLVs through the
// seg6 helpers, invoke other behaviours via bpf_lwt_seg6_action, and decide
// the packet's fate through its return code (BPF_OK / BPF_DROP /
// BPF_REDIRECT).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/fib.h"

namespace srv6bpf::seg6 {

// Kernel uapi enum seg6_local_action_t values (linux/seg6_local.h).
enum class Seg6Action : std::uint32_t {
  kEnd = 1,
  kEndX = 2,
  kEndT = 3,
  kEndDT6 = 7,
  kEndB6 = 9,
  kEndB6Encaps = 10,
  kEndBPF = 15,
};

struct Seg6LocalEntry {
  Seg6Action action = Seg6Action::kEnd;
  Nexthop nh;                              // End.X
  int table = 0;                           // End.T / End.DT6
  std::vector<net::Ipv6Addr> segments;     // End.B6 / End.B6.Encaps policy
  ebpf::ProgHandle prog;                   // End.BPF
};

// SID -> behaviour table. Hash-based (the kernel uses a hashed route table
// too): the datapath looks every packet up here, where an ordered map's
// 128-bit comparisons per tree level were measurable. Entry references are
// stable across insertions (unordered_map guarantee).
class Seg6LocalTable {
 public:
  void add(const net::Ipv6Addr& sid, Seg6LocalEntry entry) {
    entries_[sid] = std::move(entry);
  }
  const Seg6LocalEntry* lookup(const net::Ipv6Addr& sid) const {
    if (entries_.empty()) return nullptr;
    auto it = entries_.find(sid);
    return it == entries_.end() ? nullptr : &it->second;
  }
  std::size_t size() const noexcept { return entries_.size(); }
  // Drops every SID binding (node crash teardown; the re-installer puts the
  // snapshotted bindings back).
  void clear() { entries_.clear(); }
  // Snapshot access for the control-plane re-installer.
  const std::unordered_map<net::Ipv6Addr, Seg6LocalEntry, net::Ipv6AddrHash>&
  entries() const noexcept {
    return entries_;
  }

 private:
  std::unordered_map<net::Ipv6Addr, Seg6LocalEntry, net::Ipv6AddrHash>
      entries_;
};

// Executes the behaviour on a packet whose IPv6 destination matched `entry`'s
// SID. Updates `trace` and returns the pipeline disposition.
PipelineResult seg6local_process(Netns& ns, net::Packet& pkt,
                                 const Seg6LocalEntry& entry,
                                 ProcessTrace* trace);

// Group entry point: runs seg6local_process over every packet in `pkts` (all
// of which matched `entry`'s SID), in order, writing per-packet dispositions
// into `results[i]` and charging `traces[i]`. The datapath calls
// seg6local_process per packet; this loop serves callers that replay a run
// of packets through one SID (perfbench's probe, tests).
void seg6local_process_burst(Netns& ns, std::span<net::Packet* const> pkts,
                             const Seg6LocalEntry& entry,
                             ProcessTrace* const* traces,
                             PipelineResult* results);

// ---- Behaviour primitives (shared with bpf_lwt_seg6_action) -----------------

// get_and_validate_srh + advance_nextseg: requires a structurally valid SRH
// with segments_left > 0; decrements it and rewrites the IPv6 destination to
// the new current segment. Returns false (caller drops) otherwise.
bool srh_advance(net::Packet& pkt);

// End.DT6 core: removes the outer IPv6 header (and its SRH if present),
// exposing an inner IPv6 packet. Returns false if there is no IPv6-in-IPv6
// encapsulation to remove.
bool seg6_decap(net::Packet& pkt);

// Transit behaviour T.Encaps: pushes an outer IPv6 header + SRH carrying
// `segments` (travel order); outer src is `src`, outer dst the first segment.
bool seg6_do_encap(net::Packet& pkt, std::span<const net::Ipv6Addr> segments,
                   const net::Ipv6Addr& src);

// Transit behaviour T.Insert / End.B6 core: inserts an SRH directly after the
// IPv6 header; the original destination is appended as the final segment.
bool seg6_do_inline(net::Packet& pkt, std::span<const net::Ipv6Addr> segments);

// End.X core: resolve the configured nexthop into pkt.dst() metadata.
bool seg6_end_x(Netns& ns, net::Packet& pkt, const Nexthop& nh,
                ProcessTrace* trace);

}  // namespace srv6bpf::seg6
