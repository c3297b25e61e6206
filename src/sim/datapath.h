// Datapath: the explicit staged forwarding pipeline a Node runs over packet
// bursts.
//
// Stages, in order:
//   classify   — validate, then run-group packets by IPv6 destination and
//                resolve each group's fate once: seg6local SID match, local
//                delivery, or FIB continuation;
//   seg6local  — one SID-table hit per group, then the behaviour per packet
//                (seg6local_process_burst); an End.BPF program runs once per
//                packet, as the kernel's input_action_end_bpf does per skb;
//   lwt + fib  — disposition rounds: route lookups per (dst, table) group
//                through the servicing context's one-entry FibCacheSlot,
//                backed by the multibit-stride LPM trie on miss
//                (util/lpm_trie.h), route-attached tunnels via lwt_process
//                per packet, ECMP nexthop selection per packet;
//   tx-prep    — hop-limit handling and per-packet verdict/oif metadata;
//                the Node then groups forwards per egress interface and
//                hands them to Link::transmit_burst.
//
// Per-packet semantics are bit-identical to the former single-packet
// Node::process() state machine (the burst differential test enforces it);
// bursts only amortise lookups and event-loop traffic.
//
// The pipeline is deliberately stateless between calls: processing can
// re-enter it (ICMP generation, local handlers that send), so all per-burst
// scratch lives on the caller's stack.
#pragma once

#include <cstddef>

#include "net/burst.h"
#include "seg6/ctx.h"

namespace srv6bpf::sim {

class Node;

class Datapath {
 public:
  explicit Datapath(Node& node) : node_(node) {}

  // Runs the stages over `burst`, writing per-packet verdict/oif/timestamps
  // into the burst metadata and per-packet cost traces into `traces`, which
  // must have room for burst.size() entries. `local_out` marks locally
  // originated packets (no seg6local classify, no hop-limit decrement).
  void process_burst(net::PacketBurst& burst, bool local_out,
                     seg6::ProcessTrace* traces);

 private:
  Node& node_;
};

}  // namespace srv6bpf::sim
