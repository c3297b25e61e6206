// Datapath: the forwarding state machine a Node runs on each packet, one
// packet at a time, as Linux runs each skb through seg6local, End.BPF
// (input_action_end_bpf), ip6_forward and lwtunnel_xmit.
//
// The machine, in order:
//   classify   — validate the IPv6 header;
//   pre-lookup — a seg6local SID match runs the behaviour
//                (seg6local_process; an End.BPF program runs on the packet);
//                a local address delivers; anything else goes to the FIB.
//                This lookup does not use up a round;
//   rounds     — at most four: settle a drop, local or forward verdict, or
//                resolve the (possibly rewritten) destination again —
//                seg6local SID, local address, then the FIB table's route
//                through the servicing context's one-entry FibCacheSlot
//                (backed by the multibit-stride LPM trie,
//                util/lpm_trie.h), its route-attached tunnel (lwt_process)
//                and its nexthop (ECMP by flow hash, TI-LFA fast reroute
//                when the egress link is down). Encapsulations and
//                rewritten destinations come back for another round; the
//                bound defeats routing loops inside one node, and a packet
//                still in flight after the last round drops as no-route;
//   tx-prep    — hop-limit handling and the verdict/oif metadata; the Node
//                then groups a burst's forwards per egress interface and
//                hands them to Link::transmit_burst.
//
// A burst is the Node's loop over this machine, so packets run in arrival
// order whatever Cpu::rx_burst is: every eBPF program, map update and
// lookup of packet i happens before any of packet i+1 (tests/burst_test.cc
// checks it with two programs sharing one map).
//
// The machine keeps no state between calls: processing can re-enter it
// (ICMP generation, local handlers that send).
#pragma once

#include "net/burst.h"
#include "seg6/ctx.h"

namespace srv6bpf::sim {

class Node;

class Datapath {
 public:
  explicit Datapath(Node& node) : node_(node) {}

  // Runs `pkt` through the machine: writes its verdict (and oif for a
  // forward) into `meta` and its cost trace into `trace`, and folds the
  // trace into the current context's stats. `local_out` marks a locally
  // originated packet (no seg6local pre-lookup, no hop-limit decrement).
  void process(net::Packet& pkt, net::BurstSlotMeta& meta, bool local_out,
               seg6::ProcessTrace& trace);

 private:
  net::BurstVerdict decide(net::Packet& pkt, net::BurstSlotMeta& meta,
                           bool local_out, seg6::ProcessTrace& trace);

  Node& node_;
};

}  // namespace srv6bpf::sim
