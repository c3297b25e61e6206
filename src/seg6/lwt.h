// Lightweight tunnels attached to routes: the seg6 transit behaviours
// (T.Encaps / T.Insert, the `seg6` iproute2 encap type) and route-attached
// BPF programs (the `bpf` encap type with in/out/xmit sections).
#pragma once

#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/fib.h"

namespace srv6bpf::seg6 {

enum class LwtHook { kIn, kOut, kXmit };

// Applies a route's tunnel state to a packet being forwarded by that route.
// Dispositions:
//   kContinue  — the packet was re-encapsulated; re-run the FIB lookup
//   kUseRoute  — no rewrite; proceed with the route's own nexthop
//   kForward   — a BPF program resolved the destination (BPF_REDIRECT)
//   kDrop      — drop
PipelineResult lwt_process(Netns& ns, net::Packet& pkt, const LwtState& lwt,
                           LwtHook hook, ProcessTrace* trace);

}  // namespace srv6bpf::seg6
