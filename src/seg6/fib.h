// IPv6 forwarding information base with ECMP, per routing table.
//
// Longest-prefix-match is backed by the shared multibit-stride trie engine
// (util/lpm_trie.h) — the same engine behind BPF_MAP_TYPE_LPM_TRIE — storing
// route indices as values: a /48 lookup is 6 byte-indexed node hops instead
// of 48 bit tests. Nexthop selection
// for multipath routes uses a 5-tuple flow hash, like the kernel's
// flowlabel/5-tuple ECMP (§4.3's End.OAMP queries these nexthops); a
// single-nexthop route has no choice to make and is never hashed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ebpf/program.h"
#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "util/lpm_trie.h"

namespace srv6bpf::seg6 {

struct Nexthop {
  net::Ipv6Addr via;  // gateway; unspecified (::) means on-link
  int oif = -1;       // egress interface index
  int weight = 1;

  friend bool operator==(const Nexthop&, const Nexthop&) = default;
};

// Lightweight tunnel state attached to a route (seg6 / seg6 inline / BPF).
struct LwtState {
  enum class Kind { kNone, kSeg6Encap, kSeg6Inline, kBpf };
  Kind kind = Kind::kNone;

  // kSeg6Encap / kSeg6Inline: segment list in travel order.
  std::vector<net::Ipv6Addr> segments;

  // kBpf: programs per LWT hook (any may be null).
  ebpf::ProgHandle prog_in;
  ebpf::ProgHandle prog_out;
  ebpf::ProgHandle prog_xmit;
};

// Precomputed SRv6 fast-reroute backup attached to a route (TI-LFA shape):
// when the primary nexthop's egress link is down at forwarding time, the
// point of local repair encapsulates the packet with `segments` (travel
// order — typically a repair End/End.X SID on a neighbor that avoids the
// failed link, then an End.DT6 SID past it that decaps toward the original
// destination) and forwards it out the precomputed backup adjacency `nh`.
// Because everything is computed at route-install time, activation is pure
// datapath — no control-plane round trip, which is the whole point: the
// blackhole lasts one forwarding decision instead of an IGP convergence
// (tests/slo_test.cc's SloSoak tests bound both).
struct FrrBackup {
  std::vector<net::Ipv6Addr> segments;  // repair segment list, travel order
  Nexthop nh;  // backup End.X adjacency; oif < 0 = re-run the FIB lookup on
               // the new outer destination instead of forwarding directly
};

struct Route {
  net::Prefix prefix;
  std::vector<Nexthop> nexthops;       // >1 entries = ECMP
  std::shared_ptr<LwtState> lwt{};     // optional tunnel state
  std::shared_ptr<FrrBackup> frr{};    // optional fast-reroute backup
};

class Fib;

// One-entry route-cache slot, owned by the *caller* (one per CPU context in
// the multi-core Node) rather than by the table: a shared per-table cache
// would be mutable state every context writes on every lookup — exactly the
// cross-core cache-line contention per-CPU data exists to avoid. A slot is
// valid only for the table and mutation generation it recorded, so table
// churn (which may also reallocate the route storage) can never leave a
// dangling Route* behind.
//
// The slot is a layer *above* the stride trie, not a substitute for it: it
// short-circuits the repeated-destination case (consecutive packets to one
// dst pay one trie walk), while the trie keeps multi-destination traffic —
// which defeats any one-entry cache — at O(key bytes) per miss.
struct FibCacheSlot {
  const Fib* fib = nullptr;
  std::uint64_t gen = 0;
  net::Ipv6Addr dst{};
  const Route* route = nullptr;  // negative results cached as nullptr
};

class Fib {
 public:
  void add_route(Route route);
  // Convenience: single-nexthop route.
  void add_route(const net::Prefix& prefix, const Nexthop& nh) {
    add_route(Route{prefix, {nh}, nullptr, nullptr});
  }
  // Withdraws the route for exactly `prefix` (route churn / IGP withdraw).
  // Returns false when no route with that exact prefix exists. Like every
  // mutation this bumps the generation, invalidating all cache slots.
  bool remove_route(const net::Prefix& prefix);
  void clear();

  // Longest-prefix match; nullptr when no route covers `dst`. Consults
  // `slot` first (consecutive packets to one destination walk the trie
  // once); a slot is revalidated against this table's mutation generation.
  // On a slot miss the cost is the stride trie's: at most 16 byte-indexed
  // node hops, typically ceil(prefixlen/8) + 1. The returned Route* is valid
  // until the next table mutation (add_route/remove_route/clear).
  const Route* lookup(const net::Ipv6Addr& dst, FibCacheSlot& slot) const;
  // Legacy entry point backed by a table-internal slot (single-context
  // callers: tests, apps, control-plane code).
  const Route* lookup(const net::Ipv6Addr& dst) const {
    return lookup(dst, own_slot_);
  }

  // Observability for benches/tests: how often lookup() was answered by a
  // one-entry cache slot, summed over every slot (per-context and internal)
  // that queried this table.
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }

  // ECMP selection: picks the nexthop for `flow_hash` using weighted
  // hash-threshold mapping. Requires a non-empty nexthop list.
  static const Nexthop& select_nexthop(const Route& route,
                                       std::uint32_t flow_hash);
  // The forwarding path's entry point: a single-nexthop route returns that
  // nexthop without hashing `pkt` (add_route rejects weights <= 0, so the
  // hash could pick nothing else); a multipath route hashes the packet's
  // flow. Same result as select_nexthop(route, flow_hash(pkt)).
  static const Nexthop& select_nexthop(const Route& route,
                                       const net::Packet& pkt);

  // The live routes, one per prefix, in no particular order.
  std::size_t route_count() const noexcept { return routes_.size(); }
  const std::vector<Route>& routes() const noexcept { return routes_; }

 private:
  // Live routes only, one record per prefix.
  std::vector<Route> routes_;
  // 16 address bytes + prefixlen -> u32 route index, stride-8 LPM engine.
  util::LpmTrie<std::uint32_t> trie_{16};
  // Mutation generation: bumped by every mutation, implicitly
  // invalidating every FibCacheSlot that recorded an older value (and with
  // them any Route* into a since-reallocated routes_).
  std::uint64_t gen_ = 1;
  // Slot behind the legacy lookup(dst); mutable as lookup() is logically
  // const.
  mutable FibCacheSlot own_slot_;
  mutable std::uint64_t cache_hits_ = 0;
};

// 5-tuple flow hash over the *innermost* IPv6+transport headers of a packet
// (so ECMP keeps flows on one path even when encapsulated upstream).
std::uint32_t flow_hash(const net::Packet& pkt);

inline const Nexthop& Fib::select_nexthop(const Route& route,
                                          const net::Packet& pkt) {
  return route.nexthops.size() == 1 ? route.nexthops[0]
                                    : select_nexthop(route, flow_hash(pkt));
}

}  // namespace srv6bpf::seg6
