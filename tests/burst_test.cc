// The vector datapath: PacketBurst mechanics, the hot-path satellite
// structures (SID hash table, FIB route cache, bounds-checked interface
// lookup) and — the heart of this file — burst-vs-sequential differential
// tests: the fig2 (End.BPF on a Xeon router) and fig4-hybrid (WRR eBPF
// encap on the Turris CPE) scenarios must deliver identical packet counts,
// cumulative pipeline traces and final NodeStats at burst sizes {1, 8, 32};
// a mixed scenario (forwards, ECMP, End, TTL, no-route, malformed, local)
// must produce identical per-packet outcomes at burst sizes {1, 2, 3, 17,
// 64}; and an End.BPF program and an LWT-BPF program sharing one map must
// run in packet order (A0 B0 A1 B1 ...) at every burst size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/sink.h"
#include "ebpf/asm.h"
#include "net/burst.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- PacketBurst ------------------------------------------------------------

TEST(PacketBurst, PushSizeClear) {
  net::PacketBurst b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), net::kMaxBurstPackets);
  for (std::size_t i = 0; i < b.capacity(); ++i) {
    net::PacketSpec spec;
    spec.src = A("fc00::1");
    spec.dst = A("fc00::2");
    EXPECT_TRUE(b.push(net::make_udp_packet(spec), /*at_ns=*/i));
  }
  EXPECT_TRUE(b.full());
  net::PacketSpec spec;
  spec.src = A("fc00::1");
  spec.dst = A("fc00::2");
  net::Packet extra = net::make_udp_packet(spec);
  EXPECT_FALSE(b.push(std::move(extra)));
  EXPECT_EQ(b.size(), b.capacity());
  EXPECT_EQ(b.meta(5).at_ns, 5u);
  EXPECT_EQ(b.meta(5).verdict, net::BurstVerdict::kPending);
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(PacketBurst, DefaultPacketIsEmptyAndGrowable) {
  net::Packet p;
  EXPECT_EQ(p.size(), 0u);
  std::uint8_t* base = p.push_front(40);
  std::memset(base, 0, 40);
  EXPECT_EQ(p.size(), 40u);
}

// ---- satellite structures ---------------------------------------------------

TEST(Ipv6AddrHash, DistinguishesAndAgrees) {
  net::Ipv6AddrHash h;
  EXPECT_EQ(h(A("fc00::1")), h(A("fc00::1")));
  EXPECT_NE(h(A("fc00::1")), h(A("fc00::2")));
  EXPECT_NE(h(A("fc00::1")), h(A("1::fc00")));
}

TEST(Seg6LocalTable, HashTableLookup) {
  seg6::Seg6LocalTable t;
  EXPECT_EQ(t.lookup(A("fc00::1")), nullptr);
  for (int i = 1; i <= 64; ++i) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEnd;
    e.table = i;
    t.add(A(("fc00:ab::" + std::to_string(i)).c_str()), e);
  }
  EXPECT_EQ(t.size(), 64u);
  // to_string(23) names the hex group "23"; the entry stores decimal 23.
  const seg6::Seg6LocalEntry* e = t.lookup(A("fc00:ab::23"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->table, 23);
  EXPECT_EQ(t.lookup(A("fc00:ab::ffff")), nullptr);
}

TEST(Fib, OneEntryRouteCacheHitsAndInvalidates) {
  seg6::Fib fib;
  fib.add_route(P("fc00::/16"), {A("fe80::1"), 1, 1});
  const seg6::Route* r1 = fib.lookup(A("fc00:1::5"));
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(fib.cache_hits(), 0u);
  EXPECT_EQ(fib.lookup(A("fc00:1::5")), r1);
  EXPECT_EQ(fib.cache_hits(), 1u);

  // A mutation must invalidate: the more specific route wins afterwards.
  fib.add_route(P("fc00:1::/32"), {A("fe80::2"), 2, 1});
  const seg6::Route* r2 = fib.lookup(A("fc00:1::5"));
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->nexthops[0].oif, 2);
  EXPECT_EQ(fib.cache_hits(), 1u);

  // Negative results are cached too, and survive only until a mutation.
  EXPECT_EQ(fib.lookup(A("dead::1")), nullptr);
  EXPECT_EQ(fib.lookup(A("dead::1")), nullptr);
  EXPECT_EQ(fib.cache_hits(), 2u);
  fib.clear();
  EXPECT_EQ(fib.lookup(A("fc00:1::5")), nullptr);
}

TEST(Node, InterfaceAddrBoundsChecked) {
  sim::Network net;
  auto& a = net.add_node("a");
  auto& b = net.add_node("b");
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1'000'000'000ull,
                       sim::kMilli);
  EXPECT_EQ(a.interface_addr(l.a_ifindex), A("fc00:1::1"));
  EXPECT_THROW(a.interface_addr(-1), std::out_of_range);
  EXPECT_THROW(a.interface_addr(7), std::out_of_range);
}

// ---- burst-vs-sequential differential ---------------------------------------

struct RunResult {
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  sim::NodeStats router;  // the CPU-modelled device under test
  sim::NodeStats sink_node;
};

void expect_same(const RunResult& a, const RunResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);

  const sim::NodeStats& x = a.router;
  const sim::NodeStats& y = b.router;
  EXPECT_EQ(x.rx_packets, y.rx_packets);
  EXPECT_EQ(x.tx_packets, y.tx_packets);
  EXPECT_EQ(x.local_delivered, y.local_delivered);
  EXPECT_EQ(x.drops_rx_queue, y.drops_rx_queue);
  EXPECT_EQ(x.drops_no_route, y.drops_no_route);
  EXPECT_EQ(x.drops_ttl, y.drops_ttl);
  EXPECT_EQ(x.drops_verdict, y.drops_verdict);
  EXPECT_EQ(x.drops_malformed, y.drops_malformed);
  EXPECT_EQ(x.icmp_time_exceeded_sent, y.icmp_time_exceeded_sent);
  EXPECT_EQ(x.serviced_packets, y.serviced_packets);
  for (std::size_t k = 0; k < sim::kDropReasonCount; ++k)
    EXPECT_EQ(x.first_drop_ns[k], y.first_drop_ns[k]) << "drop reason " << k;
  // The cumulative per-packet traces: what the pipeline actually did.
  EXPECT_TRUE(x.pipeline == y.pipeline);

  EXPECT_EQ(a.sink_node.local_delivered, b.sink_node.local_delivered);
  EXPECT_EQ(a.sink_node.rx_packets, b.sink_node.rx_packets);
}

// Closes a scenario's books once the network has drained: every packet it
// offered (sent, injected, or an ICMP a router originated) was delivered or
// dropped with a reason.
void expect_balanced_ledger(sim::InvariantAuditor& auditor, sim::TimeNs now,
                            std::size_t burst) {
  auditor.audit(now, /*final_drain=*/true);
  for (const std::string& v : auditor.violations())
    ADD_FAILURE() << "burst " << burst << ": " << v;
}

// fig2-style: S1 - R(Xeon, End.BPF Tag++) - S2; a 100-packet clump arrives
// back-to-back, queues in R's RX ring and drains in bursts.
RunResult run_fig2_scenario(std::size_t burst) {
  sim::Network net(0xbead);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const auto a1 = A("fc00:1::1"), r0 = A("fc00:1::2");
  const auto r1 = A("fc00:2::1"), a2 = A("fc00:2::2");
  const auto sid = A("fc00:f::1");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(s1, a1, r, r0, kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(r, r1, s2, a2, kTenGig, 10 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {r0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:2::/64"), {net::Ipv6Addr{}, l2.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:1::/64"), {net::Ipv6Addr{}, l1.b_ifindex, 1});
  s2.ns().table(0).add_route(P("::/0"), {r1, l2.b_ifindex, 1});

  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.rx_burst = burst;

  auto built = usecases::build_tag_increment();
  auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                built.insns, built.paper_sloc);
  EXPECT_TRUE(load.ok()) << load.verify.error;
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  r.ns().seg6local().add(sid, e);

  apps::AppMux mux(s2);
  apps::UdpSink sink(mux, 7001);

  for (int i = 0; i < 100; ++i) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.segments = {sid, a2};
    spec.srh_tag = static_cast<std::uint16_t>(i);
    spec.src_port = static_cast<std::uint16_t>(9000 + (i % 7));
    spec.dst_port = 7001;
    spec.payload_size = 64;
    auto pkt = net::make_udp_packet(spec);
    net.loop().schedule_at(static_cast<sim::TimeNs>(i) * 100,
                           [&s1, p = std::move(pkt)]() mutable {
                             s1.send(std::move(p));
                           });
  }
  net.run_for(sim::kSecond);  // drain completely
  sim::InvariantAuditor auditor;
  auditor.add_source([] { return 100u; });
  for (const sim::Node* n : {&s1, &r, &s2}) auditor.add_node(*n);
  auditor.add_link(*l1.link);
  auditor.add_link(*l2.link);
  expect_balanced_ledger(auditor, net.now(), burst);

  RunResult res;
  res.delivered = sink.packets();
  res.delivered_bytes = sink.payload_bytes();
  res.router = r.stats();
  res.sink_node = s2.stats();
  return res;
}

TEST(BurstDifferential, Fig2EndBpfIdenticalAcrossBurstSizes) {
  const RunResult b1 = run_fig2_scenario(1);
  const RunResult b8 = run_fig2_scenario(8);
  const RunResult b32 = run_fig2_scenario(32);

  EXPECT_EQ(b1.delivered, 100u);
  EXPECT_EQ(b1.router.total_drops(), 0u);
  EXPECT_EQ(b1.router.pipeline.bpf_runs, 100u);
  expect_same(b1, b8, "burst 8 vs 1");
  expect_same(b1, b32, "burst 32 vs 1");

  // Bursts must actually have formed (the clump outpaces the Xeon service
  // rate), otherwise this test proves nothing.
  const RunResult again = run_fig2_scenario(32);
  EXPECT_EQ(again.router.serviced_packets, 100u);
  EXPECT_LT(again.router.service_events, 100u / 2);
}

// fig4-hybrid-style: S1 - M(Turris, interpreter, WRR eBPF encap) - S2 with
// two End.DT6 decap SIDs on S2 — the paper's §4.2 datapath with the CPE's
// CPU as the bottleneck.
RunResult run_hybrid_scenario(std::size_t burst) {
  sim::Network net(0x7777);
  auto& s1 = net.add_node("S1");
  auto& m = net.add_node("M");
  auto& s2 = net.add_node("S2");
  const auto a1 = A("fd01:1::1"), m0 = A("fd01:1::2");
  const auto m1 = A("fd01:2::1"), a2 = A("fd01:2::2");
  const auto d1 = A("fd01:5e::d1"), d2 = A("fd01:5e::d2");
  const std::uint64_t kGig = 1000ull * 1000 * 1000;
  auto l0 = net.connect(s1, a1, m, m0, kGig, 100 * sim::kMicro);
  auto l1 = net.connect(m, m1, s2, a2, kGig, 100 * sim::kMicro);

  s1.ns().table(0).add_route(P("::/0"), {m0, l0.a_ifindex, 1});
  m.ns().table(0).add_route(P("fd01:1::/64"), {net::Ipv6Addr{}, l0.b_ifindex, 1});
  m.ns().table(0).add_route(P("fd01:5e::/64"), {net::Ipv6Addr{}, l1.a_ifindex, 1});
  s2.ns().table(0).add_route(P("::/0"), {m1, l1.b_ifindex, 1});

  m.cpu.enabled = true;
  m.cpu.profile = sim::kTurrisProfile;
  m.cpu.rx_burst = burst;
  m.ns().bpf().set_jit_enabled(false);  // ARM32 JIT bug (§4.2)

  // WRR LWT program on M for the S2 prefix, scheduling across the two
  // decap SIDs with weights 5:3 (as in Fig4Lab's kEbpfWrr mode).
  {
    auto& bpf = m.ns().bpf();
    ebpf::MapDef def;
    def.type = ebpf::MapType::kArray;
    def.key_size = 4;
    def.value_size = sizeof(usecases::WrrConfig);
    def.max_entries = 1;
    def.name = "wrr_cfg";
    const std::uint32_t cfg_id = bpf.maps().create(def);
    usecases::WrrConfig cfg;
    cfg.weight1 = 5;
    cfg.weight2 = 3;
    std::memcpy(cfg.sid1, d1.bytes().data(), 16);
    std::memcpy(cfg.sid2, d2.bytes().data(), 16);
    bpf.maps().get(cfg_id)->put(std::uint32_t{0}, cfg);
    auto built = usecases::build_wrr(cfg_id);
    auto load = bpf.load(built.name, ebpf::ProgType::kLwtXmit, built.insns,
                         built.paper_sloc);
    EXPECT_TRUE(load.ok()) << load.verify.error;
    auto lwt = std::make_shared<seg6::LwtState>();
    lwt->kind = seg6::LwtState::Kind::kBpf;
    lwt->prog_xmit = load.prog;
    m.ns().table(0).add_route({P("fd01:2::/64"), {}, lwt});
  }
  for (const auto& sid : {d1, d2}) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndDT6;
    e.table = 0;
    s2.ns().seg6local().add(sid, e);
  }

  apps::AppMux mux(s2);
  apps::UdpSink sink(mux, 5201);

  for (int i = 0; i < 96; ++i) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.src_port = static_cast<std::uint16_t>(30000 + (i % 5));
    spec.dst_port = 5201;
    spec.payload_size = 400;
    auto pkt = net::make_udp_packet(spec);
    net.loop().schedule_at(static_cast<sim::TimeNs>(i) * 500,
                           [&s1, p = std::move(pkt)]() mutable {
                             s1.send(std::move(p));
                           });
  }
  net.run_for(sim::kSecond);
  sim::InvariantAuditor auditor;
  auditor.add_source([] { return 96u; });
  for (const sim::Node* n : {&s1, &m, &s2}) auditor.add_node(*n);
  auditor.add_link(*l0.link);
  auditor.add_link(*l1.link);
  expect_balanced_ledger(auditor, net.now(), burst);

  RunResult res;
  res.delivered = sink.packets();
  res.delivered_bytes = sink.payload_bytes();
  res.router = m.stats();
  res.sink_node = s2.stats();
  return res;
}

TEST(BurstDifferential, HybridWrrIdenticalAcrossBurstSizes) {
  const RunResult b1 = run_hybrid_scenario(1);
  const RunResult b8 = run_hybrid_scenario(8);
  const RunResult b32 = run_hybrid_scenario(32);

  EXPECT_EQ(b1.delivered, 96u);
  EXPECT_EQ(b1.router.pipeline.bpf_runs, 96u);
  EXPECT_GT(b1.router.pipeline.bpf_insns_interp, 0u);
  EXPECT_EQ(b1.router.pipeline.bpf_insns_jit, 0u);
  EXPECT_GT(b1.router.pipeline.encaps, 0u);
  expect_same(b1, b8, "burst 8 vs 1");
  expect_same(b1, b32, "burst 32 vs 1");

  const RunResult again = run_hybrid_scenario(32);
  EXPECT_LT(again.router.service_events, 96u / 2);
}

// Every kind of per-packet fate in one clump, interleaved so that each
// burst mixes them: S1 - R(Xeon) = S2, with two parallel R-S2 links.
//   0 forward on a single-nexthop route      3 no route (dropped at R)
//   1 forward on a two-leg ECMP route        4 addressed to R (local)
//   2 hop limit 1 (dropped, ICMP to S1)      5 End SID on R, then forward
//   6 malformed (not IPv6), injected straight into R's RX ring
// Outcome per packet: which node's stack received which bytes. (Not when:
// a link delivers a coalesced burst in one event, so a node without a CPU
// model hands its packets up at the burst's last arrival. The burst-
// invariant clocks are the first-drop timestamps expect_same compares.)
using Outcome = std::pair<int, std::uint64_t>;

struct MixedResult {
  RunResult run;
  std::vector<Outcome> outcomes;  // sorted
};

MixedResult run_mixed_scenario(std::size_t burst) {
  sim::Network net(0x3150);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const auto a1 = A("fc00:1::1"), r0 = A("fc00:1::2");
  const auto r1 = A("fc00:2::1"), a2 = A("fc00:2::2");
  const auto r2 = A("fc00:3::1"), a3 = A("fc00:3::2");
  const auto ecmp_dst = A("fc00:4::9"), sid = A("fc00:f::2");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(s1, a1, r, r0, kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(r, r1, s2, a2, kTenGig, 10 * sim::kMicro);
  auto l3 = net.connect(r, r2, s2, a3, kTenGig, 10 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {r0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:1::/64"), {net::Ipv6Addr{}, l1.b_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:2::/64"), {net::Ipv6Addr{}, l2.a_ifindex, 1});
  r.ns().table(0).add_route(
      {P("fc00:4::/64"), {{a2, l2.a_ifindex, 1}, {a3, l3.a_ifindex, 2}}});
  s2.ns().table(0).add_route(P("::/0"), {r1, l2.b_ifindex, 1});
  s2.ns().add_local_addr(ecmp_dst);
  seg6::Seg6LocalEntry end;
  end.action = seg6::Seg6Action::kEnd;
  r.ns().seg6local().add(sid, end);

  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.rx_burst = burst;

  MixedResult res;
  auto record = [&res](int node) {
    return [&res, node](net::Packet&& p, sim::TimeNs) {
      std::uint64_t fnv = 1469598103934665603ull;
      for (const std::uint8_t x : p.bytes()) {
        fnv ^= x;
        fnv *= 1099511628211ull;
      }
      res.outcomes.emplace_back(node, fnv);
    };
  };
  s1.set_local_handler(record(1));
  r.set_local_handler(record(2));
  s2.set_local_handler(record(3));

  for (int i = 0; i < 210; ++i) {
    const int kind = i % 7;
    const sim::TimeNs at = static_cast<sim::TimeNs>(i) * 100;
    if (kind == 6) {
      std::vector<std::uint8_t> bad(48, static_cast<std::uint8_t>(i));
      bad[0] = 0x45;  // IPv4 version nibble
      net.loop().schedule_at(
          at, [&r, in = l1.b_ifindex,
               p = net::Packet{std::span<const std::uint8_t>(bad)}]() mutable {
            r.receive_from_link(std::move(p), in);
          });
      continue;
    }
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.src_port = static_cast<std::uint16_t>(9000 + i);
    spec.payload_size = 32 + static_cast<std::size_t>(i % 5);
    if (kind == 1) spec.dst = ecmp_dst;
    if (kind == 2) spec.hop_limit = 1;
    if (kind == 3) spec.dst = A("fd99::1");
    if (kind == 4) spec.dst = r0;
    if (kind == 5) spec.segments = {sid, a2};
    net.loop().schedule_at(at, [&s1, p = net::make_udp_packet(spec)]() mutable {
      s1.send(std::move(p));
    });
  }
  net.run_for(sim::kSecond);
  sim::InvariantAuditor auditor;  // 180 sent by S1, 30 injected into R
  auditor.add_source([] { return 210u; });
  for (const sim::Node* n : {&s1, &r, &s2}) auditor.add_node(*n);
  for (const auto* l : {&l1, &l2, &l3}) auditor.add_link(*l->link);
  expect_balanced_ledger(auditor, net.now(), burst);

  std::sort(res.outcomes.begin(), res.outcomes.end());
  res.run.delivered = s2.stats().local_delivered;
  res.run.router = r.stats();
  res.run.sink_node = s2.stats();
  return res;
}

TEST(BurstDifferential, MixedFatesIdenticalPerPacketAcrossBurstSizes) {
  const MixedResult b1 = run_mixed_scenario(1);
  const sim::NodeStats& x = b1.run.router;
  EXPECT_EQ(x.rx_packets, 210u);
  EXPECT_EQ(x.drops_ttl, 30u);
  EXPECT_EQ(x.drops_no_route, 30u);
  EXPECT_EQ(x.drops_malformed, 30u);
  EXPECT_EQ(x.local_delivered, 30u);
  EXPECT_EQ(x.icmp_time_exceeded_sent, 30u);
  EXPECT_EQ(x.tx_packets, 90u + 30u);  // forwards + ICMP replies
  EXPECT_EQ(b1.run.delivered, 90u);
  EXPECT_EQ(b1.outcomes.size(), 30u + 30u + 90u);

  for (const std::size_t burst : {2u, 3u, 17u, 64u}) {
    const MixedResult bn = run_mixed_scenario(burst);
    const std::string what = "burst " + std::to_string(burst) + " vs 1";
    expect_same(b1.run, bn.run, what.c_str());
    EXPECT_EQ(bn.run.router.drops_malformed, x.drops_malformed) << what;
    EXPECT_TRUE(bn.outcomes == b1.outcomes) << what;
    if (burst == 64) {  // bursts must actually form, or nothing is tested
      EXPECT_LT(bn.run.router.service_events, 210u / 4);
    }
  }
}

// The WRR schedule itself (map counter state) must be order-preserving:
// grouping may never reorder program executions. Distribution across the
// two decap SIDs is 5:3 over every 8-packet cycle regardless of burst size.
TEST(BurstDifferential, WrrScheduleOrderPreserved) {
  const RunResult a = run_hybrid_scenario(1);
  const RunResult b = run_hybrid_scenario(64);
  EXPECT_EQ(a.router.pipeline.helper_calls, b.router.pipeline.helper_calls);
  EXPECT_EQ(a.router.pipeline.bpf_insns_interp,
            b.router.pipeline.bpf_insns_interp);
}

// An eBPF program that appends (mark << 16 | the packet's SRH tag) to `log`,
// an array map whose slot 0 is the cursor and slots 1.. the entries.
std::vector<ebpf::Insn> build_logger(std::uint32_t log, std::int32_t mark) {
  using namespace ebpf;
  Asm a;
  a.ldx(BPF_DW, R7, R1, 0)   // data
      .ldx(BPF_DW, R8, R1, 8)  // data_end
      .mov64_reg(R2, R7)
      .add64_imm(R2, 48)       // IPv6 (40) + SRH fixed part (8)
      .jgt_reg(R2, R8, "out")
      .ldx(BPF_H, R9, R7, 46)  // SRH tag, network order
      .to_be(R9, 16)
      .or64_imm(R9, mark << 16)
      .st(BPF_W, R10, -4, 0)
      .ld_map(R1, log)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "out")
      .ldx(BPF_W, R1, R0, 0)   // cursor
      .add64_imm(R1, 1)
      .stx(BPF_W, R0, R1, 0)
      .stx(BPF_W, R10, R1, -4)  // key = new cursor
      .ld_map(R1, log)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "out")
      .stx(BPF_W, R0, R9, 0)
      .label("out")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  return a.build();
}

struct LogResult {
  std::vector<std::uint32_t> log;
  std::uint64_t service_events = 0;
};

// S1 - R(Xeon) - S2. On R, End.BPF SID program A advances each packet to
// S2, whose route carries LWT-BPF xmit program B; both log into one map.
// 40 packets arrive back-to-back and drain in bursts of `burst`.
LogResult run_shared_map_scenario(std::size_t burst) {
  constexpr int kPackets = 40;
  sim::Network net(0x10a6);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const auto a1 = A("fc00:1::1"), r0 = A("fc00:1::2");
  const auto r1 = A("fc00:2::1"), a2 = A("fc00:2::2");
  const auto sid = A("fc00:f::1");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(s1, a1, r, r0, kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(r, r1, s2, a2, kTenGig, 10 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {r0, l1.a_ifindex, 1});

  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.rx_burst = burst;

  auto& bpf = r.ns().bpf();
  ebpf::MapDef def;
  def.type = ebpf::MapType::kArray;
  def.key_size = 4;
  def.value_size = 4;
  def.max_entries = 1 + 2 * kPackets;
  def.name = "order_log";
  const std::uint32_t log = bpf.maps().create(def);
  auto prog_a = bpf.load("log_a", ebpf::ProgType::kLwtSeg6Local,
                         build_logger(log, 0xa), 0);
  auto prog_b = bpf.load("log_b", ebpf::ProgType::kLwtXmit,
                         build_logger(log, 0xb), 0);
  EXPECT_TRUE(prog_a.ok()) << prog_a.verify.error;
  EXPECT_TRUE(prog_b.ok()) << prog_b.verify.error;
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = prog_a.prog;
  r.ns().seg6local().add(sid, e);
  auto lwt = std::make_shared<seg6::LwtState>();
  lwt->kind = seg6::LwtState::Kind::kBpf;
  lwt->prog_xmit = prog_b.prog;
  r.ns().table(0).add_route(
      {P("fc00:2::/64"), {{net::Ipv6Addr{}, l2.a_ifindex, 1}}, lwt});

  for (int i = 0; i < kPackets; ++i) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.segments = {sid, a2};
    spec.srh_tag = static_cast<std::uint16_t>(i);
    spec.payload_size = 64;
    net.loop().schedule_at(static_cast<sim::TimeNs>(i) * 100,
                           [&s1, p = net::make_udp_packet(spec)]() mutable {
                             s1.send(std::move(p));
                           });
  }
  net.run_for(sim::kSecond);
  sim::InvariantAuditor auditor;
  auditor.add_source([] { return static_cast<std::uint64_t>(kPackets); });
  for (const sim::Node* n : {&s1, &r, &s2}) auditor.add_node(*n);
  auditor.add_link(*l1.link);
  auditor.add_link(*l2.link);
  expect_balanced_ledger(auditor, net.now(), burst);
  EXPECT_EQ(s2.stats().local_delivered, static_cast<std::uint64_t>(kPackets));

  LogResult res;
  ebpf::Map* m = bpf.maps().get(log);
  std::uint32_t cursor = 0;
  std::memcpy(&cursor, m->find(std::uint32_t{0}), sizeof cursor);
  for (std::uint32_t k = 1; k <= cursor && k < def.max_entries; ++k) {
    std::uint32_t v = 0;
    std::memcpy(&v, m->find(k), sizeof v);
    res.log.push_back(v);
  }
  res.service_events = r.stats().service_events;
  return res;
}

TEST(BurstDifferential, ProgramsSharingAMapRunInPacketOrderAtEveryBurstSize) {
  const LogResult b1 = run_shared_map_scenario(1);
  ASSERT_EQ(b1.log.size(), 80u);
  for (std::uint32_t i = 0; i < 40; ++i) {  // A0 B0 A1 B1 ...
    EXPECT_EQ(b1.log[2 * i], 0xa0000u | i) << "entry " << 2 * i;
    EXPECT_EQ(b1.log[2 * i + 1], 0xb0000u | i) << "entry " << 2 * i + 1;
  }
  for (const std::size_t burst : {2u, 17u, 64u}) {
    const LogResult bn = run_shared_map_scenario(burst);
    EXPECT_TRUE(bn.log == b1.log) << "burst " << burst << " vs 1";
    // Bursts must actually form, or nothing is tested.
    EXPECT_LE(bn.service_events, 40u / 2 + 1) << "burst " << burst;
  }
}

}  // namespace
}  // namespace srv6bpf
