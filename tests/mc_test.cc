// The multi-core Node subsystem: RSS-sharded CPU contexts, per-CPU eBPF map
// semantics through the live datapath, the deterministic perf-event merge,
// and — the anchor of this file — the ncpus=1 differential: with one context
// the system must be bit-identical to the historical single-core path. The
// golden digests below (delivery counts, payload bytes, an FNV-1a hash over
// every sink delivery's (arrival time, packet seq), service-event counts and
// cumulative pipeline traces) were captured from the pre-multi-core tree
// (PR 2, commit 0592f2d) running the fig2 and hybrid-WRR scenarios of
// tests/burst_test.cc; they are functions of simulated time only, so they
// hold on any host and compiler.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/asm.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "net/burst.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "usecases/programs.h"

#include "saturation_lab.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// FNV-1a over little-endian u64s: the sink-delivery digest.
struct Digest {
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (i * 8)) & 0xff;
      fnv *= 1099511628211ull;
    }
  }
};

// Closes a drained scenario's books: every one of the `offered` packets was
// delivered or dropped with a reason somewhere on S1 - router - S2.
void expect_balanced_ledger(sim::Network& net, std::uint64_t offered,
                            const sim::Node& s1, const sim::Node& router,
                            const sim::Node& s2,
                            const sim::Link& la, const sim::Link& lb) {
  sim::InvariantAuditor auditor;
  auditor.add_source([offered] { return offered; });
  for (const sim::Node* n : {&s1, &router, &s2}) auditor.add_node(*n);
  auditor.add_link(la);
  auditor.add_link(lb);
  auditor.audit(net.now(), /*final_drain=*/true);
  for (const std::string& v : auditor.violations()) ADD_FAILURE() << v;
}

// ---- ncpus=1 differential vs the pre-multi-core tree ------------------------

struct Fig2Result {
  Digest dig;
  sim::NodeStats router;
};

Fig2Result run_fig2(std::size_t burst, std::size_t ncpus) {
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
  r.cpu.ncpus = ncpus;

  auto built = usecases::build_tag_increment();
  auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                built.insns, built.paper_sloc);
  EXPECT_TRUE(load.ok()) << load.verify.error;
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  r.ns().seg6local().add(sid, e);

  apps::AppMux mux(s2);
  Fig2Result res;
  mux.on_udp(7001, [&res](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++res.dig.delivered;
    res.dig.bytes += payload.size();
    res.dig.mix(now);
    res.dig.mix(pkt.seq);
  });

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
    pkt.seq = static_cast<std::uint32_t>(i);
    net.loop().schedule_at(static_cast<sim::TimeNs>(i) * 100,
                           [&s1, p = std::move(pkt)]() mutable {
                             s1.send(std::move(p));
                           });
  }
  net.run_for(sim::kSecond);
  expect_balanced_ledger(net, 100, s1, r, s2, *l1.link, *l2.link);
  res.router = r.stats();
  return res;
}

TEST(Ncpus1Differential, Fig2BitIdenticalToPreMultiCoreTree) {
  // Golden digests from the single-core tree at PR 2 (see file header).
  const Fig2Result b32 = run_fig2(/*burst=*/32, /*ncpus=*/1);
  EXPECT_EQ(b32.dig.delivered, 100u);
  EXPECT_EQ(b32.dig.bytes, 6400u);
  EXPECT_EQ(b32.dig.fnv, 0x1023e722a53e82dbull);
  EXPECT_EQ(b32.router.service_events, 5u);
  EXPECT_EQ(b32.router.tx_packets, 100u);
  EXPECT_EQ(b32.router.pipeline.bpf_runs, 100u);
  EXPECT_EQ(b32.router.pipeline.bpf_insns_jit, 2500u);
  EXPECT_EQ(b32.router.pipeline.helper_calls, 100u);

  const Fig2Result b1 = run_fig2(/*burst=*/1, /*ncpus=*/1);
  EXPECT_EQ(b1.dig.delivered, 100u);
  EXPECT_EQ(b1.dig.fnv, 0x1588f2507da9c6ebull);
  EXPECT_EQ(b1.router.service_events, 100u);
}

// The default Cpu config must *be* the single-core path — nobody should have
// to opt in to the paper's semantics.
TEST(Ncpus1Differential, DefaultNcpusIsOne) {
  sim::Network net;
  auto& n = net.add_node("n");
  EXPECT_EQ(n.cpu.ncpus, 1u);
}

Digest run_hybrid(std::size_t burst, std::size_t ncpus,
                  sim::NodeStats* router_out = nullptr) {
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
  m.cpu.ncpus = ncpus;
  m.ns().bpf().set_jit_enabled(false);

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
  Digest dig;
  mux.on_udp(5201, [&dig](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++dig.delivered;
    dig.bytes += payload.size();
    dig.mix(now);
    dig.mix(pkt.seq);
  });

  for (int i = 0; i < 96; ++i) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.src_port = static_cast<std::uint16_t>(30000 + (i % 5));
    spec.dst_port = 5201;
    spec.payload_size = 400;
    auto pkt = net::make_udp_packet(spec);
    pkt.seq = static_cast<std::uint32_t>(i);
    net.loop().schedule_at(static_cast<sim::TimeNs>(i) * 500,
                           [&s1, p = std::move(pkt)]() mutable {
                             s1.send(std::move(p));
                           });
  }
  net.run_for(sim::kSecond);
  expect_balanced_ledger(net, 96, s1, m, s2, *l0.link, *l1.link);
  if (router_out != nullptr) *router_out = m.stats();
  return dig;
}

TEST(Ncpus1Differential, HybridWrrBitIdenticalToPreMultiCoreTree) {
  sim::NodeStats router;
  const Digest b32 = run_hybrid(/*burst=*/32, /*ncpus=*/1, &router);
  EXPECT_EQ(b32.delivered, 96u);
  EXPECT_EQ(b32.bytes, 38400u);
  EXPECT_EQ(b32.fnv, 0xf73ec5219ddf73caull);
  EXPECT_EQ(router.service_events, 6u);
  EXPECT_EQ(router.pipeline.bpf_runs, 96u);
  EXPECT_EQ(router.pipeline.bpf_insns_interp, 3972u);
  EXPECT_EQ(router.pipeline.helper_calls, 192u);
  EXPECT_EQ(router.pipeline.encaps, 96u);

  const Digest b1 = run_hybrid(/*burst=*/1, /*ncpus=*/1);
  EXPECT_EQ(b1.delivered, 96u);
  EXPECT_EQ(b1.fnv, 0xc45d7846b35cecd9ull);
}

// ---- shared lab for the behaviour tests -------------------------------------

// S1 - R(Xeon CPU model, ncpus configurable) - S2 with plain forwarding
// routes. The golden-digest runners above intentionally keep their own
// verbatim copies of tests/burst_test.cc's setup — the digests pin that
// exact lab, back-routes and all.
struct McLab {
  static constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  sim::Network net;
  sim::Node& s1;
  sim::Node& r;
  sim::Node& s2;
  net::Ipv6Addr a1 = A("fc00:1::1"), r0 = A("fc00:1::2");
  net::Ipv6Addr r1 = A("fc00:2::1"), a2 = A("fc00:2::2");
  net::Ipv6Addr sid = A("fc00:f::1");
  sim::Network::Attachment l1, l2;

  McLab(std::uint64_t seed, std::size_t ncpus)
      : net(seed), s1(net.add_node("S1")), r(net.add_node("R")),
        s2(net.add_node("S2")),
        l1(net.connect(s1, a1, r, r0, kTenGig, 10 * sim::kMicro)),
        l2(net.connect(r, r1, s2, a2, kTenGig, 10 * sim::kMicro)) {
    s1.ns().table(0).add_route(P("::/0"), {r0, l1.a_ifindex, 1});
    r.ns().table(0).add_route(P("fc00:2::/64"),
                              {net::Ipv6Addr{}, l2.a_ifindex, 1});
    s2.ns().table(0).add_route(P("::/0"), {r1, l2.b_ifindex, 1});
    r.cpu.enabled = true;
    r.cpu.profile = sim::kXeonProfile;
    r.cpu.ncpus = ncpus;
  }

  // Installs `prog` as an End.BPF behaviour on `sid` at R.
  void attach_end_bpf(const ebpf::ProgHandle& prog) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = prog;
    r.ns().seg6local().add(sid, e);
  }
};

// ---- RSS steering -----------------------------------------------------------

// Multi-flow traffic through a 4-context router: every flow must stay on one
// context (so packets of one flow can never pass each other), the sink must
// see strictly increasing per-flow sequence numbers, and the load must have
// actually spread over more than one context — otherwise the test proves
// nothing about cross-context behaviour.
TEST(RssSteering, SameFlowNeverReordersAcrossContexts) {
  McLab lab(0x515, /*ncpus=*/4);
  auto& s1 = lab.s1;
  auto& r = lab.r;
  const auto a1 = lab.a1, a2 = lab.a2;

  apps::AppMux mux(lab.s2);
  // flow label -> packet seqs in arrival order at the sink.
  std::map<std::uint32_t, std::vector<std::uint32_t>> arrivals;
  mux.on_udp(7001, [&arrivals](const net::Packet& pkt, const net::UdpHeader&,
                               std::span<const std::uint8_t>, sim::TimeNs) {
    ASSERT_GE(pkt.size(), net::kIpv6HeaderSize);
    const std::uint8_t* p = pkt.data();
    const std::uint32_t fl = (static_cast<std::uint32_t>(p[1] & 0x0f) << 16) |
                             (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
    arrivals[fl].push_back(pkt.seq);
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = a1;
  cfg.spec.dst = a2;
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 2e6;  // well past one Xeon core: queues build, contexts diverge
  cfg.flow_label_spread = 16;
  cfg.start_at = 0;
  cfg.duration = 2 * sim::kMilli;
  apps::TrafGen gen(s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  ASSERT_EQ(r.context_count(), 4u);
  std::size_t active_contexts = 0;
  std::uint64_t serviced = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    serviced += r.cpu_stats(k).serviced_packets;
    if (r.cpu_stats(k).serviced_packets > 0) ++active_contexts;
  }
  EXPECT_GE(active_contexts, 2u) << "RSS must have spread the flows";
  EXPECT_EQ(serviced, r.stats().serviced_packets);

  ASSERT_GT(arrivals.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& [fl, seqs] : arrivals) {
    SCOPED_TRACE("flow label " + std::to_string(fl));
    for (std::size_t i = 1; i < seqs.size(); ++i)
      EXPECT_LT(seqs[i - 1], seqs[i]) << "same-flow reordering at index " << i;
    total += seqs.size();
  }
  EXPECT_GT(total, 100u);
}

// Saturating the same scenario at 1 and 4 contexts: the multi-core node must
// actually forward more — this is the subsystem's raison d'être, asserted in
// simulated time where it is deterministic.
TEST(RssSteering, FourContextsForwardMoreThanOne) {
  auto run = [](std::size_t ncpus) {
    McLab lab(0xabc, ncpus);
    apps::AppMux mux(lab.s2);
    apps::UdpSink sink(mux, 7001);
    apps::TrafGen::Config cfg;
    cfg.spec.src = lab.a1;
    cfg.spec.dst = lab.a2;
    cfg.spec.dst_port = 7001;
    cfg.spec.payload_size = 64;
    cfg.pps = 3e6;
    cfg.burst = 8;
    cfg.flow_label_spread = 64;
    cfg.duration = 20 * sim::kMilli;
    apps::TrafGen gen(lab.s1, cfg);
    gen.start();
    lab.net.run_for(sim::kSecond);
    return sink.packets();
  };
  const std::uint64_t one = run(1);
  const std::uint64_t four = run(4);
  EXPECT_GT(four, one * 3) << "4 contexts must scale >3x on saturated fig2";
}

// The §3.2 End.BPF saturation lab over 64 flow labels, measured over a
// 50 ms window after warm-up: two RSS contexts forward at least 1.4x the
// sink rate of one (each context is its own service clock, so ~2x).
TEST(SaturationGate, TwoContextsForwardAtLeast1p4xOne) {
  auto kpps = [](std::size_t ncpus) {
    testlab::SaturationLab lab;
    lab.r.cpu.ncpus = ncpus;
    lab.add_end_bpf();
    apps::TrafGen::Config cfg = lab.offer(/*through_sid=*/true);
    cfg.flow_label_spread = 64;
    return lab.measure(cfg, 50 * sim::kMilli);
  };
  const double one = kpps(1);
  const double two = kpps(2);
  ASSERT_GT(one, 0.0);
  EXPECT_GE(two / one, 1.4) << one << " kpps -> " << two << " kpps";
}

// ---- per-CPU maps through the live datapath ---------------------------------

// End.BPF per-CPU counter on a 4-context router: each context's map slot
// must count exactly that context's program runs (no cross-context bleed),
// and the user-space summed read must equal the total.
TEST(PerCpuMaps, PerContextValuesAndSummedReads) {
  McLab lab(0x9c9, /*ncpus=*/4);
  auto& r = lab.r;

  auto& bpf = r.ns().bpf();
  ebpf::MapDef def;
  def.type = ebpf::MapType::kPerCpuArray;
  def.key_size = 4;
  def.value_size = 8;
  def.max_entries = 1;
  def.name = "pkt_cnt";
  const std::uint32_t cnt_id = bpf.maps().create(def);
  auto built = usecases::build_percpu_counter(cnt_id);
  auto load = bpf.load(built.name, ebpf::ProgType::kLwtSeg6Local, built.insns,
                       built.paper_sloc);
  ASSERT_TRUE(load.ok()) << load.verify.error;
  lab.attach_end_bpf(load.prog);

  apps::AppMux mux(lab.s2);
  apps::UdpSink sink(mux, 7001);
  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.a1;
  cfg.spec.dst = lab.a2;
  cfg.spec.segments = {lab.sid, lab.a2};
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 400e3;  // under the 4-context capacity: nothing drops
  cfg.flow_label_spread = 32;
  cfg.duration = 5 * sim::kMilli;
  apps::TrafGen gen(lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  ebpf::Map* cnt = bpf.maps().get(cnt_id);
  ASSERT_NE(cnt, nullptr);
  EXPECT_TRUE(cnt->per_cpu());

  const std::uint32_t key0 = 0;
  std::uint64_t summed = 0;
  std::size_t nonzero_cpus = 0;
  for (std::uint32_t c = 0; c < ebpf::kMaxCpus; ++c) {
    const std::uint8_t* v = cnt->find_cpu(key0, c);
    ASSERT_NE(v, nullptr);
    std::uint64_t x;
    std::memcpy(&x, v, 8);
    summed += x;
    if (x > 0) ++nonzero_cpus;
    // Slot c counts exactly context c's program executions.
    const std::uint64_t runs =
        c < r.context_count() ? r.cpu_stats(c).pipeline.bpf_runs : 0;
    EXPECT_EQ(x, runs) << "cpu " << c;
  }
  EXPECT_GE(nonzero_cpus, 2u) << "traffic must have spread across contexts";
  EXPECT_EQ(summed, r.stats().pipeline.bpf_runs);
  EXPECT_EQ(summed, cnt->sum_u64(key0));
  EXPECT_GT(summed, 100u);
}

// ---- perf-event rings under multi-core --------------------------------------

// The documented merge order of the per-CPU rings: a drain pass returns
// context id first, then each ring's own (push) order, regardless of how
// contexts interleaved their pushes.
TEST(PerfEvents, MergeOrderIsContextIdThenRingOrder) {
  ebpf::PerfEventBuffer buf(16);
  // Interleaved across cpus; per-cpu times are monotonic in the simulator
  // (the single-threaded event loop guarantees it) but cross-cpu interleave
  // is arbitrary.
  EXPECT_TRUE(buf.push(30, {}, 2));
  EXPECT_TRUE(buf.push(10, {}, 1));
  EXPECT_TRUE(buf.push(35, {}, 2));
  EXPECT_TRUE(buf.push(40, {}, 0));
  ASSERT_EQ(buf.pending(), 4u);

  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  while (auto rec = buf.poll()) order.emplace_back(rec->cpu, rec->time_ns);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::pair<std::uint32_t, std::uint64_t>{0, 40}));
  EXPECT_EQ(order[1], (std::pair<std::uint32_t, std::uint64_t>{1, 10}));
  EXPECT_EQ(order[2], (std::pair<std::uint32_t, std::uint64_t>{2, 30}));
  EXPECT_EQ(order[3], (std::pair<std::uint32_t, std::uint64_t>{2, 35}));
}

// Ring capacity is per CPU, and drops are counted where they happen.
TEST(PerfEvents, PerCpuRingCapacity) {
  ebpf::PerfEventBuffer buf(2);
  EXPECT_TRUE(buf.push(1, {}, 0));
  EXPECT_TRUE(buf.push(2, {}, 0));
  EXPECT_FALSE(buf.push(3, {}, 0));  // cpu 0 ring full
  EXPECT_TRUE(buf.push(4, {}, 1));   // cpu 1 ring unaffected
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.produced(), 3u);
}

// Records produced from inside the datapath must carry the servicing
// context's id: run a perf-emitting End.BPF program on a 4-context router
// and check every record's cpu against the contexts that actually ran.
TEST(PerfEvents, DatapathRecordsCarryServicingContext) {
  McLab lab(0xfe1, /*ncpus=*/4);
  auto& r = lab.r;

  auto& bpf = r.ns().bpf();
  const std::uint32_t perf_id =
      ebpf::create_perf_event_array(bpf.maps(), "ev", 65536);
  // get_smp_processor_id -> 4-byte record through perf_event_output.
  ebpf::Asm a;
  using namespace ebpf;
  a.mov64_reg(R6, R1)
      .call(helper::GET_SMP_PROCESSOR_ID)
      .stx(BPF_W, R10, R0, -4)
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_id)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -4)
      .mov64_imm(R5, 4)
      .call(helper::PERF_EVENT_OUTPUT)
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  auto load = bpf.load("cpu_tag", ebpf::ProgType::kLwtSeg6Local, a.build());
  ASSERT_TRUE(load.ok()) << load.verify.error;
  lab.attach_end_bpf(load.prog);

  apps::AppMux mux(lab.s2);
  apps::UdpSink sink(mux, 7001);
  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.a1;
  cfg.spec.dst = lab.a2;
  cfg.spec.segments = {lab.sid, lab.a2};
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 400e3;
  cfg.flow_label_spread = 32;
  cfg.duration = 5 * sim::kMilli;
  apps::TrafGen gen(lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  auto* pmap = dynamic_cast<ebpf::PerfEventArrayMap*>(bpf.maps().get(perf_id));
  ASSERT_NE(pmap, nullptr);
  ASSERT_GT(pmap->buffer().pending(), 100u);

  std::vector<std::uint64_t> per_cpu_records(4, 0);
  std::uint32_t last_cpu = 0;
  while (auto rec = pmap->buffer().poll()) {
    ASSERT_LT(rec->cpu, 4u);
    EXPECT_GE(rec->cpu, last_cpu) << "drain must be grouped by context id";
    last_cpu = rec->cpu;
    // The record body is the program's own get_smp_processor_id value: it
    // must match the ring the record landed in.
    ASSERT_EQ(rec->data.size(), 4u);
    std::uint32_t body;
    std::memcpy(&body, rec->data.data(), 4);
    EXPECT_EQ(body, rec->cpu);
    ++per_cpu_records[rec->cpu];
  }
  std::size_t active = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    // One record per program run on that context, no cross-context bleed.
    EXPECT_EQ(per_cpu_records[k], r.cpu_stats(k).pipeline.bpf_runs);
    if (per_cpu_records[k] > 0) ++active;
  }
  EXPECT_GE(active, 2u);
}

}  // namespace
}  // namespace srv6bpf
