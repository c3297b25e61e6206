// Tests for the latency-SLO observability layer: HdrHistogram bucketing and
// merge algebra, LatencyTracer classification, drop-reason timestamps,
// RateMeter inter-arrival reporting, netem loss/jitter determinism, and the
// failure/churn machinery (link down/up, route withdraw, SRv6 fast-reroute,
// reconvergence clock), and the SLO soak gates: FRR vs IGP failover
// blackholes and tails, the netem loss/jitter bounds, and a zero-allocation
// delivery path (this binary compiles tests/alloc_hooks_impl.cc).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/packet.h"
#include "seg6/fib.h"
#include "seg6/seg6local.h"
#include "sim/latency_tracer.h"
#include "sim/netem.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/stats.h"
#include "util/alloc_hooks.h"
#include "util/hdr_histogram.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- HdrHistogram ----------------------------------------------------------

TEST(HdrHistogram, ExactBelowSubBucketRange) {
  util::HdrHistogram h;
  // Values below 2^kSubBits land in their own slot: quantiles are exact.
  for (std::uint64_t v = 0; v < util::HdrHistogram::kSubCount; ++v)
    h.record(v);
  EXPECT_EQ(h.count(), util::HdrHistogram::kSubCount);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), util::HdrHistogram::kSubCount - 1);
  EXPECT_EQ(h.quantile(0.5), util::HdrHistogram::kSubCount / 2 - 1);
  EXPECT_EQ(h.quantile(1.0), util::HdrHistogram::kSubCount - 1);
}

TEST(HdrHistogram, KnownDistributionQuantiles) {
  util::HdrHistogram h;
  // 99 observations of 10, one of 50: p50 = 10, p99 = 10, p100 = 50.
  h.record_n(10, 99);
  h.record(50);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.p50(), 10u);
  EXPECT_EQ(h.p99(), 10u);
  EXPECT_EQ(h.quantile(1.0), 50u);
  EXPECT_DOUBLE_EQ(h.mean(), (99 * 10 + 50) / 100.0);
}

TEST(HdrHistogram, RelativeErrorBounded) {
  // Every value's bucket upper bound is within 1/2^(kSubBits-1) of it.
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (i % 40);
    const std::size_t slot = util::HdrHistogram::slot_index(v);
    const std::uint64_t ub = util::HdrHistogram::slot_upper_bound(slot);
    ASSERT_GE(ub, v);
    // Bucket width relative to value: <= 2^-(kSubBits-1).
    ASSERT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) /
                      (util::HdrHistogram::kSubCount / 2) +
                  1.0)
        << "v=" << v;
  }
}

TEST(HdrHistogram, SlotRoundTripsAtBoundaries) {
  for (unsigned shift = 0; shift < 63; ++shift) {
    const std::uint64_t v = 1ull << shift;
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}}) {
      const std::uint64_t x = v + d;
      const std::size_t slot = util::HdrHistogram::slot_index(x);
      EXPECT_GE(util::HdrHistogram::slot_upper_bound(slot), x);
      if (slot > 0) {
        EXPECT_LT(util::HdrHistogram::slot_upper_bound(slot - 1), x);
      }
    }
  }
  EXPECT_LT(util::HdrHistogram::slot_index(~0ull),
            util::HdrHistogram::kSlots);
}

TEST(HdrHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(42);
  util::HdrHistogram a, b, c;
  for (int i = 0; i < 5000; ++i) a.record(rng.next_u64() % 1000000);
  for (int i = 0; i < 3000; ++i) b.record(rng.next_u64() % 50);
  for (int i = 0; i < 100; ++i)
    c.record((rng.next_u64() % 100) * 1000000000ull);

  // (a+b)+c vs a+(b+c) vs c+b+a: identical quantiles everywhere.
  util::HdrHistogram ab_c = a;
  ab_c += b;
  ab_c += c;
  util::HdrHistogram bc = b;
  bc += c;
  util::HdrHistogram a_bc = a;
  a_bc += bc;
  util::HdrHistogram cba = c;
  cba += b;
  cba += a;

  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << q;
    EXPECT_EQ(ab_c.quantile(q), cba.quantile(q)) << q;
  }
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.min(), cba.min());
  EXPECT_EQ(ab_c.max(), cba.max());
  EXPECT_DOUBLE_EQ(ab_c.mean(), cba.mean());
}

TEST(HdrHistogram, MergeMatchesSingleStreamRecording) {
  // Sharded recording + merge == recording everything into one histogram.
  Rng rng(99);
  util::HdrHistogram whole;
  std::array<util::HdrHistogram, 4> shards;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_u64() % 10000000;
    whole.record(v);
    shards[static_cast<std::size_t>(i) % 4].record(v);
  }
  util::HdrHistogram merged;
  for (const auto& s : shards) merged += s;
  for (double q : {0.25, 0.5, 0.75, 0.99, 0.999})
    EXPECT_EQ(whole.quantile(q), merged.quantile(q));
  EXPECT_EQ(whole.max(), merged.max());
}

TEST(HdrHistogram, EmptyAndReset) {
  util::HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// ---- RateMeter inter-arrival gaps -------------------------------------------

TEST(RateMeter, ReportsInterArrivalGaps) {
  sim::RateMeter m;
  // Arrivals at 0, 1000, 1100, 4100: gaps 1000, 100, 3000.
  m.record(64, 0);
  m.record(64, 1000);
  m.record(64, 1100);
  m.record(64, 4100);
  const auto r = m.report(10000);
  EXPECT_EQ(r.packets, 4u);
  EXPECT_EQ(r.min_gap_ns, 100u);
  EXPECT_EQ(r.max_gap_ns, 3000u);
  EXPECT_NEAR(r.mean_gap_ns, (1000.0 + 100.0 + 3000.0) / 3, 1e-9);
  EXPECT_NEAR(r.kpps, 400.0, 1e-9);
}

TEST(RateMeter, NoGapsUntilTwoTimestampedArrivals) {
  sim::RateMeter m;
  m.record(64);        // untimestamped: no gap tracking
  m.record(64, 5000);  // first timestamped
  auto r = m.report(1000);
  EXPECT_EQ(r.min_gap_ns, 0u);
  EXPECT_EQ(r.max_gap_ns, 0u);
  EXPECT_EQ(r.mean_gap_ns, 0.0);
  m.reset();
  EXPECT_EQ(m.packets(), 0u);
  const auto r2 = m.report(1000);
  EXPECT_EQ(r2.max_gap_ns, 0u);
}

// ---- NodeStats drop reasons -------------------------------------------------

TEST(NodeStats, NoteDropCountsAndFirstTimestamps) {
  sim::NodeStats s;
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kLinkDown),
            sim::NodeStats::kNeverDropped);
  s.note_drop(sim::DropReason::kLinkDown, 500);
  s.note_drop(sim::DropReason::kLinkDown, 300);
  s.note_drop(sim::DropReason::kLinkDown, 900);
  s.note_drop(sim::DropReason::kNoRoute, 50);
  EXPECT_EQ(s.drops_link_down, 3u);
  EXPECT_EQ(s.drops_no_route, 1u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kLinkDown), 300u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kNoRoute), 50u);
  EXPECT_EQ(s.total_drops(), 4u);
}

TEST(NodeStats, ShardMergeFoldsFirstDropAsMin) {
  sim::NodeStats a, b;
  a.note_drop(sim::DropReason::kTtl, 700);
  b.note_drop(sim::DropReason::kTtl, 200);
  b.note_drop(sim::DropReason::kRxQueue, 900);
  sim::NodeStats ab = a;
  ab += b;
  sim::NodeStats ba = b;
  ba += a;
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kTtl), 200u);
  EXPECT_EQ(ba.first_drop_at(sim::DropReason::kTtl), 200u);
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kRxQueue), 900u);
  EXPECT_EQ(ab.drops_ttl, 2u);
  // Reasons that never fired stay at the identity through merges.
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kMalformed),
            sim::NodeStats::kNeverDropped);
}

// ---- LatencyTracer ----------------------------------------------------------

net::Packet make_labeled_packet(std::uint32_t flow_label) {
  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:2::2");
  spec.flow_label = flow_label;
  return net::make_udp_packet(spec);
}

TEST(LatencyTracer, ClassifiesByFlowLabelAndComputesDelay) {
  sim::LatencyTracer t;
  t.classify_by_flow_label(4);
  ASSERT_EQ(t.class_count(), 4u);
  for (std::uint32_t label = 0; label < 8; ++label) {
    net::Packet p = make_labeled_packet(label);
    p.tx_tstamp_ns = 1000;
    t.record(p, 1000 + 100 * (label + 1));
  }
  EXPECT_EQ(t.overall().count(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.class_hist(i).count(), 2u) << i;
    // Labels i and i+4 land in class i with delays 100(i+1), 100(i+5).
    EXPECT_EQ(t.class_hist(i).min(), 100 * (i + 1));
    EXPECT_EQ(t.class_hist(i).max(), 100 * (i + 5));
  }
  EXPECT_EQ(t.unmatched(), 0u);
  EXPECT_EQ(t.untimed(), 0u);
}

TEST(LatencyTracer, ExplicitMatcherWinsOverFlowLabel) {
  sim::LatencyTracer t;
  const std::size_t vip = t.add_class(
      "vip", [](const net::Packet& p) { return p.mark == 7; });
  t.classify_by_flow_label(2);
  ASSERT_EQ(t.class_count(), 3u);
  EXPECT_EQ(t.class_name(vip), "vip");

  net::Packet marked = make_labeled_packet(0);
  marked.mark = 7;
  marked.tx_tstamp_ns = 10;
  t.record(marked, 30);
  net::Packet plain = make_labeled_packet(1);
  plain.tx_tstamp_ns = 10;
  t.record(plain, 50);

  EXPECT_EQ(t.class_hist(vip).count(), 1u);
  EXPECT_EQ(t.class_hist(vip).max(), 20u);
  // label 1 % 2 -> spread class 1 (index vip classes are ahead of spreads).
  EXPECT_EQ(t.class_hist(2).count(), 1u);
  EXPECT_EQ(t.class_hist(2).max(), 40u);
}

TEST(LatencyTracer, UntimedAndResetSamples) {
  sim::LatencyTracer t;
  t.classify_by_flow_label(2);
  net::Packet p = make_labeled_packet(0);  // tx_tstamp_ns == 0
  t.record(p, 500);
  EXPECT_EQ(t.untimed(), 1u);
  EXPECT_EQ(t.overall().count(), 0u);
  p.tx_tstamp_ns = 100;
  t.record(p, 400);
  EXPECT_EQ(t.overall().count(), 1u);
  t.reset_samples();
  EXPECT_EQ(t.overall().count(), 0u);
  EXPECT_EQ(t.untimed(), 0u);
  EXPECT_EQ(t.class_count(), 2u);  // class declarations survive the reset
}

// ---- ReconvergenceClock -----------------------------------------------------

TEST(ReconvergenceClock, MeasuresDarkWindowNotFirstDelivery) {
  sim::ReconvergenceClock c;
  c.arm(1000);
  // Steady deliveries before the failure, in-flight drain just after it,
  // then a 5000 ns dark window until the repaired path delivers.
  for (sim::TimeNs t : {100u, 200u, 900u, 1010u, 1020u}) c.note_delivery(t);
  EXPECT_TRUE(c.recovered());
  c.note_delivery(6020);
  c.note_delivery(6030);
  EXPECT_EQ(c.blackhole_ns(), 5000u);
  EXPECT_EQ(c.recovery_at(), 6020u);
}

TEST(ReconvergenceClock, GapClampedToFailureInstant) {
  sim::ReconvergenceClock c;
  c.arm(1000);
  c.note_delivery(500);   // long before the failure
  c.note_delivery(3000);  // first delivery ever after it
  // The dark window starts at the failure, not at the last pre-failure
  // delivery: 3000 - 1000, not 3000 - 500.
  EXPECT_EQ(c.blackhole_ns(), 2000u);
}

// ---- netem determinism ------------------------------------------------------

std::vector<sim::TimeNs> netem_delivery_times(std::uint64_t seed, double loss,
                                              sim::TimeNs jitter,
                                              sim::TimeNs tau, int n) {
  Rng rng(seed);
  sim::NetemConfig cfg;
  cfg.delay_ns = 50 * sim::kMicro;
  cfg.jitter_ns = jitter;
  cfg.jitter_tau_ns = tau;
  cfg.loss_prob = loss;
  cfg.keep_order = false;  // expose the raw jitter sequence
  sim::NetemQdisc q(cfg);
  std::vector<sim::TimeNs> out;
  for (int i = 0; i < n; ++i) {
    const auto d = q.enqueue(static_cast<sim::TimeNs>(i) * 1000, 100, rng);
    out.push_back(d.dropped ? 0 : d.deliver_at);
  }
  return out;
}

TEST(Netem, CorrelatedJitterIsSeedDeterministic) {
  const auto a = netem_delivery_times(123, 0.0, 10000, 100000, 500);
  const auto b = netem_delivery_times(123, 0.0, 10000, 100000, 500);
  EXPECT_EQ(a, b);  // same seed -> bit-identical delay sequence
  const auto c = netem_delivery_times(124, 0.0, 10000, 100000, 500);
  EXPECT_NE(a, c);  // different seed -> different sequence
}

TEST(Netem, LossStageIsSeedDeterministicAndCounted) {
  const auto a = netem_delivery_times(55, 0.2, 10000, 0, 1000);
  const auto b = netem_delivery_times(55, 0.2, 10000, 0, 1000);
  EXPECT_EQ(a, b);
  int losses = 0;
  for (sim::TimeNs t : a) losses += t == 0 ? 1 : 0;
  EXPECT_GT(losses, 100);  // ~200 expected
  EXPECT_LT(losses, 300);
}

TEST(Netem, ZeroLossKeepsHistoricalJitterSequence) {
  // loss_prob = 0 must not consume RNG draws: the jitter sequence is
  // bit-identical to a qdisc that predates the loss knob.
  const auto with_knob = netem_delivery_times(77, 0.0, 5000, 0, 200);
  Rng rng(77);
  sim::NetemConfig cfg;
  cfg.delay_ns = 50 * sim::kMicro;
  cfg.jitter_ns = 5000;
  cfg.keep_order = false;
  sim::NetemQdisc q(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto d = q.enqueue(static_cast<sim::TimeNs>(i) * 1000, 100, rng);
    EXPECT_EQ(with_knob[static_cast<std::size_t>(i)], d.deliver_at) << i;
  }
}

// ---- failure / churn machinery ---------------------------------------------

// S1 - R - S2 line with a parallel R - S2 backup link; R's route to S2
// optionally carries an FRR backup pinned to the second adjacency.
struct FrrLab {
  sim::Network net{0xfee1};
  sim::Node* s1;
  sim::Node* r;
  sim::Node* s2;
  sim::Link* primary;
  sim::Link* backup;
  int r_primary_if = -1;
  int r_backup_if = -1;
  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;

  explicit FrrLab(bool with_frr) {
    s1 = &net.add_node("S1");
    r = &net.add_node("R");
    s2 = &net.add_node("S2");
    const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
    auto l0 = net.connect(*s1, A("fc00:1::1"), *r, A("fc00:1::2"), bw,
                          sim::kMicro);
    auto l1 = net.connect(*r, A("fc00:2::1"), *s2, A("fc00:2::2"), bw,
                          sim::kMicro);
    auto l2 = net.connect(*r, A("fc00:3::1"), *s2, A("fc00:3::2"), bw,
                          sim::kMicro);
    primary = l1.link;
    backup = l2.link;
    r_primary_if = l1.a_ifindex;
    r_backup_if = l2.a_ifindex;
    s1->ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
    seg6::Route route;
    route.prefix = P("fc00:2::/64");
    route.nexthops = {{net::Ipv6Addr{}, r_primary_if, 1}};
    if (with_frr)
      route.frr = std::make_shared<seg6::FrrBackup>(
          seg6::FrrBackup{{}, {net::Ipv6Addr{}, r_backup_if, 1}});
    r->ns().table(0).add_route(std::move(route));
    mux = std::make_unique<apps::AppMux>(*s2);
    sink = std::make_unique<apps::UdpSink>(*mux, 7001);
  }

  void send_one() {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:2::2");
    spec.dst_port = 7001;
    s1->send(net::make_udp_packet(spec));
  }
};

TEST(Failover, LinkDownDropsAreCountedWithTimestamp) {
  FrrLab lab(/*with_frr=*/false);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);

  lab.net.schedule_link_down(*lab.primary, 2 * sim::kMilli);
  lab.net.run_for(2 * sim::kMilli);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);  // blackholed
  const sim::NodeStats rs = lab.r->stats();
  EXPECT_EQ(rs.drops_link_down, 1u);
  EXPECT_EQ(rs.frr_reroutes, 0u);
  EXPECT_NE(rs.first_drop_at(sim::DropReason::kLinkDown),
            sim::NodeStats::kNeverDropped);
  EXPECT_GE(rs.first_drop_at(sim::DropReason::kLinkDown),
            2 * sim::kMilli);

  // Link restoration heals the path without route churn.
  lab.net.schedule_link_up(*lab.primary, 4 * sim::kMilli);
  lab.net.run_for(2 * sim::kMilli);  // safely past the link-up instant
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 2u);
}

TEST(Failover, FrrBackupReroutesInsteadOfDropping) {
  FrrLab lab(/*with_frr=*/true);
  lab.net.schedule_link_down(*lab.primary, sim::kMilli);
  lab.net.run_for(sim::kMilli);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  // Delivered over the backup adjacency, zero drops.
  EXPECT_EQ(lab.sink->packets(), 1u);
  const sim::NodeStats rs = lab.r->stats();
  EXPECT_EQ(rs.drops_link_down, 0u);
  EXPECT_EQ(rs.frr_reroutes, 1u);
  EXPECT_EQ(lab.backup->stats(0).tx_packets, 1u);
}

TEST(Failover, RouteWithdrawAndScheduledReAdd) {
  FrrLab lab(/*with_frr=*/false);
  // Withdraw at 1 ms, re-add (IGP reconvergence) at 3 ms via the backup if.
  lab.net.schedule_route_withdraw(*lab.r, 0, P("fc00:2::/64"), sim::kMilli);
  seg6::Route repaired;
  repaired.prefix = P("fc00:2::/64");
  repaired.nexthops = {{net::Ipv6Addr{}, lab.r_backup_if, 1}};
  lab.net.schedule_route_add(*lab.r, 0, repaired, 3 * sim::kMilli);

  lab.net.run_for(2 * sim::kMilli);  // now at 2 ms: withdrawn
  lab.send_one();
  lab.net.run_for(sim::kMilli / 2);
  EXPECT_EQ(lab.sink->packets(), 0u);
  EXPECT_GE(lab.r->stats().drops_no_route, 1u);

  lab.net.run_for(sim::kMilli);  // past 3 ms: repaired
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);
  EXPECT_EQ(lab.backup->stats(0).tx_packets, 1u);
}

TEST(Fib, RemoveRouteInvalidatesCacheAndReturnsFalseWhenAbsent) {
  seg6::Fib fib;
  fib.add_route(P("fc00:2::/64"), {A("fc00:2::1"), 1, 1});
  EXPECT_NE(fib.lookup(A("fc00:2::5")), nullptr);
  EXPECT_TRUE(fib.remove_route(P("fc00:2::/64")));
  EXPECT_EQ(fib.lookup(A("fc00:2::5")), nullptr);  // cached slot invalidated
  EXPECT_FALSE(fib.remove_route(P("fc00:2::/64")));
  EXPECT_FALSE(fib.remove_route(P("fc00:9::/64")));
  EXPECT_EQ(fib.route_count(), 0u);

  // Replace and withdraw cycles keep exactly one record per live prefix,
  // and a withdraw that moves another record keeps that route reachable.
  for (int i = 0; i < 4; ++i) {
    const std::string prefix = "fc00:" + std::to_string(10 + i) + "::/64";
    fib.add_route(P(prefix.c_str()), {A("fe80::1"), 1, 1});
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    fib.add_route(P("fc00:11::/64"), {A("fe80::2"), 2, 1});  // replace
    EXPECT_EQ(fib.route_count(), 4u);
    EXPECT_TRUE(fib.remove_route(P("fc00:10::/64")));  // moves the last
    EXPECT_EQ(fib.route_count(), 3u);
    EXPECT_EQ(fib.lookup(A("fc00:10::5")), nullptr);
    const seg6::Route* moved = fib.lookup(A("fc00:13::5"));
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(moved->prefix, P("fc00:13::/64"));
    const seg6::Route* replaced = fib.lookup(A("fc00:11::5"));
    ASSERT_NE(replaced, nullptr);
    EXPECT_EQ(replaced->nexthops.at(0).oif, 2);
    fib.add_route(P("fc00:10::/64"), {A("fe80::1"), 1, 1});  // re-add
    EXPECT_EQ(fib.route_count(), 4u);
  }
}

// End-to-end: delivered latency recorded by a sink-attached tracer is
// burst-invariant and per-class counts follow the generator's label spread.
TEST(SloEndToEnd, TracerCountsMatchGeneratorSpread) {
  FrrLab lab(/*with_frr=*/false);
  sim::LatencyTracer tracer;
  tracer.classify_by_flow_label(3);
  lab.sink->set_tracer(&tracer);

  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.dst_port = 7001;
  cfg.pps = 30000;
  cfg.flow_label_spread = 3;
  cfg.start_at = sim::kMilli;
  cfg.duration = 10 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(20 * sim::kMilli);

  ASSERT_EQ(lab.sink->packets(), gen.sent());
  EXPECT_EQ(tracer.overall().count(), gen.sent());
  EXPECT_EQ(tracer.untimed(), 0u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(tracer.class_hist(i).count()),
                static_cast<double>(gen.sent()) / 3, 1.0);
    sum += tracer.class_hist(i).count();
  }
  EXPECT_EQ(sum, gen.sent());
  EXPECT_GT(tracer.overall().min(), 0u);  // real path delay, not zero
}

// ---- SLO soak: FRR vs IGP failover and the netem sweep -----------------------

// S1 - R1 - R2 - S2 with an R1 - R3 - R2 backup triangle. Only R1, the point
// of local repair, is CPU-modelled. With FRR, R1's route to the sink
// carries a precomputed TI-LFA backup: encap [R3 End SID, R2 End.DT6 SID]
// out the R1 - R3 adjacency.
struct SloLab {
  sim::Network net{0x510a50ac};
  sim::Node* s1;
  sim::Node* r1;
  sim::Node* r2;
  sim::Node* r3;
  sim::Node* s2;
  sim::Link* l_r1r2;  // the primary, which fails
  int r1_to_r3 = -1;
  int r3_to_r2 = -1;
  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;
  std::unique_ptr<apps::TrafGen> gen;

  explicit SloLab(bool with_frr) {
    s1 = &net.add_node("S1");
    r1 = &net.add_node("R1");
    r2 = &net.add_node("R2");
    r3 = &net.add_node("R3");
    s2 = &net.add_node("S2");
    const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
    const sim::TimeNs prop = 10 * sim::kMicro;
    auto ls = net.connect(*s1, A("fc00:1::1"), *r1, A("fc00:1::2"), bw, prop);
    auto lp = net.connect(*r1, A("fc00:a::1"), *r2, A("fc00:a::2"), bw, prop);
    auto lb = net.connect(*r1, A("fc00:b::1"), *r3, A("fc00:b::2"), bw, prop);
    auto lc = net.connect(*r3, A("fc00:c::1"), *r2, A("fc00:c::2"), bw, prop);
    auto ld = net.connect(*r2, A("fc00:2::1"), *s2, A("fc00:2::2"), bw, prop);
    l_r1r2 = lp.link;
    r1_to_r3 = lb.a_ifindex;
    r3_to_r2 = lc.a_ifindex;

    s1->ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), ls.a_ifindex, 1});
    seg6::Route to_sink;
    to_sink.prefix = P("fc00:2::/64");
    to_sink.nexthops = {{net::Ipv6Addr{}, lp.a_ifindex, 1}};
    if (with_frr)
      to_sink.frr = std::make_shared<seg6::FrrBackup>(seg6::FrrBackup{
          {A("fc00:3::e3"), A("fc00:d::6")}, {net::Ipv6Addr{}, r1_to_r3, 1}});
    r1->ns().table(0).add_route(std::move(to_sink));
    r3->ns().table(0).add_route(P("fc00:d::/64"),
                                {net::Ipv6Addr{}, r3_to_r2, 1});
    r3->ns().seg6local().add(A("fc00:3::e3"),
                             {seg6::Seg6Action::kEnd, {}, 0, {}, {}});
    r2->ns().seg6local().add(A("fc00:d::6"),
                             {seg6::Seg6Action::kEndDT6, {}, 0, {}, {}});
    r2->ns().table(0).add_route(P("fc00:2::/64"),
                                {net::Ipv6Addr{}, ld.a_ifindex, 1});
    r1->cpu.enabled = true;
    r1->cpu.profile = sim::kXeonProfile;
    r1->cpu.rx_burst = 32;

    mux = std::make_unique<apps::AppMux>(*s2);
    sink = std::make_unique<apps::UdpSink>(*mux, 7001);
  }

  // Bursts of 8 over four flow labels and four source ports.
  void start_traffic(double pps, sim::TimeNs start, sim::TimeNs duration) {
    apps::TrafGen::Config cfg;
    cfg.spec.src = A("fc00:1::1");
    cfg.spec.dst = A("fc00:2::2");
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.burst = 8;
    cfg.flow_label_spread = 4;
    cfg.src_port_spread = 4;
    cfg.start_at = start;
    cfg.duration = duration;
    gen = std::make_unique<apps::TrafGen>(*s1, cfg);
    gen->start();
  }
};

struct FailoverRun {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t frr_reroutes = 0;
  std::uint64_t blackhole_ns = 0;
  bool recovered = false;
  std::uint64_t pre_p99 = 0;   // delivery latency before the cut
  std::uint64_t post_p99 = 0;  // and after it
  std::uint64_t window_allocs = 0;

  double delivery_ratio() const {
    return static_cast<double>(delivered) / static_cast<double>(offered);
  }
};

// 100 kpps from 1 ms to `t_end`, the primary cut at `t_fail`. Without FRR,
// a route via R3 lands `reconverge` later, modelling IGP reconvergence.
// Operator-new calls are counted over the middle half of the pre-cut
// steady state.
FailoverRun run_failover(bool frr, sim::TimeNs t_fail, sim::TimeNs reconverge,
                         sim::TimeNs t_end) {
  SloLab lab(frr);
  sim::LatencyTracer tracer;
  tracer.classify_by_flow_label(4);
  sim::ReconvergenceClock clock;
  lab.sink->set_tracer(&tracer);
  lab.sink->set_reconvergence_clock(&clock);

  const sim::TimeNs t_start = sim::kMilli;
  lab.start_traffic(100e3, t_start, t_end - t_start);
  clock.arm(t_fail);
  lab.net.schedule_link_down(*lab.l_r1r2, t_fail);
  if (!frr) {
    lab.r3->ns().table(0).add_route(P("fc00:2::/64"),
                                    {net::Ipv6Addr{}, lab.r3_to_r2, 1});
    seg6::Route repaired;
    repaired.prefix = P("fc00:2::/64");
    repaired.nexthops = {{net::Ipv6Addr{}, lab.r1_to_r3, 1}};
    lab.net.schedule_route_add(*lab.r1, 0, repaired, t_fail + reconverge);
  }

  FailoverRun run;
  lab.net.loop().schedule_at(t_fail, [&tracer, &run] {
    run.pre_p99 = tracer.overall().p99();
    tracer.reset_samples();
  });
  std::uint64_t allocs0 = 0;
  lab.net.loop().schedule_at(t_start + (t_fail - t_start) / 4, [&allocs0] {
    allocs0 = util::alloc_counters().news;
  });
  lab.net.loop().schedule_at(t_start + 3 * (t_fail - t_start) / 4,
                             [&allocs0, &run] {
                               run.window_allocs =
                                   util::alloc_counters().news - allocs0;
                             });
  lab.net.run_until(t_end + 50 * sim::kMilli);

  run.offered = lab.gen->sent();
  run.delivered = lab.sink->packets();
  run.frr_reroutes = lab.r1->stats().frr_reroutes;
  run.blackhole_ns = clock.blackhole_ns();
  run.recovered = clock.recovered();
  run.post_p99 = tracer.overall().p99();
  return run;
}

TEST(SloSoak, FrrRepairBlackholesUnderAMillisecondWithBoundedTail) {
  ASSERT_TRUE(util::alloc_hooks_active());
  const FailoverRun frr =
      run_failover(/*frr=*/true, 500 * sim::kMilli, 0, 1200 * sim::kMilli);
  EXPECT_GT(frr.frr_reroutes, 0u);
  EXPECT_TRUE(frr.recovered);
  EXPECT_LE(frr.blackhole_ns, sim::kMilli);
  EXPECT_GE(frr.delivery_ratio(), 0.999);
  EXPECT_LE(frr.pre_p99, 50000u);
  EXPECT_LE(frr.post_p99, 65000u);
  // The repair path is two hops longer, so the tail must show it.
  EXPECT_GE(static_cast<double>(frr.post_p99) /
                static_cast<double>(frr.pre_p99), 1.05);
  EXPECT_EQ(frr.window_allocs, 0u)
      << "the histogram/tracer delivery path allocated";
}

TEST(SloSoak, IgpBlackholeStraddlesTheReconvergenceDelay) {
  const sim::TimeNs reconverge = 200 * sim::kMilli;
  const FailoverRun igp = run_failover(/*frr=*/false, 300 * sim::kMilli,
                                       reconverge, 800 * sim::kMilli);
  EXPECT_EQ(igp.frr_reroutes, 0u);
  EXPECT_TRUE(igp.recovered);
  EXPECT_GE(igp.blackhole_ns, reconverge);
  EXPECT_LE(igp.blackhole_ns, reconverge + 10 * sim::kMilli);
  EXPECT_GE(igp.delivery_ratio(), 0.6);
}

struct NetemRun {
  double loss_ratio = 0;
  std::uint64_t p99 = 0;
};

// 50 kpps for 300 ms with R1's egress onto the primary impaired by netem:
// 100 us delay plus the given loss and OU-correlated jitter.
NetemRun run_netem(double loss, sim::TimeNs jitter, sim::TimeNs tau) {
  SloLab lab(/*with_frr=*/true);
  sim::NetemConfig cfg;
  cfg.delay_ns = 100 * sim::kMicro;
  cfg.jitter_ns = jitter;
  cfg.jitter_tau_ns = tau;
  cfg.loss_prob = loss;
  lab.l_r1r2->qdisc(0).set_config(cfg);
  sim::LatencyTracer tracer;
  lab.sink->set_tracer(&tracer);

  const sim::TimeNs dur = 300 * sim::kMilli;
  lab.start_traffic(50e3, sim::kMilli, dur);
  lab.net.run_until(sim::kMilli + dur + 100 * sim::kMilli);
  return {static_cast<double>(lab.l_r1r2->qdisc(0).losses()) /
              static_cast<double>(lab.gen->sent()),
          tracer.overall().p99()};
}

TEST(SloSoak, NetemLossAndJitterTailsStayInBounds) {
  const NetemRun baseline = run_netem(0.0, 0, 0);
  EXPECT_EQ(baseline.loss_ratio, 0.0);
  EXPECT_LE(baseline.p99, 150000u);

  const NetemRun lossy = run_netem(0.01, 0, 0);
  EXPECT_GE(lossy.loss_ratio, 0.005);
  EXPECT_LE(lossy.loss_ratio, 0.02);

  const NetemRun jittery = run_netem(0.0, 20 * sim::kMicro, 200 * sim::kMicro);
  EXPECT_GE(jittery.p99, 160000u);
  EXPECT_LE(jittery.p99, 250000u);
}

}  // namespace
}  // namespace srv6bpf
