// The parallel PDES simulator (sim/pdes_domain.h): determinism is the
// contract under test. For a fixed partition, an N-thread run must be
// bit-identical to the 1-thread run — same delivery digests, same stats,
// same tie-break order — at every thread count, every repetition, and the
// partitioned runs must in turn match the *serial* (never-sealed) simulator
// and the historical mc_test goldens on the scenarios that pin them.
//
// Also here: the EventLoop (time, key, stamp) comparator regression the
// tentpole fix demands (the serial loop and the PDES comparator must
// provably agree), SPSC mailbox unit tests, horizon progress on idle
// domains (no deadlock), same-timestamp cross-domain tie-breaks, and the
// stats-shard merge (NodeStats, first-drop min-fold, HdrHistogram) under
// partitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "sim/pdes_mailbox.h"
#include "sim/pdes_topo.h"
#include "usecases/programs.h"
#include "util/hdr_histogram.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// FNV-1a over little-endian u64s — the mc_test sink-delivery digest.
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
  bool operator==(const Digest& o) const {
    return delivered == o.delivered && bytes == o.bytes && fnv == o.fnv;
  }
};

// `threads` convention for every runner below: kSerial = never seal (the
// historical single-loop simulator), >= 1 = partition + seal + run on that
// many workers.
constexpr int kSerial = -1;

// ---- EventLoop comparator regressions ---------------------------------------

// The serial tie-break contract: ascending key at equal time, FIFO within a
// key — pinned against a reference stable sort over the insertion sequence,
// which is exactly what the pre-stamp (time, key, insertion-seq) comparator
// computed. The stamp comparator must reproduce it bit-for-bit.
TEST(EventLoopOrder, SerialLoopAgreesWithStableSortByTimeKey) {
  sim::EventLoop loop;
  Rng rng(0x0d0e);
  struct Item {
    sim::TimeNs t;
    std::uint32_t key;
    std::size_t idx;
  };
  std::vector<Item> scheduled;
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < 300; ++i) {
    // Dense collision space: ~30 distinct times x 3 keys.
    const sim::TimeNs t = rng.uniform(0, 29) * 10;
    const auto key = static_cast<std::uint32_t>(rng.uniform(0, 2));
    scheduled.push_back({t, key, i});
    loop.schedule_at_key(t, key, [i, &executed] { executed.push_back(i); });
  }
  loop.run();

  std::vector<Item> expect = scheduled;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Item& a, const Item& b) {
                     return a.t != b.t ? a.t < b.t : a.key < b.key;
                   });
  ASSERT_EQ(executed.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(executed[i], expect[i].idx) << "position " << i;
}

// Same-(t, key) events from *different* loops merge by provenance stamp:
// birth time first, then domain id, then sequence — independent of the
// order the injections happened to arrive in.
TEST(EventLoopOrder, InjectedStampsOrderByProvenanceNotArrival) {
  sim::EventLoop receiver;
  receiver.set_domain(0);
  sim::EventLoop sender1, sender2;
  sender1.set_domain(1);
  sender2.set_domain(2);

  std::vector<int> order;
  // Local event born at t=0 (earliest birth time).
  receiver.schedule_at(100, [&order] { order.push_back(0); });
  // Both senders stamp at their clock = 50; domain breaks the tie.
  sender1.advance_to(50);
  sender2.advance_to(50);
  auto st1 = sender1.make_stamp();
  auto st2 = sender2.make_stamp();
  // Inject in *reverse* provenance order: arrival order must not matter.
  receiver.inject(100, 0, st2, [&order] { order.push_back(2); });
  receiver.inject(100, 0, st1, [&order] { order.push_back(1); });
  receiver.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopOrder, RunEventsBeforeIsStrictAndCountsExecutions) {
  sim::EventLoop loop;
  int ran = 0;
  loop.schedule_at(10, [&ran] { ++ran; });
  loop.schedule_at(20, [&ran] { ++ran; });
  loop.schedule_at(30, [&ran] { ++ran; });
  EXPECT_EQ(loop.run_events_before(20), 1u);  // strictly below the bound
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.next_time(), 20u);
  EXPECT_EQ(loop.run_events_before(31), 2u);
  EXPECT_EQ(loop.next_time(), sim::kTimeInfinity);
  EXPECT_EQ(loop.now(), 30u);
}

// The full ordering contract, independent of how the queue is built: 100k
// seeded random operations on one loop — colliding schedule_at_key times and
// keys (some in the past, so clamped), injections with foreign stamps,
// closures that schedule at now() from inside themselves, and
// run_events_before / run_until / step bounds — executed in lockstep against
// a model that keeps every pending (t, key, birth_t, dom, seq) record in a
// vector, stable-sorts it and runs its head.
TEST(EventLoopOrder, RandomOperationsMatchStableSortModel) {
  constexpr std::uint32_t kDom = 3;
  struct Rec {
    sim::TimeNs t;
    std::uint32_t key;
    sim::EventLoop::Stamp birth;
    std::uint64_t id;
    int depth;
  };
  // Every third event spawns one child at now(), at most two levels deep.
  static constexpr auto spawns = [](std::uint64_t id, int depth) {
    return depth < 2 && id % 3 == 0;
  };

  struct Real {
    sim::EventLoop loop;
    std::vector<std::uint64_t> ran;
    std::uint64_t next_id = 0;
    auto body(std::uint64_t id, int depth) {
      return [this, id, depth] {
        ran.push_back(id);
        if (spawns(id, depth)) schedule(loop.now(), 0, depth + 1);
      };
    }
    void schedule(sim::TimeNs t, std::uint32_t key, int depth) {
      loop.schedule_at_key(t, key, body(next_id++, depth));
    }
    void inject(sim::TimeNs t, std::uint32_t key, sim::EventLoop::Stamp s) {
      loop.inject(t, key, s, sim::InlineFn(body(next_id++, 0)));
    }
  } real;
  real.loop.set_domain(kDom);

  struct Model {
    sim::TimeNs now = 0;
    std::uint64_t seq = 0;
    std::uint64_t next_id = 0;
    std::vector<Rec> pending;  // head() sorts it descending: head last
    bool sorted = true;
    std::vector<std::uint64_t> ran;
    void add(Rec r) {
      r.t = std::max(r.t, now);
      r.id = next_id++;
      pending.push_back(r);
      sorted = false;
    }
    void schedule(sim::TimeNs t, std::uint32_t key, int depth) {
      add(Rec{t, key, {now, kDom, seq++}, 0, depth});
    }
    const Rec* head() {
      if (!sorted) {
        std::stable_sort(pending.begin(), pending.end(),
                         [](const Rec& a, const Rec& b) {
                           return std::tie(a.t, a.key, a.birth.birth_t,
                                           a.birth.dom, a.birth.seq) >
                                  std::tie(b.t, b.key, b.birth.birth_t,
                                           b.birth.dom, b.birth.seq);
                         });
        sorted = true;
      }
      return pending.empty() ? nullptr : &pending.back();
    }
    void step() {
      const Rec r = pending.back();
      pending.pop_back();
      now = r.t;
      ran.push_back(r.id);
      if (spawns(r.id, r.depth)) schedule(now, 0, r.depth + 1);
    }
  } model;

  Rng rng(0x0bde'7001);
  std::uint64_t foreign_seq[2] = {0, 0};
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t kind = rng.uniform(0, 99);
    if (kind < 45) {
      // Three keys, and times on the 10 ns grid: many exact (t, key)
      // collisions; a tenth land in the past and are clamped to now().
      const sim::TimeNs now = model.now;
      const sim::TimeNs back =
          std::min<sim::TimeNs>(now / 10, rng.uniform(1, 3)) * 10;
      const sim::TimeNs t = rng.chance(0.1) ? now - back
                                            : now + rng.uniform(0, 8) * 10;
      const auto key = static_cast<std::uint32_t>(rng.uniform(0, 2));
      real.schedule(t, key, 0);
      model.schedule(t, key, 0);
    } else if (kind < 65) {
      // A delivery from domain 1 or 5 with a sender stamp born on the grid
      // at or before its delivery time, so birth times tie with local
      // events and with each other and the domain id decides.
      const std::size_t f = rng.uniform(0, 1);
      const sim::TimeNs t = model.now + rng.uniform(0, 8) * 10;
      const sim::TimeNs born =
          t - rng.uniform(0, std::min<sim::TimeNs>(t / 10, 3)) * 10;
      const sim::EventLoop::Stamp s{born, f == 0 ? 1u : 5u,
                                    foreign_seq[f]++};
      const auto key = static_cast<std::uint32_t>(rng.uniform(0, 2));
      real.inject(t, key, s);
      model.add(Rec{t, key, s, 0, 0});
    } else if (kind < 80) {
      const sim::TimeNs bound = model.now + rng.uniform(0, 6) * 10;
      std::size_t n = 0;
      while (model.head() != nullptr && model.head()->t < bound) {
        model.step();
        ++n;
      }
      ASSERT_EQ(real.loop.run_events_before(bound), n) << "op " << op;
    } else if (kind < 92) {
      const sim::TimeNs bound = model.now + rng.uniform(0, 6) * 10;
      while (model.head() != nullptr && model.head()->t <= bound)
        model.step();
      model.now = std::max(model.now, bound);
      real.loop.run_until(bound);
    } else {
      const bool any = model.head() != nullptr;
      if (any) model.step();
      ASSERT_EQ(real.loop.step(), any) << "op " << op;
    }
    ASSERT_EQ(real.loop.now(), model.now) << "op " << op;
    ASSERT_EQ(real.loop.pending(), model.pending.size()) << "op " << op;
    ASSERT_EQ(real.ran.size(), model.ran.size()) << "op " << op;
  }
  real.loop.run();
  while (model.head() != nullptr) model.step();
  ASSERT_EQ(real.ran.size(), model.ran.size());
  EXPECT_GT(real.ran.size(), 50000u);
  for (std::size_t i = 0; i < model.ran.size(); ++i)
    ASSERT_EQ(real.ran[i], model.ran[i]) << "execution " << i;
}

// ---- SPSC mailbox -----------------------------------------------------------

TEST(PdesMailbox, FifoOrderAndPayloadDelivery) {
  sim::PdesMailbox box;
  int fired = -1;
  for (int i = 0; i < 16; ++i) {
    sim::PdesMail m;
    m.t = static_cast<sim::TimeNs>(100 + i);
    m.key = static_cast<std::uint32_t>(i);
    m.fn = sim::InlineFn([i, &fired] { fired = i; });
    box.push(std::move(m));
  }
  sim::PdesMail out;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(box.try_pop(out));
    EXPECT_EQ(out.t, static_cast<sim::TimeNs>(100 + i));
    EXPECT_EQ(out.key, static_cast<std::uint32_t>(i));
    out.fn();
    EXPECT_EQ(fired, i);
  }
  EXPECT_FALSE(box.try_pop(out));
  EXPECT_TRUE(box.empty());
}

TEST(PdesMailbox, TryPushReportsFullUntilConsumerDrains) {
  sim::PdesMailbox box;
  for (std::size_t i = 0; i < sim::PdesMailbox::kCapacity; ++i)
    ASSERT_TRUE(box.try_push(sim::PdesMail{}));
  EXPECT_FALSE(box.try_push(sim::PdesMail{}));
  sim::PdesMail out;
  ASSERT_TRUE(box.try_pop(out));
  EXPECT_TRUE(box.try_push(sim::PdesMail{}));
}

TEST(PdesMailbox, TwoThreadPumpPreservesOrder) {
  sim::PdesMailbox box;
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&box] {
    for (std::uint64_t i = 0; i < kN; ++i)
      box.push(sim::PdesMail{i, static_cast<std::uint32_t>(i & 0xffff),
                             sim::EventLoop::Stamp{i, 1, i}, sim::InlineFn{}});
  });
  std::uint64_t expect = 0;
  sim::PdesMail m;
  while (expect < kN) {
    if (!box.try_pop(m)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(m.t, expect);
    ASSERT_EQ(m.stamp.seq, expect);
    ++expect;
  }
  producer.join();
  EXPECT_TRUE(box.empty());
}

// ---- fig2: the mc_test golden scenario, partitioned -------------------------

struct Fig2Result {
  Digest dig;
  sim::NodeStats router;
};

// Verbatim topology/traffic of tests/mc_test.cc run_fig2 (whose goldens
// were captured from the PR 2 tree), plus the partition plumbing: with
// threads >= 1 the three nodes land in three domains and both hops become
// synchronization edges. The sends go through s1's own loop, which is the
// master loop when serial — the schedule sites are identical in both modes.
Fig2Result run_fig2(std::size_t burst, std::size_t ncpus, int threads) {
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
  r.ns().table(0).add_route(P("fc00:2::/64"),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:1::/64"),
                            {net::Ipv6Addr{}, l1.b_ifindex, 1});
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

  if (threads != kSerial) {
    net.set_domain_count(3);
    net.assign_domain(s1, 0);
    net.assign_domain(r, 1);
    net.assign_domain(s2, 2);
    net.seal_domains();
  }

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
    s1.loop().schedule_at(static_cast<sim::TimeNs>(i) * 100,
                          [&s1, p = std::move(pkt)]() mutable {
                            s1.send(std::move(p));
                          });
  }
  // All deliveries land well inside 20 ms; the digest is a function of
  // delivery times only, so the shorter window matches mc_test's 1 s run.
  if (threads == kSerial)
    net.run_for(20 * sim::kMilli);
  else
    net.run_parallel_for(20 * sim::kMilli, static_cast<std::size_t>(threads));
  res.router = r.stats();
  return res;
}

void expect_stats_equal(const sim::NodeStats& a, const sim::NodeStats& b) {
  EXPECT_EQ(a.rx_packets, b.rx_packets);
  EXPECT_EQ(a.tx_packets, b.tx_packets);
  EXPECT_EQ(a.local_delivered, b.local_delivered);
  EXPECT_EQ(a.drops_rx_queue, b.drops_rx_queue);
  EXPECT_EQ(a.drops_no_route, b.drops_no_route);
  EXPECT_EQ(a.drops_ttl, b.drops_ttl);
  EXPECT_EQ(a.drops_verdict, b.drops_verdict);
  EXPECT_EQ(a.drops_malformed, b.drops_malformed);
  EXPECT_EQ(a.drops_link_down, b.drops_link_down);
  EXPECT_EQ(a.frr_reroutes, b.frr_reroutes);
  EXPECT_EQ(a.service_events, b.service_events);
  EXPECT_EQ(a.serviced_packets, b.serviced_packets);
  EXPECT_TRUE(a.pipeline == b.pipeline);
  for (std::size_t i = 0; i < sim::kDropReasonCount; ++i)
    EXPECT_EQ(a.first_drop_ns[i], b.first_drop_ns[i]) << "drop reason " << i;
}

TEST(PdesDeterminism, Fig2PartitionedMatchesSerialAndGolden) {
  const Fig2Result serial = run_fig2(32, 1, kSerial);
  // The mc_test goldens (captured from the PR 2 single-core tree) must
  // still hold for the serial loop with the stamp comparator...
  EXPECT_EQ(serial.dig.delivered, 100u);
  EXPECT_EQ(serial.dig.bytes, 6400u);
  EXPECT_EQ(serial.dig.fnv, 0x1023e722a53e82dbull);
  // ...and the partitioned run reproduces them bit-for-bit.
  const Fig2Result part = run_fig2(32, 1, 1);
  EXPECT_TRUE(part.dig == serial.dig);
  expect_stats_equal(part.router, serial.router);
}

// The headline stress: >= 20 repetitions at every thread count, each run
// bit-identical to the single-thread partitioned baseline (and hence, via
// the test above, to the serial run and the historical goldens).
TEST(PdesDeterminism, Fig2DigestsIdenticalAcrossThreadsAndRepetitions) {
  const Fig2Result base = run_fig2(32, 1, 1);
  for (const int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const Fig2Result run = run_fig2(32, 1, threads);
      ASSERT_TRUE(run.dig == base.dig)
          << "threads=" << threads << " rep=" << rep << " fnv=" << std::hex
          << run.dig.fnv;
      expect_stats_equal(run.router, base.router);
    }
  }
}

TEST(PdesDeterminism, Fig2MultiCoreRouterPartitioned) {
  // RSS-sharded router (ncpus=4) under partitioning: context-keyed service
  // events and per-context stats shards all live in one domain; the merge
  // must still be thread-count-invariant.
  const Fig2Result serial = run_fig2(32, 4, kSerial);
  for (const int threads : {1, 2, 4}) {
    const Fig2Result run = run_fig2(32, 4, threads);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    expect_stats_equal(run.router, serial.router);
  }
}

// ---- hybrid-WRR: the second mc_test golden ----------------------------------

Digest run_hybrid(int threads) {
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
  m.ns().table(0).add_route(P("fd01:1::/64"),
                            {net::Ipv6Addr{}, l0.b_ifindex, 1});
  m.ns().table(0).add_route(P("fd01:5e::/64"),
                            {net::Ipv6Addr{}, l1.a_ifindex, 1});
  s2.ns().table(0).add_route(P("::/0"), {m1, l1.b_ifindex, 1});

  m.cpu.enabled = true;
  m.cpu.profile = sim::kTurrisProfile;
  m.cpu.rx_burst = 32;
  m.cpu.ncpus = 1;
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

  if (threads != kSerial) {
    net.set_domain_count(3);
    net.assign_domain(s1, 0);
    net.assign_domain(m, 1);
    net.assign_domain(s2, 2);
    net.seal_domains();
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
    s1.loop().schedule_at(static_cast<sim::TimeNs>(i) * 500,
                          [&s1, p = std::move(pkt)]() mutable {
                            s1.send(std::move(p));
                          });
  }
  if (threads == kSerial)
    net.run_for(50 * sim::kMilli);
  else
    net.run_parallel_for(50 * sim::kMilli, static_cast<std::size_t>(threads));
  return dig;
}

TEST(PdesDeterminism, HybridWrrPartitionedMatchesSerialAndGolden) {
  const Digest serial = run_hybrid(kSerial);
  EXPECT_EQ(serial.delivered, 96u);
  EXPECT_EQ(serial.bytes, 38400u);
  EXPECT_EQ(serial.fnv, 0xf73ec5219ddf73caull);  // mc_test golden
  for (const int threads : {1, 2, 4}) {
    const Digest run = run_hybrid(threads);
    EXPECT_TRUE(run == serial) << "threads=" << threads;
  }
}

// ---- fig2_fib48: FIB-heavy multi-destination traffic ------------------------

Digest run_fig2_fib48(int threads) {
  constexpr std::size_t kFibRoutes = 2048;
  sim::Network net(0xf1b48);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const auto a1 = A("fc00:1::1"), r0 = A("fc00:1::2");
  const auto r1 = A("fc00:2::1"), a2 = A("fc00:2::2");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(s1, a1, r, r0, kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(r, r1, s2, a2, kTenGig, 10 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {r0, l1.a_ifindex, 1});
  s2.ns().table(0).add_route(P("::/0"), {r1, l2.b_ifindex, 1});

  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.ncpus = 1;

  // The fig2_fib48 shape (tests/saturation_lab.h add_fib48): 2048 /48
  // sites routed at R, matching local addresses at S2.
  char buf[64];
  for (std::size_t i = 0; i < kFibRoutes; ++i) {
    std::snprintf(buf, sizeof buf, "2001:db8:%zx::/48", i);
    r.ns().table(0).add_route(net::Prefix::parse(buf).value(),
                              {net::Ipv6Addr{}, l2.a_ifindex, 1});
    std::snprintf(buf, sizeof buf, "2001:db8:%zx::2", i);
    s2.ns().add_local_addr(net::Ipv6Addr::must_parse(buf));
  }

  if (threads != kSerial) {
    net.set_domain_count(3);
    net.assign_domain(s1, 0);
    net.assign_domain(r, 1);
    net.assign_domain(s2, 2);
    net.seal_domains();
  }

  apps::AppMux mux(s2);
  Digest dig;
  mux.on_udp(7001, [&dig](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++dig.delivered;
    dig.bytes += payload.size();
    dig.mix(now);
    dig.mix(pkt.seq);
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = a1;
  cfg.spec.dst = A("2001:db8::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 400000;
  cfg.duration = 4 * sim::kMilli;
  cfg.dst_spread = kFibRoutes;
  cfg.flow_label_spread = 8;
  cfg.src_port_spread = 13;
  apps::TrafGen gen(s1, cfg);
  gen.start();

  if (threads == kSerial)
    net.run_for(10 * sim::kMilli);
  else
    net.run_parallel_for(10 * sim::kMilli, static_cast<std::size_t>(threads));
  return dig;
}

TEST(PdesDeterminism, Fig2Fib48PartitionedMatchesSerial) {
  const Digest serial = run_fig2_fib48(kSerial);
  EXPECT_GT(serial.delivered, 1000u);  // the generator actually ran
  for (const int threads : {1, 2, 4}) {
    const Digest run = run_fig2_fib48(threads);
    EXPECT_TRUE(run == serial)
        << "threads=" << threads << " delivered=" << run.delivered;
  }
}

// ---- the PR 8 failover scenario under partitioning --------------------------

// tests/slo_test.cc's FrrLab shape: primary + FRR backup link from R to S2,
// a mid-run link cut and a later restore while trafgen streams. Under a
// sealed partition the cut is scheduled per carrier replica (one event in
// each end's domain at the same instant) — the digest must not notice.
struct FailoverResult {
  Digest dig;
  sim::NodeStats router;
};

FailoverResult run_failover(int threads) {
  sim::Network net(0xfee1);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  auto l0 = net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"), bw, sim::kMicro);
  auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw, sim::kMicro);
  auto l2 = net.connect(r, A("fc00:3::1"), s2, A("fc00:3::2"), bw, sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
  seg6::Route route;
  route.prefix = P("fc00:2::/64");
  route.nexthops = {{net::Ipv6Addr{}, l1.a_ifindex, 1}};
  route.frr = std::make_shared<seg6::FrrBackup>(
      seg6::FrrBackup{{}, {net::Ipv6Addr{}, l2.a_ifindex, 1}});
  r.ns().table(0).add_route(std::move(route));

  if (threads != kSerial) {
    net.set_domain_count(3);
    net.assign_domain(s1, 0);
    net.assign_domain(r, 1);
    net.assign_domain(s2, 2);
    net.seal_domains();
  }

  apps::AppMux mux(s2);
  FailoverResult res;
  mux.on_udp(7001, [&res](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++res.dig.delivered;
    res.dig.bytes += payload.size();
    res.dig.mix(now);
    res.dig.mix(pkt.seq);
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 250000;
  cfg.duration = 4 * sim::kMilli;
  cfg.flow_label_spread = 4;
  apps::TrafGen gen(s1, cfg);
  gen.start();

  net.schedule_link_down(*l1.link, 1 * sim::kMilli);
  net.schedule_link_up(*l1.link, 3 * sim::kMilli);

  if (threads == kSerial)
    net.run_for(6 * sim::kMilli);
  else
    net.run_parallel_for(6 * sim::kMilli, static_cast<std::size_t>(threads));
  res.router = r.stats();
  return res;
}

TEST(PdesDeterminism, FailoverPartitionedMatchesSerial) {
  const FailoverResult serial = run_failover(kSerial);
  EXPECT_GT(serial.dig.delivered, 500u);
  EXPECT_GT(serial.router.frr_reroutes, 0u);  // the cut actually rerouted
  for (const int threads : {1, 2, 4}) {
    const FailoverResult run = run_failover(threads);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    expect_stats_equal(run.router, serial.router);
  }
}

// ---- horizon progress: idle domains must not deadlock -----------------------

TEST(PdesProgress, IdleDomainsAdvanceThroughHorizonsOnly) {
  // Two domains, one link, zero traffic for most of the window, then a
  // single late packet. The only way the receiver's clock can cross the
  // window is lookahead creep (H + la fixpoint) — if horizon broadcasting
  // stalled, run_parallel_until would hang and the packet would miss.
  sim::Network net(0x1d1e);
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"),
                       1000ull * 1000 * 1000, 100 * sim::kMicro);
  a.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l.a_ifindex, 1});
  net.set_domain_count(2);
  net.assign_domain(a, 0);
  net.assign_domain(b, 1);
  net.seal_domains();

  apps::AppMux mux(b);
  std::vector<sim::TimeNs> arrivals;
  mux.on_udp(7001, [&arrivals](const net::Packet&, const net::UdpHeader&,
                               std::span<const std::uint8_t>,
                               sim::TimeNs now) { arrivals.push_back(now); });

  a.loop().schedule_at(900 * sim::kMilli, [&a] {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:1::2");
    spec.dst_port = 7001;
    a.send(net::make_udp_packet(spec));
  });

  net.run_parallel_until(sim::kSecond, 2);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GT(arrivals[0], 900 * sim::kMilli);
  EXPECT_EQ(net.now(), sim::kSecond);
  // A second, completely idle window: horizons restart and creep again.
  net.run_parallel_for(100 * sim::kMilli, 2);
  EXPECT_EQ(net.now(), sim::kSecond + 100 * sim::kMilli);
}

// ---- same-timestamp cross-domain tie-break ----------------------------------

// Two sources in different domains fire at the same instant over identical
// links into one router: their packets arrive at the router at the *same*
// nanosecond with the same event key. The sender stamps must break the tie
// — lower domain id first — on every run at every thread count.
TEST(PdesDeterminism, SameTimestampCrossDomainArrivalsOrderBySenderDomain) {
  std::vector<std::uint32_t> base_order;
  for (const int threads : {1, 2, 3}) {
    for (int rep = 0; rep < 5; ++rep) {
      sim::Network net(0x7ead);
      auto& sa = net.add_node("SA");
      auto& sb = net.add_node("SB");
      auto& r = net.add_node("R");
      auto& d = net.add_node("D");
      const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
      auto la = net.connect(sa, A("fc00:a::1"), r, A("fc00:a::2"), bw,
                            10 * sim::kMicro);
      auto lb = net.connect(sb, A("fc00:b::1"), r, A("fc00:b::2"), bw,
                            10 * sim::kMicro);
      auto ld = net.connect(r, A("fc00:d::1"), d, A("fc00:d::2"), bw,
                            10 * sim::kMicro);
      sa.ns().table(0).add_route(P("::/0"), {A("fc00:a::2"), la.a_ifindex, 1});
      sb.ns().table(0).add_route(P("::/0"), {A("fc00:b::2"), lb.a_ifindex, 1});
      r.ns().table(0).add_route(P("fc00:d::/64"),
                                {net::Ipv6Addr{}, ld.a_ifindex, 1});
      net.set_domain_count(3);
      net.assign_domain(sa, 1);
      net.assign_domain(sb, 2);
      net.assign_domain(r, 0);
      net.assign_domain(d, 0);
      net.seal_domains();

      apps::AppMux mux(d);
      std::vector<std::uint32_t> order;
      mux.on_udp(7001, [&order](const net::Packet& pkt, const net::UdpHeader&,
                                std::span<const std::uint8_t>,
                                sim::TimeNs) { order.push_back(pkt.seq); });

      for (auto* src : {&sa, &sb}) {
        net::PacketSpec spec;
        spec.src = src == &sa ? A("fc00:a::1") : A("fc00:b::1");
        spec.dst = A("fc00:d::2");
        spec.dst_port = 7001;
        spec.payload_size = 64;
        auto pkt = net::make_udp_packet(spec);
        pkt.seq = src == &sa ? 1 : 2;
        src->loop().schedule_at(1000, [src, p = std::move(pkt)]() mutable {
          src->send(std::move(p));
        });
      }
      net.run_parallel_for(sim::kMilli, static_cast<std::size_t>(threads));

      ASSERT_EQ(order.size(), 2u);
      // Identical paths and send times: both arrive at R at the same ns;
      // the lower sender domain (SA = 1) must win the tie every time.
      EXPECT_EQ(order[0], 1u) << "threads=" << threads << " rep=" << rep;
      EXPECT_EQ(order[1], 2u);
      if (base_order.empty()) base_order = order;
      EXPECT_EQ(order, base_order);
    }
  }
}

// ---- stats-shard merge under partitioning -----------------------------------

// Overdriven fig2 (offered >> the Xeon single-core cap): RX-queue drops at
// the router plus a no-route flow. The partitioned run's merged counters,
// *and* each drop reason's first-occurrence timestamp min-fold, must equal
// the serial run's exactly.
FailoverResult run_overload(int threads) {
  sim::Network net(0x0dd5);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"), kTenGig,
                        10 * sim::kMicro);
  auto l2 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), kTenGig,
                        10 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l1.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:2::/64"),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.ncpus = 2;  // two contexts: the merge actually folds shards

  if (threads != kSerial) {
    net.set_domain_count(3);
    net.assign_domain(s1, 0);
    net.assign_domain(r, 1);
    net.assign_domain(s2, 2);
    net.seal_domains();
  }

  apps::AppMux mux(s2);
  FailoverResult res;
  mux.on_udp(7001, [&res](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++res.dig.delivered;
    res.dig.bytes += payload.size();
    res.dig.mix(now);
    res.dig.mix(pkt.seq);
  });

  // Main flood: 3 Mpps against a ~600 kpps core pair -> rx-queue drops.
  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 3000000;
  cfg.duration = 2 * sim::kMilli;
  cfg.flow_label_spread = 16;
  apps::TrafGen gen(s1, cfg);
  gen.start();
  // Side flow to an unrouted prefix -> drops_no_route with a first-drop
  // timestamp from mid-run.
  apps::TrafGen::Config miss;
  miss.spec.src = A("fc00:1::1");
  miss.spec.dst = A("fc00:99::1");
  miss.spec.payload_size = 64;
  miss.spec.dst_port = 7002;
  miss.pps = 50000;
  miss.start_at = 500 * sim::kMicro;
  miss.duration = sim::kMilli;
  apps::TrafGen gen_miss(s1, miss);
  gen_miss.start();

  if (threads == kSerial)
    net.run_for(5 * sim::kMilli);
  else
    net.run_parallel_for(5 * sim::kMilli, static_cast<std::size_t>(threads));
  res.router = r.stats();
  return res;
}

TEST(PdesStats, ShardMergeAndFirstDropMinFoldMatchSerial) {
  const FailoverResult serial = run_overload(kSerial);
  ASSERT_GT(serial.router.drops_rx_queue, 0u);
  ASSERT_GT(serial.router.drops_no_route, 0u);
  ASSERT_NE(serial.router.first_drop_at(sim::DropReason::kRxQueue),
            sim::NodeStats::kNeverDropped);
  ASSERT_NE(serial.router.first_drop_at(sim::DropReason::kNoRoute),
            sim::NodeStats::kNeverDropped);
  for (const int threads : {1, 3}) {
    const FailoverResult run = run_overload(threads);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    expect_stats_equal(run.router, serial.router);
  }
}

// ---- generated ring topology + HdrHistogram merge ---------------------------

struct RingResult {
  Digest dig;
  util::HdrHistogram merged;  // per-sink delivery-time shards, folded
};

// Each segment's source offers `pps` for `gen_window` over `flow_labels`
// labels and `src_ports` source ports; the run lasts `window`.
RingResult run_ring(int threads, const sim::RingTopoSpec& spec, double pps,
                    sim::TimeNs gen_window, sim::TimeNs window,
                    std::uint32_t flow_labels = 4,
                    std::uint16_t src_ports = 1) {
  sim::Network net(0x816);
  sim::RingTopo topo = build_ring_topology(net, spec);
  if (threads != kSerial) {
    net.set_domain_count(spec.segments);
    net.seal_domains();
  }

  RingResult res;
  std::vector<std::unique_ptr<apps::AppMux>> muxes;
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  // One histogram shard per sink: each is filled by its own domain's
  // worker thread; the fold below is the cross-domain merge under test.
  std::vector<util::HdrHistogram> shards(spec.segments);
  std::vector<Digest> digs(spec.segments);
  for (std::size_t s = 0; s < spec.segments; ++s) {
    auto& seg = topo.segments[s];
    muxes.push_back(std::make_unique<apps::AppMux>(*seg.sink));
    muxes.back()->on_udp(
        7001, [&dig = digs[s], &shard = shards[s]](
                  const net::Packet& pkt, const net::UdpHeader&,
                  std::span<const std::uint8_t> payload, sim::TimeNs now) {
          ++dig.delivered;
          dig.bytes += payload.size();
          dig.mix(now);
          dig.mix(pkt.seq);
          shard.record(now);
        });
    apps::TrafGen::Config cfg;
    cfg.spec.src = seg.src_addr;
    cfg.spec.dst = seg.dst_addr;
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.duration = gen_window;
    cfg.flow_label_spread = flow_labels;
    cfg.src_port_spread = src_ports;
    gens.push_back(std::make_unique<apps::TrafGen>(*seg.src, cfg));
    gens.back()->start();
  }

  if (threads == kSerial)
    net.run_for(window);
  else
    net.run_parallel_for(window, static_cast<std::size_t>(threads));

  // Deterministic cross-domain fold: segment order (the merge itself is
  // order-invariant; tests/slo_test.cc pins that algebra).
  for (std::size_t s = 0; s < spec.segments; ++s) {
    res.merged += shards[s];
    res.dig.delivered += digs[s].delivered;
    res.dig.bytes += digs[s].bytes;
    res.dig.mix(digs[s].fnv);
  }
  return res;
}

TEST(PdesDeterminism, RingTopologyDigestsIdenticalAcrossThreads) {
  sim::RingTopoSpec spec;
  spec.segments = 4;
  spec.routers_per_segment = 2;
  const sim::TimeNs window = 4 * sim::kMilli;
  const RingResult serial = run_ring(kSerial, spec, 50000, window / 2, window);
  EXPECT_GT(serial.dig.delivered, 100u);
  for (const int threads : {1, 2, 4}) {
    const RingResult run = run_ring(threads, spec, 50000, window / 2, window);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
  }
}

// The full default ring (8 segments x 5 Xeon routers + src + sink = 56
// nodes, one PDES domain per segment) at 450 kpps per segment — three
// quarters of a router core — for 20 ms: 8 worker threads, more than the
// host may have cores, reproduce the 1-thread delivery digest exactly.
TEST(PdesDeterminism, FullRingDigestIdenticalAt1And8Threads) {
  const sim::RingTopoSpec spec;
  const sim::TimeNs gen_window = 20 * sim::kMilli;
  auto run = [&](int threads) {
    return run_ring(threads, spec, 450e3, gen_window,
                    gen_window + 10 * sim::kMilli, /*flow_labels=*/16,
                    /*src_ports=*/7);
  };
  const RingResult one = run(1);
  EXPECT_GT(one.dig.delivered, 70000u);
  const RingResult eight = run(8);
  EXPECT_TRUE(eight.dig == one.dig)
      << "delivered " << one.dig.delivered << " vs " << eight.dig.delivered;
}

TEST(PdesStats, HdrHistogramMergeAcrossDomainsMatchesSerial) {
  sim::RingTopoSpec spec;
  spec.segments = 4;
  spec.routers_per_segment = 2;
  const sim::TimeNs window = 4 * sim::kMilli;
  const RingResult serial = run_ring(kSerial, spec, 50000, window / 2, window);
  const RingResult part = run_ring(4, spec, 50000, window / 2, window);
  EXPECT_EQ(part.merged.count(), serial.merged.count());
  EXPECT_EQ(part.merged.min(), serial.merged.min());
  EXPECT_EQ(part.merged.max(), serial.merged.max());
  EXPECT_DOUBLE_EQ(part.merged.mean(), serial.merged.mean());
  for (const double q : {0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(part.merged.quantile(q), serial.merged.quantile(q))
        << "q=" << q;
}

// ---- seal-time guard rails --------------------------------------------------

TEST(PdesSeal, RejectsZeroLookaheadCrossDomainLink) {
  sim::Network net;
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1000ull * 1000 * 1000,
              /*prop_delay_ns=*/0);
  net.set_domain_count(2);
  net.assign_domain(a, 0);
  net.assign_domain(b, 1);
  EXPECT_THROW(net.seal_domains(), std::invalid_argument);
}

TEST(PdesSeal, RejectsNonQuiescentMasterLoop) {
  sim::Network net;
  auto& a = net.add_node("A");
  net.assign_domain(a, 0);
  net.loop().schedule_at(100, [] {});
  EXPECT_THROW(net.seal_domains(), std::logic_error);
}

TEST(PdesSeal, HashPartitionIsStableAndInRange) {
  // The default static partition: pure function of the node name.
  const auto d1 = sim::PdesNet::hash_name("router-17", 8);
  const auto d2 = sim::PdesNet::hash_name("router-17", 8);
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1, 8u);
  sim::Network net;
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1000ull * 1000 * 1000,
              sim::kMicro);
  net.set_domain_count(4);
  net.seal_domains();  // no explicit assignments: everything hash-placed
  EXPECT_EQ(net.domain_of(a), sim::PdesNet::hash_name("A", 4));
  EXPECT_EQ(net.domain_of(b), sim::PdesNet::hash_name("B", 4));
}

}  // namespace
}  // namespace srv6bpf
