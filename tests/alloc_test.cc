// The zero-allocation steady state (ISSUE 5): BufferPool/BurstPool
// recycling, InlineFn event closures (built once in the EventLoop slab, never
// relocated, destroyed once — also on teardown), RxRing backlogs and
// template-stamped generation.
//
// This binary compiles bench/alloc_hooks_impl.cc, so the global operator
// new/delete are the counting replacements — the allocation-regression test
// measures the real thing, not a model. The recycling-correctness tests pin
// the other half of the contract: pooling is wall-clock-only, so pooled,
// recycled-buffer and pool-disabled runs (and template-stamped vs rebuilt
// generator packets) produce bit-identical delivery digests, the same
// FNV-golden pattern tests/mc_test.cc uses for the multi-core differential.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/buffer_pool.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/inline_fn.h"
#include "sim/network.h"
#include "sim/pdes_mailbox.h"
#include "sim/pdes_topo.h"
#include "sim/rx_ring.h"
#include "usecases/programs.h"
#include "util/alloc_hooks.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// Restores pool enablement (and drains the freelists) around tests that
// toggle it, so test order can't leak state.
struct PoolGuard {
  ~PoolGuard() {
    net::BufferPool::set_enabled(true);
    net::BufferPool::trim();
    net::BurstPool::trim();
  }
};

// ---- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesFixedSizeBuffers) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* a = net::BufferPool::acquire(100);
  EXPECT_EQ(a->cap, net::kPoolBufCap);  // one size class
  net::BufferPool::release(a);
  EXPECT_EQ(net::BufferPool::stats().pooled, 1u);

  // Warm acquire must hand back the parked buffer, not the heap.
  net::BufferPool::Buf* b = net::BufferPool::acquire(net::kPoolBufCap);
  EXPECT_EQ(b, a);
  const auto s = net::BufferPool::stats();
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.allocs, 1u);
  net::BufferPool::release(b);
}

TEST(BufferPool, OversizeBuffersAreExactAndNeverPooled) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* big = net::BufferPool::acquire(net::kPoolBufCap + 1);
  EXPECT_EQ(big->cap, net::kPoolBufCap + 1);
  net::BufferPool::release(big);
  EXPECT_EQ(net::BufferPool::stats().pooled, 0u);  // freed, not parked
}

TEST(BufferPool, DisabledDegradesToPlainHeap) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::set_enabled(false);
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* a = net::BufferPool::acquire(64);
  net::BufferPool::release(a);
  net::BufferPool::Buf* b = net::BufferPool::acquire(64);
  net::BufferPool::release(b);
  const auto s = net::BufferPool::stats();
  EXPECT_EQ(s.allocs, 2u);  // no reuse while disabled
  EXPECT_EQ(s.reuses, 0u);
  EXPECT_EQ(s.pooled, 0u);
}

TEST(BufferPool, PacketDestructionReturnsTheBuffer) {
  PoolGuard guard;
  net::BufferPool::trim();
  const std::uint8_t payload[] = {1, 2, 3, 4};
  const std::uint8_t* raw;
  {
    net::Packet p{std::span<const std::uint8_t>(payload)};
    raw = p.data() - p.headroom();
  }
  // The next packet must be carved from the same recycled buffer.
  net::Packet q{std::span<const std::uint8_t>(payload)};
  EXPECT_EQ(q.data() - q.headroom(), raw);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.data()[2], 3);
}

// ---- InlineFn ---------------------------------------------------------------

TEST(InlineFn, InvokesAndMoves) {
  int hits = 0;
  sim::InlineFn f([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);

  sim::InlineFn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT: post-move state is defined
  g();
  EXPECT_EQ(hits, 2);

  sim::InlineFn h;
  EXPECT_FALSE(static_cast<bool>(h));
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 3);
}

TEST(InlineFn, DestroysCapturesExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    ~Probe() {
      if (dtors != nullptr) ++*dtors;
    }
  };
  int dtors = 0;
  {
    sim::InlineFn f([p = Probe(&dtors)] { (void)p; });
    sim::InlineFn g(std::move(f));  // relocation must not double-count
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1);
}

TEST(InlineFn, CarriesMoveOnlyCaptures) {
  // A pooled Packet by value — the deferred-local-delivery closure shape
  // that sized the capture budget; std::function could never hold it
  // without copying or the heap.
  net::Packet pkt{std::span<const std::uint8_t>({0xaa, 0xbb})};
  std::size_t seen = 0;
  sim::EventLoop loop;
  loop.schedule_at(5, [p = std::move(pkt), &seen]() mutable {
    seen = p.size();
  });
  loop.run();
  EXPECT_EQ(seen, 2u);
}

// ---- Closure lifecycle: EventLoop slab and PdesMailbox ----------------------

// What happened to one closure's capture. A moved-from Counted is inert, so
// `destroys` counts the end of the live capture only.
struct Lifecycle {
  int moves = 0;
  int moves_at_run = -1;
  int runs = 0;
  int destroys = 0;
};

struct Counted {
  Lifecycle* life;
  explicit Counted(Lifecycle* l) noexcept : life(l) {}
  Counted(Counted&& o) noexcept : life(o.life) {
    o.life = nullptr;
    ++life->moves;
  }
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (life != nullptr) ++life->destroys;
  }
};

auto counted_closure(Lifecycle* l) {
  return [c = Counted(l)] {
    ++c.life->runs;
    c.life->moves_at_run = c.life->moves;
  };
}

// Also parks a one-packet burst in a pooled node, like a Link delivery.
auto burst_closure(Lifecycle* l) {
  net::BurstPool::Handle h(net::BurstPool::acquire());
  (*h).push(net::Packet{std::span<const std::uint8_t>({0xaa, 0xbb})}, 0);
  return [c = Counted(l), h = std::move(h)] { ++c.life->runs; };
}

// Nodes handed out since the last BurstPool::trim() + reset_stats() and not
// yet returned.
std::uint64_t bursts_outstanding() {
  const net::BurstPool::Stats s = net::BurstPool::stats();
  return s.allocs - s.pooled;
}

TEST(ClosureLifecycle, ScheduledLambdaIsMovedAtMostOnceAtAnyQueueDepth) {
  constexpr std::size_t kN = 2000;
  std::vector<Lifecycle> life(kN);
  sim::EventLoop loop;
  Rng rng(0x11fe);
  // Fill to ~1000 pending (across several slab chunks), then alternate
  // schedule and step at that depth, then drain.
  std::size_t next = 0;
  for (; next < kN / 2; ++next)
    loop.schedule_at(loop.now() + rng.uniform(1, 1000),
                     counted_closure(&life[next]));
  for (; next < kN; ++next) {
    loop.schedule_at(loop.now() + rng.uniform(1, 1000),
                     counted_closure(&life[next]));
    loop.step();
  }
  loop.run();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(life[i].runs, 1) << "closure " << i;
    EXPECT_LE(life[i].moves_at_run, 1) << "closure " << i;
    EXPECT_EQ(life[i].destroys, 1) << "closure " << i;
  }
}

TEST(ClosureLifecycle, PrebuiltInlineFnIsMovedAtMostTwice) {
  // The Link::transmit_burst shape: the closure is built into an InlineFn
  // first, then handed to schedule_at.
  constexpr std::size_t kN = 600;
  std::vector<Lifecycle> life(kN);
  sim::EventLoop loop;
  for (std::size_t i = 0; i < kN; ++i) {
    sim::InlineFn deliver(counted_closure(&life[i]));
    loop.schedule_at(kN - i, std::move(deliver));
  }
  loop.run();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(life[i].runs, 1) << "closure " << i;
    EXPECT_LE(life[i].moves_at_run, 2) << "closure " << i;
    EXPECT_EQ(life[i].destroys, 1) << "closure " << i;
  }
}

TEST(ClosureLifecycle, ClosureRunsInPlaceWhileItGrowsTheSlab) {
  // The running closure schedules enough events to add slab chunks, then
  // reads its own capture: chunks never move, so the capture is intact
  // (ASan would flag a relocated slab as use-after-free).
  Lifecycle outer;
  std::vector<Lifecycle> inner(3 * sim::EventLoop::kChunkSlots);
  sim::EventLoop loop;
  loop.schedule_at(1, [c = Counted(&outer), &loop, &inner] {
    for (Lifecycle& l : inner) loop.schedule_at(2, counted_closure(&l));
    ++c.life->runs;
  });
  loop.run();
  EXPECT_EQ(outer.runs, 1);
  EXPECT_EQ(outer.destroys, 1);
  for (const Lifecycle& l : inner) {
    EXPECT_EQ(l.runs, 1);
    EXPECT_EQ(l.destroys, 1);
  }
}

TEST(ClosureLifecycle, TeardownDestroysPendingCapturesAndReturnsPoolNodes) {
  PoolGuard guard;
  net::BufferPool::set_enabled(true);
  net::BurstPool::trim();
  net::BurstPool::reset_stats();
  const std::uint64_t bufs0 = net::BufferPool::stats().outstanding;

  constexpr std::size_t kN = 600;
  std::vector<Lifecycle> life(kN);
  {
    sim::EventLoop loop;
    sim::PdesMailbox box;
    for (std::size_t i = 0; i < kN / 2; ++i)
      loop.schedule_at(i + 1, burst_closure(&life[i]));
    for (std::size_t i = kN / 2; i < kN; ++i)
      box.push(sim::PdesMail{i + 1, 0, sim::EventLoop::Stamp{0, 1, i},
                             sim::InlineFn(burst_closure(&life[i]))});
    loop.run_until(100);  // runs closures 0..99
    // Moves 50 messages into the loop; 250 stay in the mailbox.
    sim::PdesMail m;
    for (int k = 0; k < 50; ++k) {
      ASSERT_TRUE(box.try_pop(m));
      loop.inject(m.t, m.key, m.stamp, std::move(m.fn));
    }
    EXPECT_EQ(loop.pending(), kN / 2 - 100 + 50);
    EXPECT_EQ(bursts_outstanding(), kN - 100);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(life[i].runs, i < 100 ? 1 : 0) << "closure " << i;
    EXPECT_EQ(life[i].destroys, 1) << "closure " << i;
  }
  EXPECT_EQ(bursts_outstanding(), 0u);
  EXPECT_EQ(net::BufferPool::stats().outstanding, bufs0);
}

// ---- RxRing -----------------------------------------------------------------

TEST(RxRing, FifoAcrossWraparoundAndLimit) {
  sim::RxRing ring;
  const std::size_t limit = 8;
  std::deque<std::uint32_t> model;  // seqs the ring must pop, in order
  std::uint32_t next_seq = 0;
  auto push_one = [&] {
    net::Packet p{std::span<const std::uint8_t>({0x60, 0, 0, 0})};
    p.seq = next_seq++;
    const bool accepted = ring.push(std::move(p), limit);
    if (accepted) model.push_back(next_seq - 1);
    return accepted;
  };
  // Interleaved fill/drain wraps the head around the slot array repeatedly
  // and exercises the at-limit tail drop every round.
  for (int round = 0; round < 12; ++round) {
    while (ring.size() < limit) ASSERT_TRUE(push_one());
    EXPECT_FALSE(push_one()) << "ring must tail-drop at the limit";
    for (int k = 0; k < 5; ++k) {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.pop().seq, model.front());
      model.pop_front();
    }
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop().seq, model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
}

// A seeded mix of push / pop / evict_oldest / flush under a limit that is
// raised, lowered below the current depth and raised again, checked against
// a std::deque model: order, admissions, overflow count and the slot
// storage bound. Drains to empty (head rewinds) happen throughout.
TEST(RxRing, RandomOperationsMatchDequeModelAcrossGrowthAndRewind) {
  sim::RxRing ring;
  std::deque<std::uint32_t> model;
  Rng rng(0x41e6);
  std::uint32_t next_seq = 0;
  std::uint64_t overflows = 0;
  std::size_t largest_limit = 0, drains = 0, lowered_below_depth = 0;
  std::vector<std::size_t> capacities;  // each distinct value, in order
  const std::size_t limits[] = {1, 8, 3, 40, 5, 200, 2, 64, 512, 17};
  const std::size_t phases = std::size(limits);
  for (std::size_t k = 0; k < phases; ++k) {
    for (int op = 0; op < 4000; ++op) {
      // Each phase fills toward its limit, then drains (and may flush)
      // under the next phase's limit, which may sit below the depth.
      const bool fill = op < 2000;
      const std::size_t limit = limits[fill ? k : (k + 1) % phases];
      largest_limit = std::max(largest_limit, limit);
      if (op == 2000 && model.size() > limit) ++lowered_below_depth;
      const std::uint64_t push_pct = fill ? 70 : 30;
      const std::uint64_t dice = rng.uniform(0, 99);
      if (dice < push_pct) {
        net::Packet p;
        const std::uint32_t seq = next_seq++;
        p.seq = seq;
        const bool admitted = ring.push(std::move(p), limit);
        ASSERT_EQ(admitted, model.size() < limit) << "limit " << limit;
        if (admitted)
          model.push_back(seq);
        else
          ++overflows;
      } else if (dice < 95) {
        if (model.empty()) continue;
        ASSERT_EQ(ring.pop().seq, model.front());
        model.pop_front();
        if (model.empty()) ++drains;
      } else if (dice < 99 || fill) {
        if (model.empty()) continue;
        ASSERT_EQ(ring.evict_oldest().seq, model.front());
        model.pop_front();
        ++overflows;
      } else {
        ring.flush([&](net::Packet&& p) {
          ASSERT_FALSE(model.empty());
          EXPECT_EQ(p.seq, model.front());
          model.pop_front();
        });
        ASSERT_TRUE(model.empty());
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_LE(ring.capacity(), largest_limit);
      if (capacities.empty() || capacities.back() != ring.capacity())
        capacities.push_back(ring.capacity());
    }
  }
  ring.flush([&](net::Packet&& p) {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(p.seq, model.front());
    model.pop_front();
  });
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(ring.overflows(), overflows);
  // The run must have exercised what it claims to: storage only grows, in
  // at least nine steps up to the 512 limit, with many drain-to-empty
  // rewinds along the way.
  EXPECT_TRUE(std::is_sorted(capacities.begin(), capacities.end()));
  EXPECT_GE(capacities.size(), 9u);
  EXPECT_EQ(capacities.back(), 512u);
  EXPECT_GT(drains, 100u);
  EXPECT_GE(lowered_below_depth, 3u);
}

TEST(RxRing, CapacityFollowsTheDeepestBacklogNotTheLimit) {
  sim::RxRing ring;
  for (int i = 0; i < 1000; ++i) {  // bursts of one: one hot slot
    ASSERT_TRUE(ring.push(net::Packet{}, 512));
    ring.pop();
  }
  EXPECT_EQ(ring.capacity(), 1u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.push(net::Packet{}, 512));
  EXPECT_EQ(ring.capacity(), 8u);
  // Growth stops at the limit of the push that triggers it.
  sim::RxRing capped;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(capped.push(net::Packet{}, 6));
  EXPECT_FALSE(capped.push(net::Packet{}, 6));
  EXPECT_EQ(capped.capacity(), 6u);
}

TEST(RxRing, WarmedToDepthAllocatesNothingAtOrBelowIt) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  constexpr std::size_t kDepth = 37;
  sim::RxRing ring;
  for (std::size_t i = 0; i < kDepth; ++i)
    ASSERT_TRUE(ring.push(net::Packet{}, 512));
  while (!ring.empty()) ring.pop();

  Rng rng(0xd3e9);
  const util::AllocCounters before = util::alloc_counters();
  for (int op = 0; op < 100000; ++op) {
    if (ring.size() < kDepth && (ring.empty() || rng.chance(0.5)))
      ring.push(net::Packet{}, 512);
    else
      ring.pop();
  }
  const util::AllocCounters after = util::alloc_counters();
  EXPECT_EQ(after.news - before.news, 0u);
}

// ---- recycling correctness + the zero-allocation window ---------------------

// FNV-1a over little-endian u64s + every delivered payload byte: arrival
// time, generator seq and full packet bytes all go in, so a single recycled
// buffer leaking stale state or a timing shift flips the digest.
struct Digest {
  std::uint64_t delivered = 0;
  std::uint64_t fnv = 1469598103934665603ull;
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (i * 8)) & 0xff;
      fnv *= 1099511628211ull;
    }
  }
  void mix_bytes(std::span<const std::uint8_t> b) {
    for (const std::uint8_t x : b) {
      fnv ^= x;
      fnv *= 1099511628211ull;
    }
  }
};

struct Fig2Lab {
  sim::Network net{0xbead};
  sim::Node& s1;
  sim::Node& r;
  sim::Node& s2;
  apps::AppMux mux;
  Digest dig;
  sim::Network::Attachment l1, l2;

  Fig2Lab()
      : s1(net.add_node("S1")), r(net.add_node("R")), s2(net.add_node("S2")),
        mux(s2),
        l1(net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"),
                       10ull * 1000 * 1000 * 1000, 10 * sim::kMicro)),
        l2(net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"),
                       10ull * 1000 * 1000 * 1000, 10 * sim::kMicro)) {
    s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l1.a_ifindex, 1});
    r.ns().table(0).add_route(P("fc00:2::/64"),
                              {net::Ipv6Addr{}, l2.a_ifindex, 1});
    r.ns().table(0).add_route(P("fc00:1::/64"),
                              {net::Ipv6Addr{}, l1.b_ifindex, 1});
    s2.ns().table(0).add_route(P("::/0"), {A("fc00:2::1"), l2.b_ifindex, 1});
    r.cpu.enabled = true;
    r.cpu.profile = sim::kXeonProfile;

    auto built = usecases::build_tag_increment();
    auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                  built.insns, built.paper_sloc);
    EXPECT_TRUE(load.ok()) << load.verify.error;
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = load.prog;
    r.ns().seg6local().add(A("fc00:f::1"), e);

    mux.on_udp(7001, [this](const net::Packet& pkt, const net::UdpHeader&,
                            std::span<const std::uint8_t>, sim::TimeNs now) {
      ++dig.delivered;
      dig.mix_u64(now);
      dig.mix_u64(pkt.seq);
      dig.mix_bytes(pkt.bytes());
    });
  }

  apps::TrafGen::Config gen_config(bool use_template) const {
    apps::TrafGen::Config cfg;
    cfg.spec.src = A("fc00:1::1");
    cfg.spec.dst = A("fc00:2::2");
    cfg.spec.segments = {A("fc00:f::1"), A("fc00:2::2")};
    cfg.spec.dst_port = 7001;
    cfg.spec.payload_size = 64;
    cfg.pps = 800e3;  // past one Xeon core: queues build and drops happen
    cfg.src_port_spread = 7;
    cfg.flow_label_spread = 4;
    cfg.duration = 10 * sim::kMilli;
    cfg.use_template = use_template;
    return cfg;
  }
};

struct Fig2Result {
  Digest dig;
  sim::NodeStats router;
};

Fig2Result run_fig2(bool pooled, bool use_template) {
  net::BufferPool::set_enabled(pooled);
  Fig2Lab lab;
  apps::TrafGen gen(lab.s1, lab.gen_config(use_template));
  gen.start();
  lab.net.run_for(sim::kSecond);
  return {lab.dig, lab.r.stats()};
}

TEST(Recycling, PooledRecycledAndDisabledRunsAreBitIdentical) {
  PoolGuard guard;
  net::BufferPool::trim();

  const Fig2Result pooled = run_fig2(/*pooled=*/true, /*use_template=*/true);
  ASSERT_GT(pooled.dig.delivered, 1000u);
  EXPECT_GT(pooled.router.drops_rx_queue, 0u) << "scenario must saturate R";

  // Second pooled run: every buffer comes off the freelist populated with
  // the previous run's bytes — recycling must not leak any of them.
  EXPECT_GT(net::BufferPool::stats().pooled, 0u);
  const Fig2Result recycled = run_fig2(/*pooled=*/true, /*use_template=*/true);
  EXPECT_EQ(recycled.dig.fnv, pooled.dig.fnv);
  EXPECT_EQ(recycled.dig.delivered, pooled.dig.delivered);

  // Pool disabled: acquire/release degrade to new/delete; the simulation
  // must not notice.
  const Fig2Result heap = run_fig2(/*pooled=*/false, /*use_template=*/true);
  EXPECT_EQ(heap.dig.fnv, pooled.dig.fnv);
  EXPECT_EQ(heap.dig.delivered, pooled.dig.delivered);
  EXPECT_EQ(heap.router.service_events, pooled.router.service_events);
  EXPECT_EQ(heap.router.tx_packets, pooled.router.tx_packets);
  EXPECT_TRUE(heap.router.pipeline == pooled.router.pipeline);
}

TEST(Recycling, TemplateStampedPacketsMatchRebuiltPackets) {
  PoolGuard guard;
  // The generator's two paths — pooled template stamp vs per-packet
  // make_udp_packet rebuild — must emit bit-identical traffic (the digest
  // covers every delivered byte, ports, labels and checksums included).
  const Fig2Result stamped = run_fig2(/*pooled=*/true, /*use_template=*/true);
  const Fig2Result rebuilt = run_fig2(/*pooled=*/true, /*use_template=*/false);
  ASSERT_GT(stamped.dig.delivered, 1000u);
  EXPECT_EQ(stamped.dig.fnv, rebuilt.dig.fnv);
  EXPECT_EQ(stamped.dig.delivered, rebuilt.dig.delivered);
}

TEST(ZeroAlloc, WarmedFig2WindowPerformsNoAllocations) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  PoolGuard guard;
  net::BufferPool::set_enabled(true);

  Fig2Lab lab;
  apps::TrafGen::Config cfg = lab.gen_config(/*use_template=*/true);
  cfg.pps = 3e6;  // the paper's offered load: saturation + rx-queue drops
  cfg.duration = 60 * sim::kMilli;
  apps::TrafGen gen(lab.s1, cfg);
  gen.start();

  // Warm-up fills the RX rings to their limit, the event loop's slab and
  // heap storage and the pools.
  lab.net.run_for(20 * sim::kMilli);
  const std::uint64_t delivered0 = lab.dig.delivered;
  const util::AllocCounters before = util::alloc_counters();
  lab.net.run_for(30 * sim::kMilli);
  const util::AllocCounters after = util::alloc_counters();
  const std::uint64_t window_pkts = lab.dig.delivered - delivered0;

  EXPECT_GT(window_pkts, 10000u) << "window must have moved real traffic";
  EXPECT_EQ(after.news - before.news, 0u)
      << "steady-state forwarding allocated on the heap ("
      << (after.news - before.news) << " operator-new calls over "
      << window_pkts << " delivered packets)";
}

// The 56-node ring sealed into its 8 PDES domains and run on one worker:
// below router capacity, so every service event drains a burst of one and
// every long-haul delivery crosses a mailbox. Lazy RX-ring growth, the
// event slabs and the pools must all settle during warm-up.
TEST(ZeroAlloc, WarmedRingWindowPerformsNoAllocations) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  PoolGuard guard;
  net::BufferPool::set_enabled(true);

  sim::Network net(0x816);
  const sim::RingTopoSpec spec;
  sim::RingTopo topo = build_ring_topology(net, spec);
  net.set_domain_count(spec.segments);
  net.seal_domains();

  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<apps::AppMux>> muxes;
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  for (const sim::RingTopo::Segment& seg : topo.segments) {
    muxes.push_back(std::make_unique<apps::AppMux>(*seg.sink));
    muxes.back()->on_udp(
        7001, [&delivered](const net::Packet&, const net::UdpHeader&,
                           std::span<const std::uint8_t>,
                           sim::TimeNs) { ++delivered; });
    apps::TrafGen::Config cfg;
    cfg.spec.src = seg.src_addr;
    cfg.spec.dst = seg.dst_addr;
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = 450e3;
    cfg.flow_label_spread = 16;
    cfg.src_port_spread = 7;
    cfg.duration = 60 * sim::kMilli;
    gens.push_back(std::make_unique<apps::TrafGen>(*seg.src, cfg));
    gens.back()->start();
  }

  net.run_parallel_for(20 * sim::kMilli, 1);
  const std::uint64_t delivered0 = delivered;
  const util::AllocCounters before = util::alloc_counters();
  net.run_parallel_for(30 * sim::kMilli, 1);
  const util::AllocCounters after = util::alloc_counters();
  const std::uint64_t window_pkts = delivered - delivered0;

  EXPECT_GT(window_pkts, 50000u) << "window must have moved real traffic";
  sim::NodeStats routers;
  for (const sim::RingTopo::Segment& seg : topo.segments)
    for (const sim::Node* r : seg.routers) routers += r->stats();
  EXPECT_EQ(routers.serviced_packets, routers.service_events)
      << "the ring must run bursts of one";
  EXPECT_EQ(after.news - before.news, 0u)
      << "steady-state ring forwarding allocated on the heap ("
      << (after.news - before.news) << " operator-new calls over "
      << window_pkts << " delivered packets)";
}

TEST(ZeroAlloc, EventLoopSlabGrowsOnlyDuringWarmUp) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  constexpr std::size_t kDepth = 700;
  static_assert(kDepth > 2 * sim::EventLoop::kChunkSlots,
                "warm-up must cross chunk boundaries");
  sim::EventLoop loop;
  Rng rng(0x51ab);
  std::uint64_t ran = 0;
  auto fill = [&] {
    while (loop.pending() < kDepth)
      loop.schedule_at(loop.now() + rng.uniform(1, 1000), [&ran] { ++ran; });
  };
  // Warm-up: grow to the depth, then drain.
  fill();
  loop.run();

  const util::AllocCounters before = util::alloc_counters();
  fill();
  for (int i = 0; i < 100000; ++i) {
    loop.step();
    loop.schedule_at(loop.now() + rng.uniform(1, 1000), [&ran] { ++ran; });
  }
  loop.run();
  const util::AllocCounters after = util::alloc_counters();

  EXPECT_EQ(ran, 2 * kDepth + 100000);
  EXPECT_EQ(after.news - before.news, 0u)
      << "a steady-state window at the warmed depth allocated";
}

}  // namespace
}  // namespace srv6bpf
