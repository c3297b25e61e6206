#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "seg6/fib.h"
#include "seg6/seg6local.h"
#include "sim/invariant_auditor.h"
#include "sim/pdes_topo.h"
#include "usecases/programs.h"
#include "util/rng.h"

namespace perfbench {

namespace seg6 = srv6bpf::seg6;
namespace usecases = srv6bpf::usecases;
using srv6bpf::Rng;

namespace {

constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
constexpr std::uint16_t kSinkPort = 7001;

// fig2_bpf: three End.BPF SIDs, one generator each. R's modelled capacity
// over this mix is about 500 kpps; 3 x 180 kpps offers just above it.
constexpr double kFig2PpsPerSid = 180000;
// fib_ecmp_churn: every /48 of 2001:db8::/32, two ECMP legs each, and a
// withdraw/re-add pair every 100 us. 1.2 Mpps stays under R's 4 contexts.
constexpr std::size_t kSites = 65536;
constexpr double kChurnPps = 1.2e6;
constexpr sim::TimeNs kChurnPeriod = 100 * sim::kMicro;
// ring_pdes: below the per-router cap, so every packet crosses the chain.
constexpr double kRingPpsPerSegment = 450000;

net::Ipv6Addr site_addr(std::size_t site, std::uint8_t host) {
  std::array<std::uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  b[2] = 0x0d;
  b[3] = 0xb8;
  b[4] = static_cast<std::uint8_t>(site >> 8);
  b[5] = static_cast<std::uint8_t>(site & 0xff);
  b[15] = host;
  return net::Ipv6Addr(b);
}

net::Prefix site_prefix(std::size_t site) {
  return net::Prefix{site_addr(site, 0), 48};
}

// Seeded generator knobs: the flow label and the source port. They change
// every packet's bytes (and, with several CPU contexts, RSS placement), not
// the amount of work. Generator k starts k/n of an interval after the
// first, whatever the seed: the phases set how the streams interleave at
// the router, and with it how the datapath groups them.
void seed_generator(apps::TrafGen::Config& cfg, Rng& rng, std::size_t k,
                    std::size_t n) {
  const auto interval = static_cast<sim::TimeNs>(1e9 / cfg.pps);
  cfg.start_at = interval * k / n;
  cfg.spec.flow_label = static_cast<std::uint32_t>(rng.uniform(1, 0xfffff));
  cfg.spec.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 60000));
}

void add_sink(Lab& lab, sim::Node& node, std::size_t index) {
  auto mux = std::make_unique<apps::AppMux>(node);
  mux->on_udp(kSinkPort,
              [&lab, index](const net::Packet& pkt, const net::UdpHeader&,
                            std::span<const std::uint8_t>, sim::TimeNs now) {
                lab.digests[index].packet(pkt, now);
              });
  lab.muxes.push_back(std::move(mux));
}

void build_fig2(Lab& lab, Rng& rng) {
  sim::Network& net = lab.net;
  sim::Node& s1 = net.add_node("S1");
  sim::Node& r = net.add_node("R");
  sim::Node& s2 = net.add_node("S2");
  lab.nodes = {&s1, &r, &s2};
  lab.routers = {&r};
  const auto s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  const auto s2_addr = net::Ipv6Addr::must_parse("fc00:2::2");
  auto l1 = net.connect(s1, s1_addr, r, net::Ipv6Addr::must_parse("fc00:1::2"),
                        kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(r, net::Ipv6Addr::must_parse("fc00:2::1"), s2, s2_addr,
                        kTenGig, 10 * sim::kMicro);
  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {net::Ipv6Addr{}, l1.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                            {net::Ipv6Addr{}, l1.b_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {net::Ipv6Addr{}, l2.b_ifindex, 1});
  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;

  // The §3.2 programs, verified and JIT-compiled on R, one SID each.
  const usecases::BuiltProgram progs[] = {usecases::build_end(),
                                          usecases::build_tag_increment(),
                                          usecases::build_add_tlv()};
  for (std::size_t k = 0; k < 3; ++k) {
    auto load = r.ns().bpf().load(progs[k].name,
                                  srv6bpf::ebpf::ProgType::kLwtSeg6Local,
                                  progs[k].insns, progs[k].paper_sloc);
    if (!load.ok())
      throw std::runtime_error(std::string("verifier rejected ") +
                               progs[k].name + ": " + load.verify.error);
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = load.prog;
    std::array<std::uint8_t, 16> sid =
        net::Ipv6Addr::must_parse("fc00:f::").bytes();
    sid[15] = static_cast<std::uint8_t>(k + 1);
    r.ns().seg6local().add(net::Ipv6Addr(sid), e);

    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    cfg.spec.segments = {net::Ipv6Addr(sid), s2_addr};
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = kSinkPort;
    cfg.pps = kFig2PpsPerSid;
    seed_generator(cfg, rng, k, 3);
    lab.gen_cfgs.push_back(cfg);
    lab.gen_nodes.push_back(&s1);
    lab.probe.input_gens.push_back(k);
  }
  lab.digests.resize(1);
  add_sink(lab, s2, 0);
  lab.window = 60 * sim::kMilli;
  lab.drain = 5 * sim::kMilli;
  lab.live_routes = r.ns().table(0).routes().size();
  lab.probe.router = &r;
  lab.probe.in_ifindex = l1.b_ifindex;
  lab.probe.out_link = l2.link;
  lab.probe.out_side = 0;
}

}  // namespace

// Control-plane churn on R: one self-rescheduling event that re-adds the
// /48 it withdrew one period earlier and withdraws the next (seeded) one.
class ChurnDriver {
 public:
  ChurnDriver(sim::Node& router, std::vector<seg6::Nexthop> nexthops,
              std::uint64_t seed, sim::TimeNs stop)
      : router_(router), nexthops_(std::move(nexthops)), rng_(seed),
        stop_(stop) {}

  void start(sim::TimeNs at) {
    router_.loop().schedule_at(at, [this] { tick(); });
  }
  std::uint64_t updates() const noexcept { return updates_; }

 private:
  void tick() {
    seg6::Fib& fib = router_.ns().table(0);
    if (withdrawn_) {
      fib.add_route(seg6::Route{site_prefix(*withdrawn_), nexthops_, nullptr,
                                nullptr});
      withdrawn_.reset();
      ++updates_;
    }
    const sim::TimeNs now = router_.loop().now();
    if (now >= stop_) return;
    const std::size_t site = rng_.uniform(0, kSites - 1);
    if (fib.remove_route(site_prefix(site))) {
      withdrawn_ = site;
      ++updates_;
    }
    router_.loop().schedule_at(now + kChurnPeriod, [this] { tick(); });
  }

  sim::Node& router_;
  std::vector<seg6::Nexthop> nexthops_;
  Rng rng_;
  sim::TimeNs stop_;
  std::optional<std::size_t> withdrawn_;
  std::uint64_t updates_ = 0;
};

namespace {

void build_fib_churn(Lab& lab, Rng& rng) {
  sim::Network& net = lab.net;
  sim::Node& s1 = net.add_node("S1");
  sim::Node& r = net.add_node("R");
  sim::Node& s2 = net.add_node("S2");
  lab.nodes = {&s1, &r, &s2};
  lab.routers = {&r};
  const auto s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  auto l1 = net.connect(s1, s1_addr, r, net::Ipv6Addr::must_parse("fc00:1::2"),
                        kTenGig, 10 * sim::kMicro);
  auto la = net.connect(r, net::Ipv6Addr::must_parse("fc00:2::1"), s2,
                        net::Ipv6Addr::must_parse("fc00:2::2"), kTenGig,
                        10 * sim::kMicro);
  auto lb = net.connect(r, net::Ipv6Addr::must_parse("fc00:3::1"), s2,
                        net::Ipv6Addr::must_parse("fc00:3::2"), kTenGig,
                        10 * sim::kMicro);
  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {net::Ipv6Addr{}, l1.a_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {net::Ipv6Addr{}, la.b_ifindex, 1});
  seg6::Fib& fib = r.ns().table(0);
  fib.add_route(net::Prefix::parse("fc00:1::/64").value(),
                {net::Ipv6Addr{}, l1.b_ifindex, 1});
  const std::vector<seg6::Nexthop> legs = {{net::Ipv6Addr{}, la.a_ifindex, 1},
                                           {net::Ipv6Addr{}, lb.a_ifindex, 1}};
  // The covering aggregate catches a site while its /48 is withdrawn.
  fib.add_route(seg6::Route{net::Prefix::parse("2001:db8::/32").value(), legs,
                            nullptr, nullptr});
  for (std::size_t site = 0; site < kSites; ++site) {
    fib.add_route(seg6::Route{site_prefix(site), legs, nullptr, nullptr});
    s2.ns().add_local_addr(site_addr(site, 2));
  }
  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.ncpus = 4;

  apps::TrafGen::Config cfg;
  cfg.spec.src = s1_addr;
  cfg.spec.dst = site_addr(0, 2);
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = kSinkPort;
  cfg.pps = kChurnPps;
  cfg.dst_spread = kSites;
  cfg.flow_label_spread = 64;
  cfg.src_port_spread = 16;
  seed_generator(cfg, rng, 0, 1);
  lab.gen_cfgs.push_back(cfg);
  lab.gen_nodes.push_back(&s1);
  lab.probe.input_gens.push_back(0);

  lab.digests.resize(1);
  add_sink(lab, s2, 0);
  lab.window = 60 * sim::kMilli;
  lab.drain = 5 * sim::kMilli;
  lab.live_routes = fib.routes().size();
  lab.churn = std::make_unique<ChurnDriver>(r, legs, rng.next_u64(),
                                            lab.window);
  lab.probe.router = &r;
  lab.probe.in_ifindex = l1.b_ifindex;
  lab.probe.out_link = la.link;
  lab.probe.out_side = 0;
}

void build_ring(Lab& lab, Rng& rng, std::size_t threads, bool partition) {
  sim::RingTopoSpec spec;  // 8 segments x 5 Xeon routers, 56 nodes
  sim::RingTopo topo = sim::build_ring_topology(lab.net, spec);
  if (partition) {
    lab.net.set_domain_count(spec.segments);
    lab.net.seal_domains();
  }
  lab.threads = std::clamp<std::size_t>(threads, 1, spec.segments);
  lab.digests.resize(spec.segments);
  for (std::size_t s = 0; s < spec.segments; ++s) {
    const sim::RingTopo::Segment& seg = topo.segments[s];
    lab.nodes.push_back(seg.src);
    for (sim::Node* r : seg.routers) {
      lab.nodes.push_back(r);
      lab.routers.push_back(r);
    }
    lab.nodes.push_back(seg.sink);
    add_sink(lab, *seg.sink, s);

    apps::TrafGen::Config cfg;
    cfg.spec.src = seg.src_addr;
    cfg.spec.dst = seg.dst_addr;
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = kSinkPort;
    cfg.pps = kRingPpsPerSegment;
    cfg.flow_label_spread = 16;
    cfg.src_port_spread = 7;
    seed_generator(cfg, rng, s, spec.segments);
    lab.gen_cfgs.push_back(cfg);
    lab.gen_nodes.push_back(seg.src);
  }
  lab.window = 30 * sim::kMilli;
  lab.drain = 2 * sim::kMilli;
  // Probe the first router of segment 0: interface 0 faces the source,
  // interface 1 the next router.
  sim::Node& r0 = *topo.segments[0].routers[0];
  lab.probe.router = &r0;
  lab.probe.in_ifindex = 0;
  lab.probe.out_link = r0.interface_link(1);
  lab.probe.out_side = lab.probe.out_link->side_node(0) == &r0 ? 0 : 1;
  lab.probe.input_gens = {0};
  lab.live_routes = r0.ns().table(0).routes().size();
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  if (name == "fig2_bpf") return WorkloadId::kFig2Bpf;
  if (name == "fib_ecmp_churn") return WorkloadId::kFibEcmpChurn;
  if (name == "ring_pdes") return WorkloadId::kRingPdes;
  return std::nullopt;
}

const char* workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::kFig2Bpf: return "fig2_bpf";
    case WorkloadId::kFibEcmpChurn: return "fib_ecmp_churn";
    case WorkloadId::kRingPdes: return "ring_pdes";
  }
  return "?";
}

void Digest::mix(std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
}

void Digest::packet(const net::Packet& pkt, sim::TimeNs now) {
  ++delivered;
  mix(now);
  mix(pkt.seq);
  mix(pkt.size());
  const std::uint8_t* d = pkt.data();
  const std::size_t n = pkt.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, d + i, 8);
    mix(w);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, d + i, n - i);
  mix(tail);
}

Lab::Lab(WorkloadId id_, std::uint64_t seed_)
    : id(id_), seed(seed_), net(0x5eed0000ull ^ seed_) {}

Lab::~Lab() = default;

void Lab::start() {
  for (std::size_t k = 0; k < gen_cfgs.size(); ++k) {
    apps::TrafGen::Config cfg = gen_cfgs[k];
    cfg.duration = window > cfg.start_at ? window - cfg.start_at : 0;
    gens.push_back(std::make_unique<apps::TrafGen>(*gen_nodes[k], cfg));
    gens.back()->start();
  }
  if (churn) churn->start(kChurnPeriod);
}

void Lab::run_to(sim::TimeNs t) {
  if (net.parallel())
    net.run_parallel_until(t, threads);
  else
    net.run_until(t);
}

std::uint64_t Lab::offered() const {
  std::uint64_t n = 0;
  for (const auto& g : gens) n += g->attempted();
  return n;
}

std::uint64_t Lab::digest() const {
  Digest total;
  for (const Digest& d : digests) {
    total.mix(d.h);
    total.mix(d.delivered);
  }
  return total.h;
}

std::uint64_t Lab::delivered() const {
  std::uint64_t n = 0;
  for (const Digest& d : digests) n += d.delivered;
  return n;
}

std::uint64_t Lab::events_executed() {
  return net.parallel() ? net.pdes_net().events_executed()
                        : net.loop().executed();
}

std::uint64_t Lab::pending() {
  if (!net.parallel()) return net.loop().pending();
  std::uint64_t n = 0;
  sim::PdesNet& p = net.pdes_net();
  for (std::uint32_t d = 0; d < p.domain_count(); ++d)
    n += p.domain_loop(d).pending();
  return n;
}

std::uint64_t Lab::churn_updates() const {
  return churn ? churn->updates() : 0;
}

std::vector<std::string> Lab::audit() {
  sim::InvariantAuditor auditor;
  for (const auto& g : gens)
    auditor.add_source([&gen = *g] { return gen.attempted(); });
  std::set<const sim::Link*> links;
  for (const sim::Node* n : nodes) {
    auditor.add_node(*n);
    for (std::size_t i = 0; i < n->interface_count(); ++i)
      if (const sim::Link* l = n->interface_link(static_cast<int>(i)))
        links.insert(l);
  }
  for (const sim::Link* l : links) auditor.add_link(*l);
  auditor.audit(net.now(), /*final_drain=*/true);
  return auditor.violations();
}

std::unique_ptr<Lab> build_lab(WorkloadId id, std::uint64_t seed,
                               std::size_t threads, bool partition) {
  auto lab = std::make_unique<Lab>(id, seed);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(id) + 1);
  switch (id) {
    case WorkloadId::kFig2Bpf: build_fig2(*lab, rng); break;
    case WorkloadId::kFibEcmpChurn: build_fib_churn(*lab, rng); break;
    case WorkloadId::kRingPdes:
      build_ring(*lab, rng, threads, partition);
      break;
  }
  return lab;
}

std::vector<net::Ipv6Addr> probe_input_dsts(const Lab& lab) {
  std::vector<net::Ipv6Addr> out;
  if (lab.id == WorkloadId::kFibEcmpChurn) {
    // The generator's dst_spread walks every site.
    for (std::size_t site = 0; site < kSites; ++site)
      out.push_back(site_addr(site, 2));
    return out;
  }
  for (const std::size_t k : lab.probe.input_gens) {
    const net::PacketSpec& spec = lab.gen_cfgs[k].spec;
    out.push_back(spec.segments.empty() ? spec.dst : spec.segments.front());
  }
  return out;
}

RouterTotals router_totals(const Lab& lab) {
  RouterTotals t;
  for (sim::Node* r : lab.routers) {
    const sim::NodeStats s = r->stats();
    t.rx += s.rx_packets;
    t.tx += s.tx_packets;
    t.drops += s.total_drops();
    t.drops_rx_queue += s.drops_rx_queue;
    t.service_events += s.service_events;
    t.serviced_packets += s.serviced_packets;
    t.bpf_runs += s.pipeline.bpf_runs;
    t.bpf_insns += s.pipeline.bpf_insns_jit + s.pipeline.bpf_insns_interp;
    t.helper_calls += s.pipeline.helper_calls;
    t.fib_lookups += s.pipeline.fib_lookups;
    for (const auto& entry : r->ns().tables())
      t.fib_cache_hits += entry.second.cache_hits();
  }
  return t;
}

}  // namespace perfbench
