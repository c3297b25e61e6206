#include "probe.h"

#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "seg6/ctx.h"
#include "seg6/seg6local.h"

namespace perfbench {

namespace seg6 = srv6bpf::seg6;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::add(const char* name, std::int64_t start,
                          std::int64_t end, std::int32_t parent,
                          std::uint32_t unit, std::uint32_t items) {
  spans_.push_back(Span{name, start, end, parent, unit, items});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::self_per_item(std::string_view name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.items == 0 || name != s.name) continue;
    const double self = static_cast<double>(s.end_ns - s.start_ns) -
                        children[i];
    out.push_back(self / s.items);
  }
  return out;
}

std::vector<double> SpanLog::router_ns_per_packet() const {
  // Roots of the router tree: the RX call and the datapath call, both
  // carrying the unit's packet count.
  std::unordered_map<std::uint32_t, std::pair<double, std::uint32_t>> units;
  for (const Span& s : spans_) {
    const std::string_view n = s.name;
    if (n != "sim.node.rx" && n != "sim.datapath") continue;
    auto& u = units[s.unit];
    u.first += static_cast<double>(s.end_ns - s.start_ns);
    u.second = s.items;
  }
  std::vector<double> out;
  for (const auto& [unit, u] : units)
    if (u.second > 0) out.push_back(u.first / u.second);
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tunit\titems\n");
  for (const Span& s : spans_)
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%u\t%u\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.unit, s.items);
  return std::fclose(f) == 0;
}

namespace {

// Runs the workload's own generators (same seeded configs) on a detached
// node that owns every destination they target, and keeps the bytes of
// the first `n` packets: the router's input stream, in arrival order.
std::vector<std::vector<std::uint8_t>> capture_inputs(
    const Lab& lab, const std::vector<net::Ipv6Addr>& dsts, std::size_t n) {
  sim::EventLoop loop;
  srv6bpf::Rng rng(1);
  sim::Node node(loop, rng, "capture");
  for (const net::Ipv6Addr& a : dsts) node.ns().add_local_addr(a);
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(n);
  node.set_local_handler([&out, n](net::Packet&& p, sim::TimeNs) {
    if (out.size() < n) out.emplace_back(p.data(), p.data() + p.size());
  });
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  for (const std::size_t k : lab.probe.input_gens) {
    apps::TrafGen::Config cfg = lab.gen_cfgs[k];
    cfg.duration = sim::kSecond * 60;
    gens.push_back(std::make_unique<apps::TrafGen>(node, cfg));
    gens.back()->start();
  }
  while (out.size() < n && loop.step()) {
  }
  if (out.size() < n)
    throw std::runtime_error("capture: the generators produced too few "
                             "packets for the probed router");
  return out;
}

}  // namespace

Prober::Prober(WorkloadId w, std::uint64_t seed, std::size_t burst,
               std::size_t capture)
    : replica_(build_lab(w, seed, 1, /*partition=*/false)),
      dsts_(probe_input_dsts(*replica_)),
      captured_(capture_inputs(*replica_, dsts_, capture)),
      burst_(std::clamp<std::size_t>(burst, 1, net::kMaxBurstPackets)),
      rng_(seed ^ 0x7072'6f62'65ull) {}

Prober::~Prober() = default;

net::Packet Prober::input(std::size_t i) const {
  const std::vector<std::uint8_t>& b = captured_[i % captured_.size()];
  net::Packet p;
  std::memcpy(p.push_front(b.size()), b.data(), b.size());
  return p;
}

void Prober::drain() { replica_->net.loop().run(); }

void Prober::sample(Lab& live) {
  pending_.push_back(static_cast<double>(live.pending()));
  const std::size_t first = next_;
  next_ = (next_ + burst_) % captured_.size();
  // The live run between probes evicts the replica from the caches. A
  // first pass over the previous burst, not recorded, warms the code and
  // the shared structures again without pre-touching this burst's own
  // destinations; the second pass is the measured one.
  replay(first + captured_.size() - burst_, live.churn != nullptr, false);
  replay(first, live.churn != nullptr, true);
}

void Prober::replay(std::size_t first, bool churn, bool record) {
  const std::uint32_t unit = record ? ++unit_ : 0;
  auto span = [this, record, unit](const char* name, std::int64_t t0,
                                   std::int64_t t1, std::int32_t parent,
                                   std::uint32_t items) {
    return record ? log_.add(name, t0, t1, parent, unit, items) : -1;
  };
  const ProbePoint& pp = replica_->probe;
  sim::Node& router = *pp.router;
  seg6::Netns& ns = router.ns();
  const std::size_t n = burst_;
  const sim::TimeNs t_now = replica_->net.now();
  auto burst = [&] {
    net::PacketBurst b;
    for (std::size_t i = 0; i < n; ++i) b.push(input(first + i), t_now);
    return b;
  };
  const auto items = static_cast<std::uint32_t>(n);

  // RX, RSS steering and ring enqueue on the CPU-modelled path.
  {
    net::PacketBurst b = burst();
    router.cpu.enabled = true;
    const std::int64_t t0 = now_ns();
    router.receive_burst_from_link(std::move(b), pp.in_ifindex);
    const std::int64_t t1 = now_ns();
    span("sim.node.rx", t0, t1, -1, items);
    drain();
  }
  // The whole datapath, run synchronously with the CPU model off:
  // classify, seg6local, eBPF, FIB, ECMP, dispatch and link transmit.
  std::int32_t dp = -1;
  {
    net::PacketBurst b = burst();
    router.cpu.enabled = false;
    const std::int64_t t0 = now_ns();
    router.receive_burst_from_link(std::move(b), pp.in_ifindex);
    const std::int64_t t1 = now_ns();
    router.cpu.enabled = true;
    dp = span("sim.datapath", t0, t1, -1, items);
    drain();
  }

  // Children of the datapath, replayed on fresh copies of the burst.
  std::array<net::Packet, net::kMaxBurstPackets> pk;
  std::array<bool, net::kMaxBurstPackets> dropped{};
  for (std::size_t i = 0; i < n; ++i) pk[i] = input(first + i);

  // seg6local, run-grouped by destination as the datapath groups it.
  for (std::size_t i = 0; i < n;) {
    const net::Ipv6Addr dst = pk[i].ipv6().dst();
    std::size_t j = i;
    while (j < n && pk[j].ipv6().dst() == dst) ++j;
    const seg6::Seg6LocalEntry* entry = ns.seg6local().lookup(dst);
    if (entry == nullptr) {
      i = j;
      continue;
    }
    const std::size_t m = j - i;
    std::array<net::Packet, net::kMaxBurstPackets> ek;  // for the eBPF replay
    std::array<net::Packet*, net::kMaxBurstPackets> ptrs;
    std::array<seg6::ProcessTrace, net::kMaxBurstPackets> traces;
    std::array<seg6::ProcessTrace*, net::kMaxBurstPackets> tptrs;
    std::array<seg6::PipelineResult, net::kMaxBurstPackets> results;
    for (std::size_t k = 0; k < m; ++k) {
      ek[k] = pk[i + k];
      ptrs[k] = &pk[i + k];
      tptrs[k] = &traces[k];
    }
    const std::int64_t t0 = now_ns();
    seg6::seg6local_process_burst(ns, {ptrs.data(), m}, *entry, tptrs.data(),
                                  results.data());
    const std::int64_t t1 = now_ns();
    const std::int32_t sl =
        span("seg6.seg6local", t0, t1, dp, static_cast<std::uint32_t>(m));
    for (std::size_t k = 0; k < m; ++k)
      dropped[i + k] =
          results[k].disposition == seg6::Disposition::kDrop ||
          results[k].disposition == seg6::Disposition::kLocal;
    if (entry->action == seg6::Seg6Action::kEndBPF && entry->prog) {
      seg6::Seg6BurstRunner runner(ns, *entry->prog);
      for (std::size_t k = 0; k < m; ++k) {
        if (!seg6::srh_advance(ek[k])) continue;
        seg6::ProcessTrace trace;
        runner.prepare(ek[k], &trace);
        const std::int64_t r0 = now_ns();
        ns.bpf().run(*entry->prog, runner.env(), runner.ctx_addr());
        const std::int64_t r1 = now_ns();
        runner.harvest();
        span("ebpf.run", r0, r1, sl, 1);
      }
    }
    i = j;
  }

  // FIB: one lookup per run of equal destinations, through a slot that
  // persists across probes like a CPU context's; items are the packets
  // the lookups resolved.
  const seg6::Fib* fib = ns.find_table(0);
  std::array<const seg6::Route*, net::kMaxBurstPackets> routes{};
  if (fib != nullptr) {
    std::uint32_t looked_up = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n;) {
      if (dropped[i]) {
        ++i;
        continue;
      }
      const net::Ipv6Addr dst = pk[i].ipv6().dst();
      const seg6::Route* route = fib->lookup(dst, slot_);
      std::size_t j = i;
      while (j < n && !dropped[j] && pk[j].ipv6().dst() == dst)
        routes[j++] = route;
      looked_up += static_cast<std::uint32_t>(j - i);
      i = j;
    }
    const std::int64_t t1 = now_ns();
    if (looked_up > 0)
      span("seg6.fib.lookup", t0, t1, dp, looked_up);
  }

  // ECMP: flow hash and nexthop selection per packet.
  {
    std::uint32_t hashed = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (routes[i] == nullptr || routes[i]->nexthops.empty()) continue;
      seg6::Fib::select_nexthop(*routes[i], seg6::flow_hash(pk[i]));
      ++hashed;
    }
    const std::int64_t t1 = now_ns();
    if (hashed > 0) span("seg6.ecmp.hash", t0, t1, dp, hashed);
  }

  // Link transmit of the forwarded packets out of the probed egress.
  {
    net::PacketBurst tx;
    for (std::size_t i = 0; i < n; ++i)
      if (!dropped[i]) tx.push(std::move(pk[i]), t_now);
    const auto sent = static_cast<std::uint32_t>(tx.size());
    if (sent > 0) {
      const std::int64_t t0 = now_ns();
      pp.out_link->transmit_burst(std::move(tx), pp.out_side);
      const std::int64_t t1 = now_ns();
      span("sim.link.tx", t0, t1, dp, sent);
      drain();
    }
  }

  // Control plane: one withdraw + re-add of a seeded /48 (churn only).
  if (churn) {
    seg6::Fib& table = ns.table(0);
    const net::Ipv6Addr& addr = dsts_[rng_.uniform(0, dsts_.size() - 1)];
    if (const seg6::Route* cur = table.lookup(addr)) {
      seg6::Route route = *cur;
      const net::Prefix prefix = route.prefix;
      const std::int64_t t0 = now_ns();
      table.remove_route(prefix);
      table.add_route(std::move(route));
      const std::int64_t t1 = now_ns();
      span("seg6.fib.update", t0, t1, -1, 1);
    }
  }

  // Event core: schedule_at + step at the live queue's sampled depth.
  {
    constexpr std::uint32_t kOps = 64;
    const auto depth = static_cast<std::size_t>(pending_.back());
    sim::EventLoop q;
    for (std::size_t d = 0; d < depth; ++d)
      q.schedule_at(rng_.uniform(1, sim::kMilli), [] {});
    std::array<sim::TimeNs, kOps> at;
    for (auto& t : at) t = rng_.uniform(1, sim::kMilli);
    const std::int64_t t0 = now_ns();
    for (std::uint32_t k = 0; k < kOps; ++k) {
      q.schedule_at(q.now() + at[k], [] {});
      q.step();
    }
    const std::int64_t t1 = now_ns();
    span("sim.event.op", t0, t1, -1, kOps);
  }
}

}  // namespace perfbench
