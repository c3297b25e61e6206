// The paper's setup 1 (§3.2) as the saturation lab of the forwarding-rate
// gates: S1 - R - S2 over 10 Gbps links, R's CPU modelled as one Xeon core,
// a UDP sink on S2 port 7001. S1 offers 3 Mpps of 64-byte packets, more than
// R can forward, and the gate is the sink's receive rate over a window after
// a 30 ms warm-up. That rate is a function of simulated time only, so the
// floors asserted on it hold on any host.
#pragma once

#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::testlab {

struct SaturationLab {
  static constexpr double kOfferedPps = 3e6;
  static constexpr sim::TimeNs kWarmUp = 30 * sim::kMilli;
  static constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;

  sim::Network net{0xbead};
  sim::Node& s1;
  sim::Node& r;
  sim::Node& s2;
  net::Ipv6Addr s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  net::Ipv6Addr s2_addr = net::Ipv6Addr::must_parse("fc00:2::2");
  net::Ipv6Addr sid = net::Ipv6Addr::must_parse("fc00:f::1");
  sim::Network::Attachment l1, l2;
  apps::AppMux mux;
  std::unique_ptr<apps::UdpSink> sink;
  std::unique_ptr<apps::TrafGen> gen;

  SaturationLab()
      : s1(net.add_node("S1")), r(net.add_node("R")), s2(net.add_node("S2")),
        l1(net.connect(s1, s1_addr, r, net::Ipv6Addr::must_parse("fc00:1::2"),
                       kTenGig, 10 * sim::kMicro)),
        l2(net.connect(r, net::Ipv6Addr::must_parse("fc00:2::1"), s2, s2_addr,
                       kTenGig, 10 * sim::kMicro)),
        mux(s2), sink(std::make_unique<apps::UdpSink>(mux, 7001)) {
    const auto any = net::Prefix::parse("::/0").value();
    s1.ns().table(0).add_route(
        any, {net::Ipv6Addr::must_parse("fc00:1::2"), l1.a_ifindex, 1});
    r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                              {net::Ipv6Addr{}, l2.a_ifindex, 1});
    r.ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                              {net::Ipv6Addr{}, l1.b_ifindex, 1});
    s2.ns().table(0).add_route(
        any, {net::Ipv6Addr::must_parse("fc00:2::1"), l2.b_ifindex, 1});
    r.cpu.enabled = true;
    r.cpu.profile = sim::kXeonProfile;
  }

  // Binds the paper's End program (usecases::build_end) to `sid` on R as an
  // End.BPF behaviour.
  void add_end_bpf() {
    const usecases::BuiltProgram built = usecases::build_end();
    auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                  built.insns, built.paper_sloc);
    ASSERT_TRUE(load.ok()) << load.verify.error;
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = load.prog;
    r.ns().seg6local().add(sid, e);
  }

  // Routes `routes` /48 sites 2001:db8:<i>::/48 from R toward S2 and makes
  // 2001:db8:<i>::2 local on S2: with TrafGen::Config::dst_spread cycling
  // the sites, the one-entry route cache never answers and R's LPM trie
  // carries every lookup.
  void add_fib48(std::size_t routes) {
    char buf[64];
    for (std::size_t i = 0; i < routes; ++i) {
      std::snprintf(buf, sizeof buf, "2001:db8:%zx::/48", i);
      r.ns().table(0).add_route(net::Prefix::parse(buf).value(),
                                {net::Ipv6Addr{}, l2.a_ifindex, 1});
      std::snprintf(buf, sizeof buf, "2001:db8:%zx::2", i);
      s2.ns().add_local_addr(net::Ipv6Addr::must_parse(buf));
    }
  }

  // 3 Mpps of 64-byte UDP to the sink port, through `sid` when asked.
  apps::TrafGen::Config offer(bool through_sid) const {
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    if (through_sid) cfg.spec.segments = {sid, s2_addr};
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = kOfferedPps;
    return cfg;
  }

  // Starts `cfg` for the warm-up plus `window` (and a tail), runs the
  // warm-up that fills R's RX rings, the event slabs and the pools, then
  // resets the sink so that only the window is metered.
  void warm_up(apps::TrafGen::Config cfg, sim::TimeNs window) {
    cfg.start_at = net.now();
    cfg.duration = kWarmUp + window + 50 * sim::kMilli;
    gen = std::make_unique<apps::TrafGen>(s1, cfg);
    gen->start();
    net.run_for(kWarmUp);
    sink->reset();
  }

  // Runs `window` and returns the sink's receive rate over it in kpps.
  double run_window(sim::TimeNs window) {
    const sim::TimeNs t0 = net.now();
    net.run_for(window);
    return sink->meter().kpps(net.now() - t0);
  }

  double measure(const apps::TrafGen::Config& cfg, sim::TimeNs window) {
    warm_up(cfg, window);
    return run_window(window);
  }
};

}  // namespace srv6bpf::testlab
