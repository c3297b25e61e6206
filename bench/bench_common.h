// Shared scaffolding for the paper-reproduction benchmarks: the setup-1
// topology (S1 - R - S2, R's CPU modelled) and the saturation measurement
// loop (offer more load than R can forward, count what the sink receives —
// exactly the paper's §3.2 methodology).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/exec.h"
#include "ebpf/interp.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::bench {

// The paper's lab: 3 servers, 10 Gbps NICs, all interrupts on one core of R.
struct Setup1 {
  sim::Network net{0xbead};
  sim::Node* s1;
  sim::Node* r;
  sim::Node* s2;
  net::Ipv6Addr s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  net::Ipv6Addr r_if0 = net::Ipv6Addr::must_parse("fc00:1::2");
  net::Ipv6Addr r_if1 = net::Ipv6Addr::must_parse("fc00:2::1");
  net::Ipv6Addr s2_addr = net::Ipv6Addr::must_parse("fc00:2::2");
  net::Ipv6Addr sid = net::Ipv6Addr::must_parse("fc00:f::1");
  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;
  std::unique_ptr<apps::TrafGen> gen;
  int r_upstream_if = 0;
  int r_downstream_if = 0;

  Setup1() {
    s1 = &net.add_node("S1");
    r = &net.add_node("R");
    s2 = &net.add_node("S2");
    const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
    auto l1 = net.connect(*s1, s1_addr, *r, r_if0, kTenGig, 10 * sim::kMicro);
    auto l2 = net.connect(*r, r_if1, *s2, s2_addr, kTenGig, 10 * sim::kMicro);
    r_upstream_if = l1.b_ifindex;
    r_downstream_if = l2.a_ifindex;

    s1->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                                {r_if0, l1.a_ifindex, 1});
    r->ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                               {net::Ipv6Addr{}, l2.a_ifindex, 1});
    r->ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                               {net::Ipv6Addr{}, l1.b_ifindex, 1});
    s2->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                                {r_if1, l2.b_ifindex, 1});

    r->cpu.enabled = true;
    r->cpu.profile = sim::kXeonProfile;

    mux = std::make_unique<apps::AppMux>(*s2);
    sink = std::make_unique<apps::UdpSink>(*mux, 7001);
  }

  // Offers `pps` of 64-byte-payload UDP (with or without an SRH through the
  // SID on R) for `duration`, then reports the sink's receive rate in kpps.
  double measure(bool through_sid, double pps, sim::TimeNs duration) {
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    if (through_sid) cfg.spec.segments = {sid, s2_addr};
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.start_at = net.now();
    cfg.duration = duration + 50 * sim::kMilli;
    gen = std::make_unique<apps::TrafGen>(*s1, cfg);
    gen->start();

    net.run_for(30 * sim::kMilli);  // warm-up
    sink->reset();
    const sim::TimeNs t0 = net.now();
    net.run_for(duration);
    return sink->meter().kpps(net.now() - t0);
  }
};

// What an engine bench's timed loop runs: BpfSystem::run with
// bpf_jit_enable = 1 or = 0, or the decode-every-step
// Interpreter::run(const Program&) oracle called directly.
enum class Exec { kJitOn, kJitOff, kBaseline };

// Sets `sys` up for `exec` and binds its registries into `env` the way
// BpfSystem::run does, which the baseline bypasses.
inline void prepare(ebpf::BpfSystem& sys, ebpf::ExecEnv& env, Exec exec) {
  sys.set_jit_enabled(exec == Exec::kJitOn);
  env.maps = &sys.maps();
  env.helpers = &sys.helpers();
}

inline ebpf::ExecResult run_once(const ebpf::BpfSystem& sys,
                                 const ebpf::LoadedProgram& prog,
                                 ebpf::ExecEnv& env, std::uint64_t ctx,
                                 Exec exec) {
  if (exec == Exec::kBaseline)
    return ebpf::Interpreter{}.run(prog.program(), env, ctx);
  return sys.run(prog, env, ctx);
}

inline void print_header(const char* title, const char* paper_note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(paper: %s)\n", paper_note);
  std::printf("==============================================================\n");
}

}  // namespace srv6bpf::bench
