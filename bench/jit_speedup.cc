// §3.2 JIT experiment — the cost of running eBPF on the interpreter.
//
// Two complementary measurements:
//  1. *Real* wall-clock per-packet cost of End.BPF with the JIT on (native
//     x86-64 code) and off (the pre-decoded interpreter) on the paper's
//     programs (honest numbers for THIS machine);
//  2. the *simulated* forwarding-rate factor on the modelled Xeon, which is
//     what reproduces the paper's "divided by 1.8" observation (the model's
//     per-instruction interpreter cost is calibrated against it, see
//     sim/costmodel.h).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "seg6/seg6local.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

// Wall-clock ns/run of a seg6local program processed through End.BPF.
double wallclock_ns_per_run(const usecases::BuiltProgram& built, bool jit,
                            int iters = 20000) {
  seg6::Netns ns("bench");
  ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                        {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
  ns.bpf().set_jit_enabled(jit);
  auto load = ns.bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                            built.insns, built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "%s rejected: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;

  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("fc00::1");
  spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                   net::Ipv6Addr::must_parse("fc00::d1")};
  spec.payload_size = 64;
  const net::Packet tmpl = net::make_udp_packet(spec);

  seg6::ProcessTrace trace;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    net::Packet pkt = tmpl;
    seg6local_process(ns, pkt, e, &trace);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// Simulated forwarding rate of Add TLV through R (as in fig2).
double simulated_kpps(bool jit) {
  Setup1 lab;
  lab.r->ns().bpf().set_jit_enabled(jit);
  auto built = usecases::build_add_tlv();
  auto load = lab.r->ns().bpf().load(
      built.name, ebpf::ProgType::kLwtSeg6Local, built.insns, built.paper_sloc);
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  lab.r->ns().seg6local().add(lab.sid, e);
  return lab.measure(true, 3e6, 150 * sim::kMilli);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: CI smoke mode — shorter measurement windows, same coverage.
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const int iters = quick ? 2000 : 20000;

  print_header("JIT vs interpreter",
               "disabling the JIT divides Add-TLV forwarding by ~1.8; the "
               "factor grows with program size");

  std::printf("native x86-64 JIT: %s\n",
              ebpf::native_jit_available()
                  ? "available"
                  : "unavailable (JIT on falls back to the interpreter)");
  std::printf("\n-- real engine wall-clock on this machine (End.BPF + "
              "program + helpers, per packet) --\n");
  std::printf("%-16s %14s %14s %9s\n", "program", "JIT on ns/pkt",
              "JIT off ns/pkt", "off/on");
  const usecases::BuiltProgram progs[] = {
      usecases::build_end(),
      usecases::build_tag_increment(),
      usecases::build_add_tlv(),
  };
  for (const auto& p : progs) {
    const double on_ns = wallclock_ns_per_run(p, true, iters);
    const double off_ns = wallclock_ns_per_run(p, false, iters);
    std::printf("%-16s %14.1f %14.1f %8.2fx\n", p.name, on_ns, off_ns,
                off_ns / on_ns);
  }

  std::printf("\n-- simulated Xeon forwarding rate, Add TLV (fig. 2 "
              "rightmost bars) --\n");
  const double with_jit = simulated_kpps(true);
  const double without = simulated_kpps(false);
  std::printf("JIT on : %10.1f kpps\n", with_jit);
  std::printf("JIT off: %10.1f kpps\n", without);
  std::printf("factor : %10.2fx   (paper ~1.8x)\n", with_jit / without);
  return 0;
}
