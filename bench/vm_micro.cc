// Microbenchmarks of the eBPF machinery itself.
//
// Part 1 (custom, runs first): engine-only throughput of the three
// executions — the decode-every-step reference oracle (the baseline), the
// pre-decoded threaded interpreter (JIT off) and native x86-64 code (JIT
// on) — on the paper's §3.2 seg6local programs plus a 512-insn ALU chain,
// with results written to BENCH_vm.json. The ratios are host wall-clock,
// so they are printed, not gated. On hosts without native support the native
// column falls back to the interpreter (and its geomean metric will reflect
// ~1x). "Engine-only" means the ExecEnv/ctx are
// built once and the timed loop contains only the VM run (plus a packet
// reset for the one program that resizes it); this isolates what the
// decode-once refactor actually changed.
//
// Part 2: google-benchmark microbenchmarks of dispatch, helper-call, map and
// verifier costs (skipped when --json-only is passed; CI smoke uses that).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "usecases/programs.h"

namespace {

using namespace srv6bpf;
using namespace srv6bpf::ebpf;
using bench::Exec;
using bench::prepare;
using bench::run_once;

// Straight-line ALU program of ~n instructions (no loops allowed in eBPF).
std::vector<Insn> alu_chain(int n) {
  Asm a;
  a.mov64_imm(R0, 1);
  for (int i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: a.add64_imm(R0, 7); break;
      case 1: a.mul64_imm(R0, 3); break;
      case 2: a.xor64_imm(R0, 0x55aa); break;
      case 3: a.rsh64_imm(R0, 1); break;
    }
  }
  a.exit_();
  return a.build();
}

// ---------------------------------------------------------------------------
// Part 1: §3.2 engine comparison -> BENCH_vm.json
// ---------------------------------------------------------------------------

// Engine-only ns/run of a seg6local program: Netns, ExecEnv and SkbCtx are
// prepared once; the timed loop is the VM invocation itself. Programs that
// resize the packet (Add TLV) get a cheap in-place packet reset per
// iteration so the workload stays constant.
double engine_only_ns(const usecases::BuiltProgram& built, Exec exec,
                      bool reset_packet, int iters) {
  seg6::Netns ns("bench");
  ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                        {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
  auto load = ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns,
                            built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "%s rejected: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }

  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("fc00::1");
  spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                   net::Ipv6Addr::must_parse("fc00::d1")};
  spec.payload_size = 64;
  const net::Packet tmpl = net::make_udp_packet(spec);
  net::Packet pkt = tmpl;

  seg6::Seg6ProgCtx ctx;
  ctx.netns = &ns;
  ctx.pkt = &pkt;
  ctx.skb.protocol = kEthPIpv6Be;

  ExecEnv env;
  env.user = &ctx;
  env.now_ns = [&ns] { return ns.now(); };
  env.prandom = [&ns] { return ns.prandom(); };
  env.regions.push_back(MemRegion{
      reinterpret_cast<std::uintptr_t>(&ctx.skb), sizeof ctx.skb, true});
  env.regions.push_back(MemRegion{0, 0, false});
  ctx.env = &env;
  ctx.refresh_packet_view();
  prepare(ns.bpf(), env, exec);

  volatile std::uint64_t sink = 0;
  const std::uint64_t skb_addr = reinterpret_cast<std::uint64_t>(&ctx.skb);

  // Programs that resize the packet need a per-iteration reset to keep the
  // workload constant. That reset is harness cost, identical for every
  // engine, so it is measured separately and subtracted — otherwise it
  // dilutes the engine ratios the JSON exists to track.
  double reset_ns = 0;
  if (reset_packet) {
    const auto r0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      pkt = tmpl;  // copy-assign reuses capacity after the first iteration
      ctx.refresh_packet_view();
    }
    const auto r1 = std::chrono::steady_clock::now();
    reset_ns =
        std::chrono::duration<double, std::nano>(r1 - r0).count() / iters;
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (reset_packet) {
      pkt = tmpl;
      ctx.refresh_packet_view();
    }
    sink = run_once(ns.bpf(), *load.prog, env, skb_addr, exec).ret;
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  const double per_run =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / iters -
      reset_ns;
  return per_run > 0.1 ? per_run : 0.1;  // clamp: subtraction is approximate
}

// Bare engine ns/run for programs needing no packet/netns (the ALU chain).
double bare_engine_ns(const std::vector<Insn>& insns, Exec exec, int iters) {
  BpfSystem sys;
  auto load = sys.load("alu", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) {
    std::fprintf(stderr, "alu chain rejected: %s\n",
                 load.verify.error.c_str());
    std::exit(1);
  }
  ExecEnv env;
  prepare(sys, env, exec);
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i)
    sink = run_once(sys, *load.prog, env, 0, exec).ret;
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

struct Row {
  std::string name;
  bool sec32;  // counts toward the §3.2 geomeans
  double baseline_ns, predecoded_ns, native_ns;
};

void emit_json(const std::vector<Row>& rows, double geomean_pre,
               double geomean_native, double alu_native) {
  std::FILE* f = std::fopen("BENCH_vm.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_vm.json");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"vm_micro\",\n");
  std::fprintf(f, "  \"measurement\": \"engine_only_ns_per_run\",\n");
  std::fprintf(f, "  \"native_jit_available\": %s,\n",
               native_jit_available() ? "true" : "false");
  std::fprintf(f, "  \"programs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"paper_sec32\": %s, "
                 "\"baseline_interp_ns\": %.1f, \"predecoded_interp_ns\": "
                 "%.1f, \"native_ns\": %.1f, "
                 "\"speedup_predecoded_vs_baseline\": %.2f, "
                 "\"speedup_native_vs_baseline\": %.2f, "
                 "\"speedup_native_vs_predecoded\": %.2f}%s\n",
                 r.name.c_str(), r.sec32 ? "true" : "false", r.baseline_ns,
                 r.predecoded_ns, r.native_ns,
                 r.baseline_ns / r.predecoded_ns,
                 r.baseline_ns / r.native_ns,
                 r.predecoded_ns / r.native_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"sec32_geomean_speedup_predecoded_vs_baseline\": %.2f,\n",
               geomean_pre);
  std::fprintf(f,
               "  \"sec32_geomean_speedup_native_vs_predecoded\": %.2f,\n",
               geomean_native);
  // Emitted-code quality: on the compute-bound chain the engine is the
  // whole cost, so this ratio tracks the JIT itself rather than shared
  // helper/harness time (which caps the §3.2 rows near the paper's ~1.8x).
  std::fprintf(f, "  \"alu512_speedup_native_vs_predecoded\": %.2f\n",
               alu_native);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

void run_engine_comparison(int iters) {
  std::printf("-- engine-only ns/run (execution-engine scoreboard) --\n");
  std::printf("%-18s %12s %12s %10s %10s\n", "program", "baseline",
              "pre-decoded", "native", "nat/pre");

  std::vector<Row> rows;
  struct Prog {
    usecases::BuiltProgram built;
    bool reset_packet;
  };
  const Prog progs[] = {
      {usecases::build_end(), false},
      {usecases::build_tag_increment(), false},
      {usecases::build_add_tlv(), true},  // resizes the packet every run
  };
  for (const Prog& p : progs) {
    Row r;
    r.name = p.built.name;
    r.sec32 = true;
    r.baseline_ns =
        engine_only_ns(p.built, Exec::kBaseline, p.reset_packet, iters);
    r.predecoded_ns =
        engine_only_ns(p.built, Exec::kJitOff, p.reset_packet, iters);
    r.native_ns = engine_only_ns(p.built, Exec::kJitOn, p.reset_packet, iters);
    rows.push_back(r);
  }
  {
    Row r;
    r.name = "alu_chain_512";
    r.sec32 = false;
    const auto chain = alu_chain(512);
    r.baseline_ns = bare_engine_ns(chain, Exec::kBaseline, iters / 4 + 1);
    r.predecoded_ns = bare_engine_ns(chain, Exec::kJitOff, iters / 4 + 1);
    r.native_ns = bare_engine_ns(chain, Exec::kJitOn, iters);
    rows.push_back(r);
  }

  double log_sum_pre = 0, log_sum_native = 0, alu_native = 0;
  int sec32_count = 0;
  for (const Row& r : rows) {
    std::printf("%-18s %10.1fns %10.1fns %8.1fns %8.2fx\n", r.name.c_str(),
                r.baseline_ns, r.predecoded_ns, r.native_ns,
                r.predecoded_ns / r.native_ns);
    if (r.sec32) {
      log_sum_pre += std::log(r.baseline_ns / r.predecoded_ns);
      log_sum_native += std::log(r.predecoded_ns / r.native_ns);
      ++sec32_count;
    } else {
      alu_native = r.predecoded_ns / r.native_ns;
    }
  }
  const double geomean_pre = std::exp(log_sum_pre / sec32_count);
  const double geomean_native = std::exp(log_sum_native / sec32_count);
  std::printf("§3.2 geomean speedup (pre-decoded vs baseline): %.2fx\n",
              geomean_pre);
  std::printf("§3.2 geomean speedup (native vs pre-decoded):  %.2fx\n",
              geomean_native);
  std::printf("alu_chain_512 speedup (native vs pre-decoded): %.2fx\n",
              alu_native);
  emit_json(rows, geomean_pre, geomean_native, alu_native);
  std::printf("wrote BENCH_vm.json\n\n");
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark micro suite
// ---------------------------------------------------------------------------

void BM_EngineAluChain(benchmark::State& state, Exec exec) {
  BpfSystem sys;
  auto load = sys.load("alu", ProgType::kLwtSeg6Local, alu_chain(512));
  if (!load.ok()) {
    state.SkipWithError(load.verify.error.c_str());
    return;
  }
  ExecEnv env;
  prepare(sys, env, exec);
  for (auto _ : state) {
    const auto r = run_once(sys, *load.prog, env, 0, exec);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * 514);
}
BENCHMARK_CAPTURE(BM_EngineAluChain, native, Exec::kJitOn);
BENCHMARK_CAPTURE(BM_EngineAluChain, interp, Exec::kJitOff);
BENCHMARK_CAPTURE(BM_EngineAluChain, interp_baseline, Exec::kBaseline);

void BM_HelperCallOverhead(benchmark::State& state) {
  BpfSystem sys;
  Asm a;
  for (int i = 0; i < 16; ++i) a.call(helper::KTIME_GET_NS);
  a.exit_();
  auto load = sys.load("calls", ProgType::kLwtSeg6Local, a.build());
  ExecEnv env;
  env.now_ns = [] { return 1ull; };
  for (auto _ : state) {
    const auto r = sys.run(*load.prog, env, 0);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_HelperCallOverhead);

void BM_MapLookupFromBpf(benchmark::State& state) {
  BpfSystem sys;
  MapDef def{MapType::kArray, 4, 8, 4, "m"};
  const auto id = sys.maps().create(def);
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 0)
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  auto load = sys.load("lookup", ProgType::kLwtSeg6Local, a.build());
  ExecEnv env;
  for (auto _ : state) {
    const auto r = sys.run(*load.prog, env, 0);
    benchmark::DoNotOptimize(r.ret);
  }
}
BENCHMARK(BM_MapLookupFromBpf);

void BM_VerifierLoad(benchmark::State& state) {
  const auto built = usecases::build_end_dm(1);
  for (auto _ : state) {
    BpfSystem sys;
    create_perf_event_array(sys.maps(), "perf");
    auto load = sys.load(built.name, ProgType::kLwtSeg6Local, built.insns);
    benchmark::DoNotOptimize(load.ok());
  }
}
BENCHMARK(BM_VerifierLoad);

void BM_DecodeProgram(benchmark::State& state) {
  BpfSystem sys;  // only the helper registry is needed to decode
  const auto insns = alu_chain(512);
  for (auto _ : state) {
    auto decoded = decode_program(insns, &sys.helpers());
    benchmark::DoNotOptimize(decoded.prog->size());
  }
  state.SetItemsProcessed(state.iterations() * 514);
}
BENCHMARK(BM_DecodeProgram);

void BM_LpmTrieLookup(benchmark::State& state) {
  MapDef def{MapType::kLpmTrie, 20, 4, 1024, "lpm"};
  auto map = make_map(def);
  // 64 random /48 prefixes.
  std::uint64_t x = 42;
  for (int i = 0; i < 64; ++i) {
    std::uint8_t key[20] = {};
    const std::uint32_t plen = 48;
    std::memcpy(key, &plen, 4);
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(key + 4, &x, 6);
    const std::uint32_t v = static_cast<std::uint32_t>(i);
    map->update(key, {reinterpret_cast<const std::uint8_t*>(&v), 4}, 0);
  }
  std::uint8_t query[20] = {};
  const std::uint32_t plen = 128;
  std::memcpy(query, &plen, 4);
  for (auto _ : state) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(query + 4, &x, 8);
    benchmark::DoNotOptimize(map->lookup(query));
  }
}
BENCHMARK(BM_LpmTrieLookup);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before handing argv to google-benchmark.
  bool json_only = false;
  int iters = 100000;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0)
      json_only = true;
    else if (std::strcmp(argv[i], "--quick") == 0)
      iters = 5000;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  run_engine_comparison(iters);
  if (json_only) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
