// Classic-BPF filter tier benchmark.
//
// Part 1 (micro): per-expression filter cost. Each tcpdump expression is
// compiled to classic BPF, then measured two ways over a mixed match/miss
// packet corpus: interpreted directly by the reference cBPF interpreter (what
// a pre-3.15 kernel did per packet) and translated to eBPF, run on the
// decode-every-step eBPF oracle and with the JIT off and on (what this
// simulator — and the modern kernel — actually executes). The
// native-vs-reference speedup is the payoff of the translate-once design
// the cbpf/ tier reproduces. It is host wall-clock, so it is printed, not
// gated. The filtered fig3-style sink's simulated rate is asserted in
// tests/socket_filter_test.cc instead.
//
// Output: BENCH_filter.json. Flags: --quick (short CI smoke), --json-only
// (suppress the stdout table).
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cbpf/expr.h"
#include "cbpf/interp.h"
#include "cbpf/translate.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

struct Corpus {
  std::vector<std::vector<std::uint8_t>> pkts;
};

// Half matching, half non-matching traffic for the port-7001 expressions:
// plain UDP to 7001, SRH-encapsulated UDP to 7001, UDP to 9999, and a TCP-
// protocol packet — the shapes the monitoring sink actually demultiplexes.
Corpus make_corpus() {
  Corpus c;
  const auto add = [&c](std::uint16_t dport, bool srh) {
    net::PacketSpec spec;
    spec.src = net::Ipv6Addr::must_parse("fc00:1::1");
    spec.dst = net::Ipv6Addr::must_parse("fc00:2::2");
    spec.dst_port = dport;
    spec.payload_size = 64;
    if (srh) {
      spec.segments = {net::Ipv6Addr::must_parse("fc00:f::1"),
                       net::Ipv6Addr::must_parse("fc00:2::2")};
    }
    net::Packet pkt = net::make_udp_packet(spec);
    c.pkts.emplace_back(pkt.bytes().begin(), pkt.bytes().end());
  };
  add(7001, false);
  add(7001, true);
  add(9999, false);
  add(9999, true);
  return c;
}

double ns_per_op(std::uint64_t total_ns, std::uint64_t ops) {
  return ops ? static_cast<double>(total_ns) / static_cast<double>(ops) : 0;
}

// Reference interpreter ns/op over the corpus.
double reference_ns(const std::vector<cbpf::SockFilter>& prog,
                    const Corpus& corpus, int iters) {
  volatile std::uint32_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i)
    for (const auto& p : corpus.pkts)
      sink = cbpf::run(prog, p.data(), p.size());
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return ns_per_op(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
      static_cast<std::uint64_t>(iters) * corpus.pkts.size());
}

// Translated-eBPF ns/op on one execution over the corpus.
double translated_ns(const ebpf::LoadedProgram& prog, ebpf::BpfSystem& sys,
                     Exec exec, const Corpus& corpus, int iters) {
  ebpf::SkbCtx skb;
  skb.protocol = ebpf::kEthPIpv6Be;
  ebpf::ExecEnv env;
  env.now_ns = [] { return std::uint64_t{0}; };
  env.prandom = [] { return std::uint32_t{0}; };
  env.regions.push_back(ebpf::MemRegion{
      reinterpret_cast<std::uintptr_t>(&skb), sizeof skb, true});
  env.regions.push_back(ebpf::MemRegion{0, 0, false});
  prepare(sys, env, exec);
  const std::uint64_t ctx = reinterpret_cast<std::uint64_t>(&skb);

  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    for (const auto& p : corpus.pkts) {
      skb.data = reinterpret_cast<std::uint64_t>(p.data());
      skb.data_end = skb.data + p.size();
      skb.len = static_cast<std::uint32_t>(p.size());
      env.regions[1] = ebpf::MemRegion{
          reinterpret_cast<std::uintptr_t>(p.data()), p.size(), false};
      sink = run_once(sys, prog, env, ctx, exec).ret;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return ns_per_op(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
      static_cast<std::uint64_t>(iters) * corpus.pkts.size());
}

struct Row {
  std::string expr;
  std::size_t cbpf_insns = 0, ebpf_insns = 0;
  double reference_ns = 0;
  double baseline_ns = 0, predecoded_ns = 0, native_ns = 0;
};

Row measure_expr(const std::string& expr, const Corpus& corpus, int iters) {
  Row r;
  r.expr = expr;
  const cbpf::CompileResult cr = cbpf::compile(expr);
  if (!cr.ok) {
    std::fprintf(stderr, "compile(\"%s\"): %s\n", expr.c_str(),
                 cr.error.c_str());
    std::exit(1);
  }
  const cbpf::TranslateResult tr = cbpf::translate(cr.insns);
  if (!tr.ok) {
    std::fprintf(stderr, "translate(\"%s\"): %s\n", expr.c_str(),
                 tr.error.c_str());
    std::exit(1);
  }
  r.cbpf_insns = cr.insns.size();
  r.ebpf_insns = tr.insns.size();

  ebpf::BpfSystem sys;
  auto load = sys.load("filter", ebpf::ProgType::kSocketFilter, tr.insns,
                       cr.insns.size());
  if (!load.ok()) {
    std::fprintf(stderr, "verifier rejected \"%s\": %s\n", expr.c_str(),
                 load.verify.error.c_str());
    std::exit(1);
  }

  r.reference_ns = reference_ns(cr.insns, corpus, iters);
  r.baseline_ns =
      translated_ns(*load.prog, sys, Exec::kBaseline, corpus, iters);
  r.predecoded_ns =
      translated_ns(*load.prog, sys, Exec::kJitOff, corpus, iters);
  r.native_ns = translated_ns(*load.prog, sys, Exec::kJitOn, corpus, iters);
  return r;
}

void emit_json(const std::vector<Row>& rows, double geomean_native) {
  std::FILE* f = std::fopen("BENCH_filter.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_filter.json");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"filter\",\n");
  std::fprintf(f, "  \"measurement\": \"filter_ns_per_packet\",\n");
  std::fprintf(f, "  \"native_jit_available\": %s,\n",
               ebpf::native_jit_available() ? "true" : "false");
  std::fprintf(f, "  \"filters\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"expr\": \"%s\", \"cbpf_insns\": %zu, "
                 "\"ebpf_insns\": %zu, \"reference_interp_ns\": %.1f, "
                 "\"baseline_interp_ns\": %.1f, \"predecoded_interp_ns\": "
                 "%.1f, \"native_ns\": %.1f, "
                 "\"speedup_native_vs_reference\": %.2f}%s\n",
                 r.expr.c_str(), r.cbpf_insns, r.ebpf_insns, r.reference_ns,
                 r.baseline_ns, r.predecoded_ns, r.native_ns,
                 r.reference_ns / r.native_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"geomean_speedup_native_vs_reference\": %.2f\n}\n",
               geomean_native);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json-only") == 0) json_only = true;
  }
  const int iters = quick ? 20000 : 400000;

  if (!json_only)
    print_header("Classic-BPF filter tier: expression -> cBPF -> eBPF",
                 "SO_ATTACH_FILTER translate-once vs per-packet classic "
                 "interpretation");

  const Corpus corpus = make_corpus();
  const char* exprs[] = {
      "udp",
      "udp and dst port 7001",
      "srh and udp and dst port 7001",
      "ip6 and (dst net fc00:2::/64 or dst host fc00:1::1) and not tcp",
  };
  std::vector<Row> rows;
  double log_sum = 0;
  for (const char* e : exprs) {
    rows.push_back(measure_expr(e, corpus, iters));
    log_sum += std::log(rows.back().reference_ns / rows.back().native_ns);
  }
  const double geomean_native = std::exp(log_sum / rows.size());

  if (!json_only) {
    std::printf("%-58s %5s %5s %9s %9s %9s %9s\n", "expression", "cBPF",
                "eBPF", "refrnc", "baseln", "predec", "native");
    for (const Row& r : rows)
      std::printf("%-58s %5zu %5zu %7.1fns %7.1fns %7.1fns %7.1fns\n",
                  r.expr.c_str(), r.cbpf_insns, r.ebpf_insns, r.reference_ns,
                  r.baseline_ns, r.predecoded_ns, r.native_ns);
    std::printf("geomean speedup, native eBPF vs reference cBPF interp: "
                "%.2fx\n", geomean_native);
  }

  emit_json(rows, geomean_native);
  std::printf("wrote BENCH_filter.json\n");
  return 0;
}
