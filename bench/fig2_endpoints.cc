// Figure 2 — "Simple endpoint functions are efficiently supported."
//
// Reproduces the paper's §3.2 measurement: S1 offers 3 Mpps of 64-byte UDP
// packets with a 2-segment SRH through a seg6local function on R (whose
// single core is the bottleneck); the sink rate on S2 is reported normalized
// to raw IPv6 forwarding (the paper's 610 kpps baseline).
//
// Paper anchors: End-BPF ≈ 97% of static End; End.T-BPF ≈ 95% of static
// End.T; Tag++ ≈ 97% of End-BPF; Add-TLV ≈ 95% of End-BPF; disabling the JIT
// divides Add-TLV throughput by ~1.8.
#include <functional>

#include "bench_common.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

struct Row {
  std::string name;
  double kpps = 0;
  std::size_t sloc = 0;
  std::string note;
};

double run_case(const std::function<void(Setup1&)>& configure,
                bool through_sid) {
  Setup1 lab;
  configure(lab);
  return lab.measure(through_sid, /*pps=*/3e6, /*duration=*/200 * sim::kMilli);
}

void add_end_bpf(Setup1& lab, const usecases::BuiltProgram& built, bool jit) {
  lab.r->ns().bpf().set_jit_enabled(jit);
  auto load = lab.r->ns().bpf().load(
      built.name, ebpf::ProgType::kLwtSeg6Local, built.insns, built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "verifier rejected %s: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  lab.r->ns().seg6local().add(lab.sid, e);
}

}  // namespace

int main() {
  print_header(
      "Figure 2: forwarding rate of seg6local endpoint functions on R",
      "baseline 610 kpps; End-BPF ~ -3% vs End; End.T-BPF ~ -5% vs End.T; "
      "Tag++ ~ -3% and Add-TLV ~ -5% vs End-BPF; no-JIT divides Add-TLV by "
      "~1.8");
  std::printf("(vector datapath: R drains bursts of %zu per service event; "
              "rates are burst-invariant, see tests/burst_test.cc)\n",
              sim::kDefaultRxBurst);

  std::vector<Row> rows;

  // Baseline: raw IPv6 forwarding, no SRH.
  rows.push_back({"raw IPv6 forwarding",
                  run_case([](Setup1&) {}, /*through_sid=*/false), 0, ""});

  rows.push_back({"End (static)", run_case(
                                      [](Setup1& lab) {
                                        seg6::Seg6LocalEntry e;
                                        e.action = seg6::Seg6Action::kEnd;
                                        lab.r->ns().seg6local().add(lab.sid, e);
                                      },
                                      true),
                  0, ""});

  rows.push_back({"End (BPF)", run_case(
                                   [](Setup1& lab) {
                                     add_end_bpf(lab, usecases::build_end(),
                                                 true);
                                   },
                                   true),
                  1, ""});

  rows.push_back({"End.T (static)", run_case(
                                        [](Setup1& lab) {
                                          seg6::Seg6LocalEntry e;
                                          e.action = seg6::Seg6Action::kEndT;
                                          e.table = 0;
                                          lab.r->ns().seg6local().add(lab.sid,
                                                                      e);
                                        },
                                        true),
                  0, ""});

  rows.push_back({"End.T (BPF)", run_case(
                                     [](Setup1& lab) {
                                       add_end_bpf(lab,
                                                   usecases::build_end_t(0),
                                                   true);
                                     },
                                     true),
                  4, ""});

  rows.push_back(
      {"Tag++ (BPF)", run_case(
                          [](Setup1& lab) {
                            add_end_bpf(lab, usecases::build_tag_increment(),
                                        true);
                          },
                          true),
       50, "no static counterpart"});

  rows.push_back({"Add TLV (BPF)", run_case(
                                       [](Setup1& lab) {
                                         add_end_bpf(
                                             lab, usecases::build_add_tlv(),
                                             true);
                                       },
                                       true),
                  60, "no static counterpart"});

  rows.push_back({"Add TLV (BPF, no JIT)",
                  run_case(
                      [](Setup1& lab) {
                        add_end_bpf(lab, usecases::build_add_tlv(), false);
                      },
                      true),
                  60, "interpreter"});

  const double baseline = rows[0].kpps;
  std::printf("\n%-26s %10s %10s  %-6s %s\n", "function", "kpps",
              "% of raw", "SLOC", "note");
  for (const auto& row : rows) {
    std::printf("%-26s %10.1f %9.1f%%  %-6s %s\n", row.name.c_str(), row.kpps,
                100.0 * row.kpps / baseline,
                row.sloc ? std::to_string(row.sloc).c_str() : "-",
                row.note.c_str());
  }

  // Paper-anchor summary.
  const double end_static = rows[1].kpps, end_bpf = rows[2].kpps;
  const double endt_static = rows[3].kpps, endt_bpf = rows[4].kpps;
  const double tag = rows[5].kpps, addtlv = rows[6].kpps,
               addtlv_nojit = rows[7].kpps;
  std::printf("\nshape checks vs paper:\n");
  std::printf("  End BPF / End static        = %.3f   (paper ~0.97)\n",
              end_bpf / end_static);
  std::printf("  End.T BPF / End.T static    = %.3f   (paper ~0.95)\n",
              endt_bpf / endt_static);
  std::printf("  Tag++ / End BPF             = %.3f   (paper ~0.97)\n",
              tag / end_bpf);
  std::printf("  Add TLV / End BPF           = %.3f   (paper ~0.95)\n",
              addtlv / end_bpf);
  std::printf("  Add TLV JIT / no-JIT factor = %.2fx  (paper ~1.8x)\n",
              addtlv / addtlv_nojit);
  return 0;
}
