// JIT edge cases the random differential generator under-samples.
//
// Every test runs with the JIT on and off (parameterized fixture) and checks
// each run against the decode-every-step reference oracle: the native
// x86-64 JIT is the newest and most delicate — division must not trap,
// 32-bit ops must zero-extend, the BPF stack boundary must be addressable,
// and helper-driven packet reallocation must not leave stale pointers — but
// asserting the same behaviour on every execution keeps the whole matrix
// honest. On hosts without native support the JIT-on runs fall back to the
// interpreter and the expectations still hold.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/vm.h"
#include "engine_oracle.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/seg6local.h"
#include "usecases/programs.h"

namespace srv6bpf::ebpf {
namespace {

// Parameter: bpf_jit_enable.
class JitEdgeTest : public ::testing::TestWithParam<bool> {
 protected:
  ExecResult run(const std::vector<Insn>& insns, std::uint64_t ctx = 0) {
    BpfSystem sys;
    auto load = sys.load("edge", ProgType::kLwtSeg6Local, insns);
    EXPECT_TRUE(load.ok()) << load.verify.error;
    if (!load.ok()) return {};
    sys.set_jit_enabled(GetParam());
    ExecEnv env;
    const ExecResult got = sys.run(*load.prog, env, ctx);
    ExecEnv oracle_env;
    expect_matches_oracle(got, run_oracle(sys, *load.prog, oracle_env, ctx));
    return got;
  }

  std::uint64_t eval(const std::vector<Insn>& insns) {
    const ExecResult r = run(insns);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.ret;
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, JitEdgeTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "JitOn" : "JitOff";
                         });

// ---- division / modulo by zero (register divisors; immediate-zero divisors
// ---- are rejected at load, asserted at the end of this section) ----

TEST_P(JitEdgeTest, Div64ByZeroRegisterYieldsZero) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU64 | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(JitEdgeTest, Mod64ByZeroRegisterKeepsDividend) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU64 | BPF_MOD | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xdeadbeefcafebabeull);
}

TEST_P(JitEdgeTest, Div32ByZeroRegisterYieldsZero) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(JitEdgeTest, Mod32ByZeroRegisterTruncatesDividend) {
  // The kernel's ALU32 mod-by-zero still zero-extends: dst = (u32)dst.
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU | BPF_MOD | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xcafebabeull);
}

TEST_P(JitEdgeTest, Div32UsesTruncatedDivisor) {
  // Divisor 2^32 truncates to 0 in ALU32: division by zero, not by 2^32.
  Asm a;
  a.mov64_imm(R0, 100)
      .ld_imm64(R1, 0x100000000ull)
      .raw({BPF_ALU | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

// Division where dst/src land on the x86 registers the emitter must juggle
// (BPF r0 = rax, the implicit dividend; BPF r3 = rdx, the implicit
// high-half/remainder; BPF r4 = rcx, the shift-count register).
TEST_P(JitEdgeTest, DivModPreserveNeighbouringRegisters) {
  Asm a;
  a.mov64_imm(R0, 1000)   // rax
      .mov64_imm(R3, 77)  // rdx
      .mov64_imm(R4, 9)   // rcx
      .mov64_reg(R5, R0)
      .raw({BPF_ALU64 | BPF_DIV | BPF_X, R5, R4, 0, 0})  // r5 = 1000/9 = 111
      .raw({BPF_ALU64 | BPF_MOD | BPF_X, R3, R4, 0, 0})  // r3 = 77%9 = 5
      .add64_reg(R5, R3)                                 // 116
      .add64_reg(R5, R0)                                 // + 1000 (rax intact)
      .add64_reg(R5, R4)                                 // + 9 (rcx intact)
      .mov64_reg(R0, R5)
      .exit_();
  EXPECT_EQ(eval(a.build()), 1125u);
}

TEST_P(JitEdgeTest, VerifierRejectsImmediateZeroDivision) {
  for (const std::uint8_t cls : {BPF_ALU64, BPF_ALU}) {
    for (const std::uint8_t op : {BPF_DIV, BPF_MOD}) {
      Asm a;
      a.mov64_imm(R0, 1)
          .raw({static_cast<std::uint8_t>(cls | op | BPF_K), R0, 0, 0, 0})
          .exit_();
      BpfSystem sys;
      auto load = sys.load("divz", ProgType::kLwtSeg6Local, a.build());
      EXPECT_FALSE(load.ok())
          << "imm-zero division must be rejected at load time";
    }
  }
}

// ---- 32-bit ALU zero-extension ----

TEST_P(JitEdgeTest, Alu32ImmWritesClearUpperHalf) {
  // Every ALU32 form must zero bits 63..32 of dst, even when the 64-bit
  // value had them set.
  struct Case {
    std::uint8_t op;
    std::int32_t imm;
    std::uint64_t expect;
  };
  const Case cases[] = {
      {BPF_ADD, 1, 0xcafebabfull},
      {BPF_MOV, -1, 0xffffffffull},
      {BPF_OR, 0, 0xcafebabeull},
      {BPF_LSH, 0, 0xcafebabeull},  // shift by zero still truncates
      {BPF_RSH, 4, 0x0cafebabull},
      {BPF_ARSH, 4, 0xfcafebabull},  // sign bit of the *32-bit* value
      {BPF_XOR, 0, 0xcafebabeull},
  };
  for (const Case& c : cases) {
    Asm a;
    a.ld_imm64(R0, 0x11111111cafebabeull)
        .raw({static_cast<std::uint8_t>(BPF_ALU | c.op | BPF_K), R0, 0, 0,
              c.imm})
        .exit_();
    EXPECT_EQ(eval(a.build()), c.expect)
        << "ALU32 op " << static_cast<int>(c.op);
  }
}

TEST_P(JitEdgeTest, Neg32ClearsUpperHalf) {
  Asm a;
  a.ld_imm64(R0, 0x11111111cafebabeull)
      .raw({BPF_ALU | BPF_NEG | BPF_K, R0, 0, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x35014542ull);
}

TEST_P(JitEdgeTest, Mov32RegClearsUpperHalf) {
  Asm a;
  a.ld_imm64(R1, 0x11111111cafebabeull)
      .mov32_reg(R0, R1)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xcafebabeull);
}

TEST_P(JitEdgeTest, ShiftByRegisterThroughRcxAliases) {
  // BPF r4 maps to rcx, the hardware shift-count register; exercise count
  // in r4, value in r4, and both at once.
  Asm a;
  a.mov64_imm(R4, 4)
      .mov64_imm(R0, 0x10)
      .lsh64_reg(R0, R4)          // 0x100 (count in rcx)
      .mov64_reg(R3, R4)
      .lsh64_reg(R4, R3)          // r4 = 4 << 4 = 64 (dst in rcx)
      .add64_reg(R0, R4)          // 0x140
      .mov64_imm(R4, 2)
      .lsh64_reg(R4, R4)          // r4 = 2 << 2 = 8 (dst == count == rcx)
      .add64_reg(R0, R4)          // 0x148
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x148u);
}

TEST_P(JitEdgeTest, Shift64ByRegisterMasksCountTo63) {
  Asm a;
  a.mov64_imm(R0, 1)
      .mov64_imm(R1, 64)  // & 63 == 0: must be a no-op, not zero
      .lsh64_reg(R0, R1)
      .exit_();
  EXPECT_EQ(eval(a.build()), 1u);
}

// ---- stack boundary ----

TEST_P(JitEdgeTest, StackBoundaryAtFpMinus512) {
  // fp-512 is the lowest legal stack byte; an 8-byte store/load there must
  // round-trip on every engine (the native JIT emits [rbp-512] directly).
  Asm a;
  a.ld_imm64(R1, 0x0123456789abcdefull)
      .stx(BPF_DW, R10, R1, -512)
      .ldx(BPF_DW, R0, R10, -512)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x0123456789abcdefull);
}

TEST_P(JitEdgeTest, NarrowReloadsAtStackBoundary) {
  Asm a;
  a.ld_imm64(R1, 0x0123456789abcdefull)
      .stx(BPF_DW, R10, R1, -512)
      .ldx(BPF_B, R0, R10, -512)    // 0xef on little-endian
      .ldx(BPF_H, R2, R10, -512)    // 0xcdef
      .add64_reg(R0, R2)
      .ldx(BPF_W, R3, R10, -508)    // high word: 0x01234567
      .add64_reg(R0, R3)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xefull + 0xcdefull + 0x01234567ull);
}

// ---- helper that reallocates the packet mid-program ----

TEST_P(JitEdgeTest, AddTlvReallocatesPacketIdenticallyOnAllEngines) {
  // bpf_lwt_seg6_adjust_srh grows the packet, invalidating every previously
  // derived packet pointer; the program re-derives them from ctx afterwards
  // (as the verifier requires). The resulting packet bytes must be identical
  // to the oracle's — a stale-pointer bug in any engine shows up here as a
  // divergence.
  const auto built = usecases::build_add_tlv();
  seg6::Netns ns("edge");
  ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                        {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
  ns.bpf().set_jit_enabled(GetParam());
  auto load = ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns,
                            built.paper_sloc);
  ASSERT_TRUE(load.ok()) << load.verify.error;

  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("fc00::1");
  spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                   net::Ipv6Addr::must_parse("fc00::d1")};
  spec.payload_size = 64;
  const net::Packet tmpl = net::make_udp_packet(spec);
  const auto bytes = [](const net::Packet& p) {
    return std::vector<std::uint8_t>(p.data(), p.data() + p.size());
  };

  // The engine, through the End.BPF pipeline.
  net::Packet pkt = tmpl;
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  seg6::ProcessTrace trace;
  const auto r = seg6local_process(ns, pkt, e, &trace);
  EXPECT_EQ(r.disposition, seg6::Disposition::kContinue);
  EXPECT_EQ(pkt.size(), tmpl.size() + 8);

  // The oracle, after the same endpoint step.
  net::Packet ref = tmpl;
  ASSERT_TRUE(seg6::srh_advance(ref));
  seg6::Seg6BurstRunner runner(ns, *load.prog);
  runner.prepare(ref, nullptr);
  const ExecResult oracle =
      run_oracle(ns.bpf(), *load.prog, runner.env(), runner.ctx_addr());
  runner.harvest();
  ASSERT_TRUE(oracle.ok()) << oracle.error;
  EXPECT_EQ(trace.bpf_insns_jit + trace.bpf_insns_interp,
            oracle.insns_executed);
  EXPECT_EQ(trace.helper_calls, oracle.helper_calls);
  EXPECT_EQ(bytes(pkt), bytes(ref));
}

// ---- maximum-size programs ----

TEST_P(JitEdgeTest, MaxSizeProgramRuns) {
  // kMaxInsns (4096) straight-line ops: 1 preamble + 4094 ALU + exit. Big
  // enough to stress the emitter's buffer growth and rel32 bookkeeping.
  Asm a;
  a.mov64_imm(R0, 1);
  for (int i = 0; i < static_cast<int>(kMaxInsns) - 2; ++i) {
    switch (i % 4) {
      case 0: a.add64_imm(R0, 7); break;
      case 1: a.mul64_imm(R0, 3); break;
      case 2: a.xor64_imm(R0, 0x55aa); break;
      case 3: a.rsh64_imm(R0, 1); break;
    }
  }
  a.exit_();
  const auto insns = a.build();
  ASSERT_EQ(insns.size(), kMaxInsns);

  const ExecResult r = run(insns);  // checked against the oracle
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.insns_executed, kMaxInsns);
  if (native_jit_available()) {
    BpfSystem sys;
    auto load = sys.load("max", ProgType::kLwtSeg6Local, insns);
    ASSERT_TRUE(load.ok());
    ASSERT_NE(load.prog->native(), nullptr);
    EXPECT_GT(load.prog->native()->code_size(), 0u);
  }
}

// ---- interpreter fallback under bpf_jit_enable = 1 ----

// Increments slot 0 of an array map by 5, then returns bpf_ktime_get_ns():
// map side effects and a helper call for the fallback to reproduce.
std::vector<Insn> map_bump_program(std::uint32_t map_id) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R1, R0, 0)
      .add64_imm(R1, 5)
      .stx(BPF_DW, R0, R1, 0)
      .label("miss")
      .call(helper::KTIME_GET_NS)
      .exit_();
  return a.build();
}

std::uint64_t map_slot0(BpfSystem& sys, std::uint32_t map_id) {
  const std::uint32_t key = 0;
  const std::uint8_t* v = sys.maps().get(map_id)->lookup(
      {reinterpret_cast<const std::uint8_t*>(&key), 4});
  std::uint64_t value = 0;
  if (v != nullptr) std::memcpy(&value, v, 8);
  return value;
}

// The same program without emitted code, as the loader leaves it when the
// host cannot emit native code.
LoadedProgram without_native(BpfSystem& sys, const LoadedProgram& prog) {
  return LoadedProgram(prog.program(),
                       decode_program(prog.program().insns(), &sys.helpers())
                           .prog,
                       nullptr);
}

TEST(JitFallback, ProgramWithoutNativeCodeMatchesNativeRun) {
  const MapDef def{MapType::kArray, 4, 8, 4, "m"};
  const auto observe = [&](bool strip_native) {
    BpfSystem sys;  // JIT enabled by default
    const std::uint32_t map_id = sys.maps().create(def);
    auto load =
        sys.load("bump", ProgType::kLwtSeg6Local, map_bump_program(map_id));
    EXPECT_TRUE(load.ok()) << load.verify.error;
    if (native_jit_available()) {
      EXPECT_NE(load.prog->native(), nullptr);
    }
    ExecEnv env;
    env.now_ns = [] { return 777u; };
    const ExecResult r =
        strip_native ? sys.run(without_native(sys, *load.prog), env, 0)
                     : sys.run(*load.prog, env, 0);
    return std::make_pair(r, map_slot0(sys, map_id));
  };
  const auto [native, native_map] = observe(false);
  const auto [fallback, fallback_map] = observe(true);
  ASSERT_TRUE(fallback.ok()) << fallback.error;
  EXPECT_EQ(fallback.ret, 777u);
  EXPECT_EQ(fallback.ret, native.ret);
  EXPECT_EQ(fallback.insns_executed, native.insns_executed);
  EXPECT_EQ(fallback.helper_calls, native.helper_calls);
  EXPECT_EQ(fallback_map, 5u);
  EXPECT_EQ(fallback_map, native_map);
}

TEST(JitFallback, InstructionsAreChargedToTheJitBucket) {
  // The cost model bills by the bpf_jit_enable switch, not by the code that
  // ran: a JIT-enabled program without native code stays in the JIT bucket.
  seg6::Netns ns("fallback");
  const std::uint32_t map_id =
      ns.bpf().maps().create(MapDef{MapType::kArray, 4, 8, 4, "m"});
  auto load = ns.bpf().load("bump", ProgType::kLwtSeg6Local,
                            map_bump_program(map_id));
  ASSERT_TRUE(load.ok()) << load.verify.error;

  // The oracle's count for one run, on a system of its own so the map under
  // test sees only the End.BPF runs.
  BpfSystem ref;
  ASSERT_EQ(ref.maps().create(MapDef{MapType::kArray, 4, 8, 4, "m"}), map_id);
  ExecEnv env;
  const ExecResult once = run_oracle(ref, *load.prog, env, 0);
  ASSERT_TRUE(once.ok()) << once.error;
  const std::uint64_t insns = 2 * once.insns_executed;

  // A two-packet End.BPF group, as the datapath hands it over.
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog =
      std::make_shared<LoadedProgram>(without_native(ns.bpf(), *load.prog));
  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("fc00::1");
  spec.dst = net::Ipv6Addr::must_parse("fc00::2");
  spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"), spec.dst};
  net::Packet a = net::make_udp_packet(spec);
  net::Packet b = net::make_udp_packet(spec);
  net::Packet* pkts[] = {&a, &b};
  seg6::ProcessTrace ta, tb;
  seg6::ProcessTrace* traces[] = {&ta, &tb};
  seg6::PipelineResult results[2];
  seg6::seg6local_process_burst(ns, pkts, e, traces, results);

  EXPECT_GT(insns, 0u);
  EXPECT_EQ(ta.bpf_insns_jit + tb.bpf_insns_jit, insns);
  EXPECT_EQ(ta.bpf_insns_interp + tb.bpf_insns_interp, 0u);
  EXPECT_EQ(map_slot0(ns.bpf(), map_id), 10u);
}

}  // namespace
}  // namespace srv6bpf::ebpf
