// Differential fuzzing of the eBPF executions.
//
// Generates random-but-verifiable programs from a seeded Rng and asserts
// that the JIT-enabled run (native x86-64 code), the JIT-disabled run (the
// pre-decoded threaded interpreter) and the decode-every-step reference
// oracle agree on everything observable: return value, executed-instruction
// count, helper-call count and map side effects. Any divergence is a bug by
// definition — this is the safety net under the decode-once form and the
// machine-code emitter (a miscompiled jump target or a wrong immediate
// extension shows up here long before it would surface in a paper-figure
// bench). On hosts without native support the JIT-on run falls back to the
// interpreter, keeping the test green as a two-way comparison.
//
// A second test mutates the generated programs field by field and attacks
// the loader: no mutant may make BpfSystem::load throw, and every mutant it
// accepts must run cleanly on the oracle and agree with the native code,
// which trusts the verifier's proof for its unchecked loads and stores.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/disasm.h"
#include "ebpf/helpers.h"
#include "ebpf/map.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "engine_oracle.h"
#include "util/rng.h"

namespace srv6bpf::ebpf {
namespace {

constexpr int kWantedPrograms = 1000;
constexpr int kMaxAttempts = 4000;
constexpr std::uint32_t kMapEntries = 16;
constexpr int kMutants = 100000;
constexpr int kMutantsPerProgram = 30;
constexpr int kWantedJitChecks = 10000;

// Registers the generator uses as general-purpose scalars. All are
// initialised by the preamble so any gadget may read any of them.
constexpr int kGpRegs[] = {R0, R1, R2, R3, R4, R5};

struct GenState {
  Asm a;
  Rng& rng;
  std::uint32_t map_id;
  int label_seq = 0;
  // 8-byte-aligned stack slots (fp-8*k) known to hold written data.
  std::vector<std::int16_t> written_slots;

  explicit GenState(Rng& r, std::uint32_t map) : rng(r), map_id(map) {}

  int gp() { return kGpRegs[rng.uniform(0, 5)]; }
  std::int32_t imm() { return static_cast<std::int32_t>(rng.next_u32()); }
  std::string fresh_label(const char* stem) {
    return std::string(stem) + std::to_string(label_seq++);
  }
};

void gadget_alu64_imm(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  std::int32_t imm = g.imm();
  if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) imm &= 63;
  if ((op == BPF_DIV || op == BPF_MOD) && imm == 0) imm = 7;
  g.a.raw({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_K),
           static_cast<std::uint8_t>(g.gp()), 0, 0, imm});
}

void gadget_alu64_reg(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  g.a.raw({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_X),
           static_cast<std::uint8_t>(g.gp()),
           static_cast<std::uint8_t>(g.gp()), 0, 0});
}

void gadget_alu32(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  const bool reg_src = g.rng.chance(0.5);
  std::int32_t imm = g.imm();
  if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) imm &= 31;
  if ((op == BPF_DIV || op == BPF_MOD) && imm == 0) imm = 7;
  if (reg_src)
    g.a.raw({static_cast<std::uint8_t>(BPF_ALU | op | BPF_X),
             static_cast<std::uint8_t>(g.gp()),
             static_cast<std::uint8_t>(g.gp()), 0, 0});
  else
    g.a.raw({static_cast<std::uint8_t>(BPF_ALU | op | BPF_K),
             static_cast<std::uint8_t>(g.gp()), 0, 0, imm});
}

void gadget_neg(GenState& g) {
  g.a.raw({static_cast<std::uint8_t>(
               (g.rng.chance(0.5) ? BPF_ALU64 : BPF_ALU) | BPF_NEG | BPF_K),
           static_cast<std::uint8_t>(g.gp()), 0, 0, 0});
}

void gadget_bswap(GenState& g) {
  const int bits = 16 << g.rng.uniform(0, 2);
  if (g.rng.chance(0.5))
    g.a.to_be(g.gp(), bits);
  else
    g.a.to_le(g.gp(), bits);
}

void gadget_ld_imm64(GenState& g) { g.a.ld_imm64(g.gp(), g.rng.next_u64()); }

void gadget_stack_store(GenState& g) {
  const std::int16_t off = -8 * static_cast<std::int16_t>(g.rng.uniform(1, 8));
  g.a.stx(BPF_DW, R10, g.gp(), off);
  g.written_slots.push_back(off);
}

void gadget_stack_load(GenState& g) {
  if (g.written_slots.empty()) return gadget_stack_store(g);
  const std::int16_t off =
      g.written_slots[g.rng.uniform(0, g.written_slots.size() - 1)];
  // Narrower reloads of a written slot exercise all load widths.
  static constexpr std::uint8_t kSizes[] = {BPF_B, BPF_H, BPF_W, BPF_DW};
  g.a.ldx(kSizes[g.rng.uniform(0, 3)], g.gp(), R10, off);
}

void gadget_fwd_jump(GenState& g, const std::string& out_label) {
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  if (g.rng.chance(0.5))
    g.a.jmp_imm(op, g.gp(), g.imm(), out_label);
  else
    g.a.jmp_reg(op, g.gp(), g.gp(), out_label);
}

void gadget_jmp32(GenState& g) {
  // JMP32 over one filler instruction (Asm labels only emit 64-bit jumps).
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  const bool reg_src = g.rng.chance(0.5);
  if (reg_src)
    g.a.raw({static_cast<std::uint8_t>(BPF_JMP32 | op | BPF_X),
             static_cast<std::uint8_t>(g.gp()),
             static_cast<std::uint8_t>(g.gp()), 1, 0});
  else
    g.a.raw({static_cast<std::uint8_t>(BPF_JMP32 | op | BPF_K),
             static_cast<std::uint8_t>(g.gp()), 0, 1, g.imm()});
  g.a.mov64_imm(g.gp(), g.imm());  // skipped when the branch is taken
}

// Helper calls clobber the caller-saved argument registers R1-R5 (the
// verifier marks them uninitialised, as the kernel does); gadgets ending in
// a call must re-scalarise them so later gadgets may read any GP register.
void rescalarize_caller_saved(GenState& g) {
  for (const int r : {R1, R2, R3, R4, R5})
    g.a.mov64_imm(r, static_cast<std::int32_t>(g.rng.next_u32()));
}

void gadget_ktime(GenState& g) {
  g.a.call(helper::KTIME_GET_NS);
  rescalarize_caller_saved(g);
}

void gadget_prandom(GenState& g) { g.a.call(helper::GET_PRANDOM_U32); }

// lookup(map, key) -> increment value in place (covers helper dispatch, the
// map-value memory region, null checks and read-modify-write side effects).
void gadget_map_inc(GenState& g) {
  const std::string miss = g.fresh_label("miss");
  const std::int32_t key =
      static_cast<std::int32_t>(g.rng.uniform(0, kMapEntries - 1));
  g.a.st(BPF_W, R10, -4, key)
      .ld_map(R1, g.map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, miss)
      .ldx(BPF_DW, R3, R0, 0)
      .add64_imm(R3, 1)
      .stx(BPF_DW, R0, R3, 0)
      .label(miss)
      .mov64_imm(R0, 0);  // re-scalarise R0 (it held a map-value-or-null)
  rescalarize_caller_saved(g);
}

// update(map, key, value) from stack-built key/value.
void gadget_map_update(GenState& g) {
  const std::int32_t key =
      static_cast<std::int32_t>(g.rng.uniform(0, kMapEntries - 1));
  g.a.st(BPF_W, R10, -4, key)
      .stx(BPF_DW, R10, g.gp(), -16)
      .ld_map(R1, g.map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -16)
      .mov64_imm(R4, 0)
      .call(helper::MAP_UPDATE_ELEM)
      .mov64_imm(R0, 0);
  rescalarize_caller_saved(g);
}

std::vector<Insn> generate(Rng& rng, std::uint32_t map_id) {
  GenState g(rng, map_id);
  const std::string out = "out";

  // Preamble: scalarise every general-purpose register.
  for (const int r : kGpRegs)
    g.a.mov64_imm(r, static_cast<std::int32_t>(rng.next_u32()));

  const int n = static_cast<int>(rng.uniform(8, 48));
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform(0, 12)) {
      case 0: gadget_alu64_imm(g); break;
      case 1: gadget_alu64_reg(g); break;
      case 2: gadget_alu32(g); break;
      case 3: gadget_neg(g); break;
      case 4: gadget_bswap(g); break;
      case 5: gadget_ld_imm64(g); break;
      case 6: gadget_stack_store(g); break;
      case 7: gadget_stack_load(g); break;
      case 8: gadget_fwd_jump(g, out); break;
      case 9: gadget_jmp32(g); break;
      case 10: gadget_ktime(g); break;
      case 11: gadget_map_inc(g); break;
      case 12: gadget_map_update(g); break;
    }
  }
  gadget_prandom(g);  // ensure R0 is a scalar reaching the exit
  g.a.label(out).exit_();
  return g.a.build();
}

struct EngineObservation {
  ExecResult exec;
  std::vector<std::uint64_t> map_values;
};

// Decoded-form disassembly plus emitted-code size; built lazily, only when
// an assertion fails (gtest evaluates the streamed expression on failure).
std::string dump_program(const std::vector<Insn>& insns) {
  BpfSystem sys;
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  sys.maps().create(def);
  auto load = sys.load("dump", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) return "(program no longer loads)\n" + disasm(insns);
  const NativeCode* nc = load.prog->native();
  return load.prog->decoded().dump() + "native: " +
         (nc ? std::to_string(nc->code_size()) + " bytes of x86-64 code\n"
             : std::string("none\n"));
}

// The three executions: bpf_jit_enable = 1 and = 0 through BpfSystem::run,
// and the oracle called directly.
enum class Exec { kJitOn, kJitOff, kOracle };

// Runs a program loaded into `sys` (whose map 1 is the generator's array)
// from zeroed map values, a fixed clock and prandom stream and a real skb
// context, so every execution of one program starts from the same state.
EngineObservation observe(Exec exec, BpfSystem& sys,
                          const LoadedProgram& prog) {
  Map* map = sys.maps().get(1);
  for (std::uint32_t k = 0; k < kMapEntries; ++k)
    std::memset(map->lookup({reinterpret_cast<const std::uint8_t*>(&k), 4}),
                0, 8);
  sys.set_jit_enabled(exec == Exec::kJitOn);

  std::array<std::uint8_t, 64> pkt{};
  for (std::size_t i = 0; i < pkt.size(); ++i)
    pkt[i] = static_cast<std::uint8_t>(i * 7);
  SkbCtx skb;
  skb.data = reinterpret_cast<std::uint64_t>(pkt.data());
  skb.data_end = skb.data + pkt.size();
  skb.len = pkt.size();
  skb.protocol = kEthPIpv6Be;
  const auto ctx = reinterpret_cast<std::uint64_t>(&skb);

  ExecEnv env;
  std::uint64_t tick = 1000;
  std::uint32_t prand = 0x12345678;
  env.now_ns = [&tick] { return tick += 10; };
  env.prandom = [&prand] { return prand = prand * 1664525u + 1013904223u; };
  env.regions.push_back({ctx, sizeof skb, true});
  env.regions.push_back({skb.data, pkt.size(), false});
  EngineObservation obs;
  obs.exec = exec == Exec::kOracle ? run_oracle(sys, prog, env, ctx)
                                   : sys.run(prog, env, ctx);

  for (std::uint32_t k = 0; k < kMapEntries; ++k) {
    std::uint64_t value = 0;
    std::memcpy(&value,
                map->lookup({reinterpret_cast<const std::uint8_t*>(&k), 4}),
                8);
    obs.map_values.push_back(value);
  }
  return obs;
}

EngineObservation run_on(Exec exec, const std::vector<Insn>& insns) {
  BpfSystem sys;
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  const std::uint32_t map_id = sys.maps().create(def);
  EXPECT_EQ(map_id, 1u);  // generator hardcodes the first registry id

  auto load = sys.load("diff", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) {
    EngineObservation obs;
    obs.exec.aborted = true;
    obs.exec.error = "verifier: " + load.verify.error;
    return obs;
  }
  return observe(exec, sys, *load.prog);
}

TEST(Differential, EnginesAgreeOnRandomPrograms) {
  Rng rng(0x5eed5eed2026ull);
  BpfSystem probe;  // verification probe so engines only see verified input
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  const std::uint32_t map_id = probe.maps().create(def);

  int verified = 0;
  for (int attempt = 0; attempt < kMaxAttempts && verified < kWantedPrograms;
       ++attempt) {
    const std::vector<Insn> insns = generate(rng, map_id);
    {
      Verifier v(&probe.maps(), &probe.helpers());
      if (!v.verify(insns, ProgType::kLwtSeg6Local).ok) continue;
    }
    ++verified;

    const EngineObservation oracle = run_on(Exec::kOracle, insns);
    const EngineObservation jit_on = run_on(Exec::kJitOn, insns);
    const EngineObservation jit_off = run_on(Exec::kJitOff, insns);

    ASSERT_TRUE(oracle.exec.ok())
        << oracle.exec.error << "\n" << dump_program(insns);
    ASSERT_TRUE(jit_on.exec.ok())
        << jit_on.exec.error << "\n" << dump_program(insns);
    ASSERT_TRUE(jit_off.exec.ok())
        << jit_off.exec.error << "\n" << dump_program(insns);

    for (const EngineObservation* row : {&jit_on, &jit_off}) {
      ASSERT_EQ(oracle.exec.ret, row->exec.ret) << dump_program(insns);
      ASSERT_EQ(oracle.exec.insns_executed, row->exec.insns_executed)
          << dump_program(insns);
      ASSERT_EQ(oracle.exec.helper_calls, row->exec.helper_calls)
          << dump_program(insns);
      ASSERT_EQ(oracle.map_values, row->map_values) << dump_program(insns);
    }
  }
  // The generator is tuned so nearly every program verifies; if this drops
  // below the target the generator regressed, not the engines.
  EXPECT_GE(verified, kWantedPrograms);
}

// One field edit: off, imm, src, dst or one opcode bit. Register edits span
// the whole 4-bit field, so numbers above r10 reach every slot, read or not.
void mutate_field(Rng& rng, Insn& insn) {
  static constexpr std::int32_t kEdgeImms[] = {
      0, 1, 8, 16, 32, 63, 64, -1, helper::KTIME_GET_NS,
      helper::SKB_LOAD_BYTES, 4242};
  switch (rng.uniform(0, 4)) {
    case 0:
      insn.off = static_cast<std::int16_t>(
          rng.chance(0.5) ? insn.off + static_cast<int>(rng.uniform(0, 16)) - 8
                          : static_cast<int>(rng.next_u32()));
      break;
    case 1:
      insn.imm = rng.chance(0.5)
                     ? insn.imm ^ static_cast<std::int32_t>(
                                      1u << rng.uniform(0, 31))
                     : kEdgeImms[rng.uniform(0, std::size(kEdgeImms) - 1)];
      break;
    case 2: insn.src = static_cast<std::uint8_t>(rng.uniform(0, 15)); break;
    case 3: insn.dst = static_cast<std::uint8_t>(rng.uniform(0, 15)); break;
    default:
      insn.opcode ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
  }
}

TEST(Differential, MutantsNeverThrowAndAcceptedOnesRunLikeTheOracle) {
  Rng rng(0x6d7574616e7473ull);
  BpfSystem sys;
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  const std::uint32_t map_id = sys.maps().create(def);

  // Violations of the three oracles, each with the first offending program.
  int thrown = 0, faulted = 0, diverged = 0;
  std::string first_thrown, first_faulted, first_diverged;
  int accepted = 0;
  std::vector<Insn> base;
  for (int m = 0; m < kMutants; ++m) {
    if (m % kMutantsPerProgram == 0) base = generate(rng, map_id);
    // Half the edits after the first stay on the slot just edited, so that
    // compound encodings (an opcode with a matching imm) occur as well.
    std::vector<Insn> insns = base;
    std::size_t slot = rng.uniform(0, insns.size() - 1);
    for (int e = static_cast<int>(rng.uniform(1, 3)); e > 0; --e) {
      mutate_field(rng, insns[slot]);
      if (rng.chance(0.5)) slot = rng.uniform(0, insns.size() - 1);
    }

    // (a) load never throws.
    BpfSystem::LoadResult load;
    try {
      load = sys.load("mutant", ProgType::kLwtSeg6Local, insns);
    } catch (const std::exception& e) {
      if (thrown++ == 0) first_thrown = e.what() + ("\n" + disasm(insns));
      continue;
    }
    if (!load.ok()) continue;
    ++accepted;

    // (b) every accepted mutant runs on the oracle without a fault.
    const EngineObservation oracle = observe(Exec::kOracle, sys, *load.prog);
    if (!oracle.exec.ok() && faulted++ == 0)
      first_faulted = oracle.exec.error + "\n" + disasm(insns);

    // (c) the native code agrees with the oracle.
    const EngineObservation jit_on = observe(Exec::kJitOn, sys, *load.prog);
    if ((jit_on.exec.ok() != oracle.exec.ok() ||
         jit_on.exec.ret != oracle.exec.ret ||
         jit_on.exec.insns_executed != oracle.exec.insns_executed ||
         jit_on.exec.helper_calls != oracle.exec.helper_calls ||
         jit_on.map_values != oracle.map_values) &&
        diverged++ == 0)
      first_diverged = jit_on.exec.error + " vs oracle " + oracle.exec.error +
                       "\n" + disasm(insns);
  }
  EXPECT_EQ(thrown, 0) << first_thrown;
  EXPECT_EQ(faulted, 0) << first_faulted;
  EXPECT_EQ(diverged, 0) << first_diverged;
  EXPECT_GE(accepted, kWantedJitChecks);
}

}  // namespace
}  // namespace srv6bpf::ebpf
