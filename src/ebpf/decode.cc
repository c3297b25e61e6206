#include "ebpf/decode.h"

#include <array>
#include <cstdio>
#include <string>

namespace srv6bpf::ebpf {
namespace {

// Marks an opcode byte the ISA does not define.
constexpr std::uint16_t kBadOp = kNumOpKinds;

// Kinds of one ALU or conditional-JMP operation: 64-bit (or JMP) with a
// register / immediate operand, then 32-bit (or JMP32) register / immediate.
struct OpRow {
  std::uint8_t op;
  std::uint16_t r64, i64, r32, i32;
};

constexpr OpRow kAluRows[] = {
    {BPF_ADD, kAdd64R, kAdd64I, kAdd32R, kAdd32I},
    {BPF_SUB, kSub64R, kSub64I, kSub32R, kSub32I},
    {BPF_MUL, kMul64R, kMul64I, kMul32R, kMul32I},
    {BPF_DIV, kDiv64R, kDiv64I, kDiv32R, kDiv32I},
    {BPF_MOD, kMod64R, kMod64I, kMod32R, kMod32I},
    {BPF_OR, kOr64R, kOr64I, kOr32R, kOr32I},
    {BPF_AND, kAnd64R, kAnd64I, kAnd32R, kAnd32I},
    {BPF_XOR, kXor64R, kXor64I, kXor32R, kXor32I},
    {BPF_MOV, kMov64R, kMov64I, kMov32R, kMov32I},
    {BPF_LSH, kLsh64R, kLsh64I, kLsh32R, kLsh32I},
    {BPF_RSH, kRsh64R, kRsh64I, kRsh32R, kRsh32I},
    {BPF_ARSH, kArsh64R, kArsh64I, kArsh32R, kArsh32I},
};

constexpr OpRow kJmpRows[] = {
    {BPF_JEQ, kJeqR, kJeqI, kJeq32R, kJeq32I},
    {BPF_JNE, kJneR, kJneI, kJne32R, kJne32I},
    {BPF_JGT, kJgtR, kJgtI, kJgt32R, kJgt32I},
    {BPF_JGE, kJgeR, kJgeI, kJge32R, kJge32I},
    {BPF_JLT, kJltR, kJltI, kJlt32R, kJlt32I},
    {BPF_JLE, kJleR, kJleI, kJle32R, kJle32I},
    {BPF_JSET, kJsetR, kJsetI, kJset32R, kJset32I},
    {BPF_JSGT, kJsgtR, kJsgtI, kJsgt32R, kJsgt32I},
    {BPF_JSGE, kJsgeR, kJsgeI, kJsge32R, kJsge32I},
    {BPF_JSLT, kJsltR, kJsltI, kJslt32R, kJslt32I},
    {BPF_JSLE, kJsleR, kJsleI, kJsle32R, kJsle32I},
};

// The ISA table: the decoded kind of every valid opcode byte, kBadOp for
// the rest (the kernel's bpf_opcode_in_insntable()). BPF_END maps to its
// 16-bit kind; the width comes from imm.
constexpr std::array<std::uint16_t, 256> kOpcodeKind = [] {
  std::array<std::uint16_t, 256> t{};
  t.fill(kBadOp);
  for (const OpRow& r : kAluRows) {
    t[BPF_ALU64 | r.op | BPF_X] = r.r64;
    t[BPF_ALU64 | r.op | BPF_K] = r.i64;
    t[BPF_ALU | r.op | BPF_X] = r.r32;
    t[BPF_ALU | r.op | BPF_K] = r.i32;
  }
  for (const OpRow& r : kJmpRows) {
    t[BPF_JMP | r.op | BPF_X] = r.r64;
    t[BPF_JMP | r.op | BPF_K] = r.i64;
    t[BPF_JMP32 | r.op | BPF_X] = r.r32;
    t[BPF_JMP32 | r.op | BPF_K] = r.i32;
  }
  // Linux 4.18 has BPF_NEG only with BPF_K and BPF_END only in BPF_ALU.
  t[BPF_ALU64 | BPF_NEG | BPF_K] = kNeg64;
  t[BPF_ALU | BPF_NEG | BPF_K] = kNeg32;
  t[BPF_ALU | BPF_END | BPF_TO_LE] = kLe16;
  t[BPF_ALU | BPF_END | BPF_TO_BE] = kBe16;
  // Sizes in the order of the 1/2/4/8-byte kinds.
  constexpr std::uint8_t kSizes[] = {BPF_B, BPF_H, BPF_W, BPF_DW};
  for (std::uint16_t s = 0; s < 4; ++s) {
    t[BPF_LDX | kSizes[s] | BPF_MEM] = kLd1 + s;
    t[BPF_ST | kSizes[s] | BPF_MEM] = kSt1I + s;
    t[BPF_STX | kSizes[s] | BPF_MEM] = kSt1R + s;
  }
  t[BPF_LD | BPF_DW | BPF_IMM] = kLdImm64;
  t[BPF_JMP | BPF_JA] = kJa;
  t[BPF_JMP | BPF_CALL] = kCall;
  t[BPF_JMP | BPF_EXIT] = kExit;
  return t;
}();

// Why the table has no entry for `opcode`.
std::string bad_opcode(std::uint8_t opcode) {
  switch (opcode & 0x07) {
    case BPF_LD: return "unsupported BPF_LD mode";
    case BPF_LDX: return "unsupported LDX mode";
    case BPF_ST:
    case BPF_STX: return "unsupported store mode";
    case BPF_ALU:
    case BPF_ALU64:
      // No register operand to a negation; Linux rejects the BPF_X form.
      if ((opcode & 0xf8) == (BPF_NEG | BPF_X))
        return "BPF_NEG with register source";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "unknown opcode 0x%02x", opcode);
  return buf;
}

DecodeResult fail(std::size_t idx, std::string what) {
  return {nullptr, std::move(what), static_cast<int>(idx)};
}

}  // namespace

DecodeResult decode_program(const std::vector<Insn>& insns,
                            const HelperRegistry* helpers) {
  const std::size_t n = insns.size();
  if (n == 0) return {nullptr, "empty program", -1};
  if (n > static_cast<std::size_t>(kMaxInsns))
    return {nullptr,
            "program too large (" + std::to_string(n) + " > " +
                std::to_string(kMaxInsns) + ")",
            -1};

  // Pass 1: slot classification + insn index -> op index (ld_imm64 fuses
  // 2 slots into 1 op).
  std::vector<bool> is_aux(n, false);
  std::vector<std::int32_t> op_index(n + 1, -1);
  {
    std::int32_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      op_index[i] = next++;
      if (insns[i].is_ld_imm64()) {
        if (i + 1 >= n) return fail(i, "ld_imm64 missing second slot");
        const Insn& aux = insns[i + 1];
        if (aux.opcode != 0)
          return fail(i + 1, "ld_imm64 second slot must have opcode 0");
        // Only imm (the high half) is meaningful; the kernel rejects the
        // rest as reserved.
        if (aux.dst != 0 || aux.src != 0 || aux.off != 0)
          return fail(i + 1, "invalid bpf_ld_imm64 insn");
        is_aux[++i] = true;
      }
    }
    op_index[n] = next;
  }

  auto out = std::make_shared<DecodedProgram>();
  out->ops_.reserve(op_index[n]);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = i;
    const Insn& insn = insns[i];
    DecodedInsn op;
    op.kind = kOpcodeKind[insn.opcode];
    op.dst = insn.dst;
    op.src = insn.src;
    op.off = insn.off;
    op.imm = insn.imm;
    if (op.kind == kBadOp) return fail(at, bad_opcode(insn.opcode));
    // Register fields are judged in every slot, read or not, as the
    // reference interpreter faults on any out-of-range register number.
    if (insn.dst >= kNumRegs)
      return fail(at, "destination register out of range");
    if (insn.src >= kNumRegs) return fail(at, "source register out of range");
    const std::uint8_t cls = insn.insn_class();
    if (insn.src != 0 && insn.src_reserved())
      return fail(at, cls == BPF_ST ? "BPF_ST uses reserved fields"
                      : cls == BPF_JMP || cls == BPF_JMP32
                          ? "BPF_JMP/JMP32 uses reserved fields"
                          : "BPF_ALU uses reserved fields");
    switch (cls) {
      case BPF_ALU64:
      case BPF_ALU:
        if (insn.alu_op() == BPF_END) {
          if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64)
            return fail(at, "bad byteswap width");
          op.kind += insn.imm == 16 ? 0 : insn.imm == 32 ? 1 : 2;
        } else if (!insn.uses_reg_src() && insn.alu_op() != BPF_NEG) {
          op.imm64 = cls == BPF_ALU64 ? sext_imm64(insn.imm)
                                      : static_cast<std::uint32_t>(insn.imm);
        }
        break;
      case BPF_LD:
        if (insn.src == BPF_PSEUDO_MAP_FD) {
          // Map references carry the registry id as their runtime value.
          op.imm64 = static_cast<std::uint32_t>(insn.imm);
        } else if (insn.src == 0) {
          op.imm64 = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          insns[i + 1].imm))
                      << 32) |
                     static_cast<std::uint32_t>(insn.imm);
        } else {
          return fail(at, "unknown ld_imm64 pseudo source");
        }
        ++i;  // skip aux slot
        break;
      case BPF_LDX:
      case BPF_ST:
      case BPF_STX:
        break;
      default: {  // BPF_JMP, BPF_JMP32
        if (op.kind == kExit) break;
        if (op.kind == kCall) {
          if (helpers == nullptr ||
              (op.fn = helpers->fn(insn.imm)) == nullptr)
            return fail(at,
                        "call to unknown helper " + std::to_string(insn.imm));
          break;
        }
        const std::int64_t t64 = static_cast<std::int64_t>(i) + 1 + insn.off;
        if (t64 < 0 || t64 >= static_cast<std::int64_t>(n))
          return fail(at, "jump target out of program bounds");
        const auto t = static_cast<std::size_t>(t64);
        if (is_aux[t]) return fail(at, "jump into the middle of ld_imm64");
        op.target = op_index[t];
        if (op.kind == kJa) break;
        if (!insn.uses_reg_src()) op.imm64 = sext_imm64(insn.imm);
      }
    }
    // Fetch safety: the engines never bounds-check the decoded pc, so no op
    // may fall through (or conditionally fall through) past the end. (`i`
    // already points at the aux slot for a fused ld_imm64.)
    if (op.kind != kExit && op.kind != kJa && i + 1 >= n)
      return fail(at, "control flow falls off the end of the program");
    out->ops_.push_back(op);
  }
  return {std::move(out), {}, -1};
}

}  // namespace srv6bpf::ebpf
