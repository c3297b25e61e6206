// Verifier accept/reject corpus. Mirrors the style of the kernel's
// tools/testing/selftests/bpf/verifier tests: each case is a small program
// plus an expectation about acceptance or the rejection reason.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/decode.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "seg6/helpers.h"

namespace srv6bpf::ebpf {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() {
    register_generic_helpers(helpers_);
    seg6::register_seg6_helpers(helpers_);
    map_id_ = maps_.create({MapType::kHash, 4, 8, 16, "h"});
    perf_id_ = create_perf_event_array(maps_, "perf");
  }

  VerifyResult verify(const Asm& a,
                      ProgType type = ProgType::kLwtSeg6Local) const {
    Verifier v(&maps_, &helpers_);
    return v.verify(a.build(), type);
  }

  void expect_ok(const Asm& a, ProgType type = ProgType::kLwtSeg6Local) {
    const auto r = verify(a, type);
    EXPECT_TRUE(r.ok) << r.error;
  }
  void expect_reject(const Asm& a, const std::string& needle,
                     ProgType type = ProgType::kLwtSeg6Local) {
    const auto r = verify(a, type);
    EXPECT_FALSE(r.ok) << "expected rejection containing '" << needle << "'";
    if (!r.ok) {
      EXPECT_NE(r.error.find(needle), std::string::npos)
          << "actual error: " << r.error;
    }
  }

  MapRegistry maps_;
  HelperRegistry helpers_;
  std::uint32_t map_id_;
  std::uint32_t perf_id_;
};

// ---- CFG ----------------------------------------------------------------------

TEST_F(VerifierTest, EmptyProgramRejected) {
  Verifier v(&maps_, &helpers_);
  const auto r = v.verify(std::vector<Insn>{}, ProgType::kLwtSeg6Local);
  EXPECT_FALSE(r.ok);
}

TEST_F(VerifierTest, MinimalProgramAccepted) {
  Asm a;
  a.mov64_imm(R0, 0).exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, RegSrcNegRejected) {
  // BPF_NEG has no register operand; Linux rejects the BPF_X encoding.
  for (const std::uint8_t cls : {BPF_ALU64, BPF_ALU}) {
    Asm a;
    a.mov64_imm(R0, 5)
        .raw({static_cast<std::uint8_t>(cls | BPF_NEG | BPF_X), 0, 1, 0, 0})
        .exit_();
    expect_reject(a, "BPF_NEG");
  }
}

TEST_F(VerifierTest, ImmNegStillAccepted) {
  Asm a;
  a.mov64_imm(R0, 5).neg64(R0).exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, BackEdgeRejected) {
  Asm a;
  a.mov64_imm(R0, 0).label("loop").add64_imm(R0, 1).ja("loop");
  expect_reject(a, "back-edge");
}

TEST_F(VerifierTest, FallOffEndRejected) {
  Asm a;
  a.mov64_imm(R0, 0);  // no exit
  expect_reject(a, "falls off the end");
}

TEST_F(VerifierTest, JumpOutOfBoundsRejected) {
  Asm a;
  a.raw({BPF_JMP | BPF_JA, 0, 0, 100, 0}).exit_();
  expect_reject(a, "out of program bounds");
}

TEST_F(VerifierTest, JumpIntoLdImm64Rejected) {
  Asm a;
  a.raw({BPF_JMP | BPF_JA, 0, 0, 1, 0});  // lands on the aux slot
  a.ld_imm64(R0, 1).exit_();
  expect_reject(a, "middle of ld_imm64");
}

TEST_F(VerifierTest, UnreachableCodeRejected) {
  Asm a;
  a.mov64_imm(R0, 0).exit_().mov64_imm(R1, 1).exit_();
  expect_reject(a, "unreachable");
}

TEST_F(VerifierTest, TooManyInstructionsRejected) {
  Asm a;
  for (int i = 0; i < kMaxInsns; ++i) a.mov64_imm(R0, 0);
  a.exit_();
  expect_reject(a, "too large");
}

// ---- Register initialisation -----------------------------------------------------

TEST_F(VerifierTest, ReadUninitialisedRegisterRejected) {
  Asm a;
  a.mov64_reg(R0, R2).exit_();
  expect_reject(a, "uninitialised register");
}

TEST_F(VerifierTest, ExitWithoutR0Rejected) {
  Asm a;
  a.exit_();
  expect_reject(a, "uninitialised");
}

TEST_F(VerifierTest, ExitWithPointerR0Rejected) {
  Asm a;
  a.mov64_reg(R0, R1).exit_();  // R1 = ctx pointer
  expect_reject(a, "scalar return value");
}

TEST_F(VerifierTest, WriteToFramePointerRejected) {
  Asm a;
  a.mov64_imm(R10, 0).mov64_imm(R0, 0).exit_();
  expect_reject(a, "read-only");
}

// ---- Stack ------------------------------------------------------------------------

TEST_F(VerifierTest, StackReadBeforeWriteRejected) {
  Asm a;
  a.ldx(BPF_DW, R0, R10, -8).exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, StackWriteThenReadOk) {
  Asm a;
  a.mov64_imm(R1, 7)
      .stx(BPF_DW, R10, R1, -8)
      .ldx(BPF_DW, R0, R10, -8)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, StackOutOfBoundsRejected) {
  Asm a;
  a.mov64_imm(R1, 7).stx(BPF_DW, R10, R1, -520).mov64_imm(R0, 0).exit_();
  expect_reject(a, "stack access out of bounds");
}

TEST_F(VerifierTest, PositiveStackOffsetRejected) {
  Asm a;
  a.mov64_imm(R1, 7).stx(BPF_DW, R10, R1, 8).mov64_imm(R0, 0).exit_();
  expect_reject(a, "stack access out of bounds");
}

TEST_F(VerifierTest, PartiallyInitialisedStackReadRejected) {
  Asm a;
  a.mov64_imm(R1, 7)
      .stx(BPF_W, R10, R1, -8)      // only 4 of 8 bytes
      .ldx(BPF_DW, R0, R10, -8)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, PointerSpillAndFillPreservesType) {
  Asm a;
  a.stx(BPF_DW, R10, R1, -8)      // spill ctx
      .ldx(BPF_DW, R2, R10, -8)   // fill
      .ldx(BPF_W, R0, R2, 16)     // use as ctx: load skb->len
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, PartialPointerSpillRejected) {
  Asm a;
  a.stx(BPF_W, R10, R1, -8).mov64_imm(R0, 0).exit_();
  expect_reject(a, "pointer spill");
}

TEST_F(VerifierTest, PartialReadOfSpilledPointerRejected) {
  Asm a;
  a.stx(BPF_DW, R10, R1, -8)
      .ldx(BPF_W, R0, R10, -8)
      .exit_();
  expect_reject(a, "spilled pointer");
}

// ---- Ctx access ---------------------------------------------------------------------

TEST_F(VerifierTest, CtxLoadKnownFieldsOk) {
  Asm a;
  a.ldx(BPF_W, R0, R1, 16)   // len
      .ldx(BPF_W, R2, R1, 24)  // mark
      .ldx(BPF_DW, R3, R1, 32)  // tstamp
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, CtxLoadBadOffsetRejected) {
  Asm a;
  a.ldx(BPF_W, R0, R1, 17).exit_();
  expect_reject(a, "invalid ctx access");
}

TEST_F(VerifierTest, CtxLoadWrongSizeRejected) {
  Asm a;
  a.ldx(BPF_B, R0, R1, 16).exit_();
  expect_reject(a, "invalid ctx access");
}

TEST_F(VerifierTest, CtxWriteMarkAllowed) {
  Asm a;
  a.mov64_imm(R2, 1)
      .stx(BPF_W, R1, R2, 24)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, CtxWriteReadOnlyFieldRejected) {
  Asm a;
  a.mov64_imm(R2, 1).stx(BPF_W, R1, R2, 16).mov64_imm(R0, 0).exit_();
  expect_reject(a, "read-only ctx field");
}

// ---- Packet access ---------------------------------------------------------------------

TEST_F(VerifierTest, PacketReadWithoutBoundsCheckRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)   // data
      .ldx(BPF_B, R0, R2, 0)  // unchecked read
      .exit_();
  expect_reject(a, "bound check");
}

TEST_F(VerifierTest, PacketReadAfterBoundsCheckOk) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)    // data
      .ldx(BPF_DW, R3, R1, 8)  // data_end
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .ldx(BPF_B, R0, R2, 39)
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, PacketReadBeyondCheckedRangeRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .ldx(BPF_B, R0, R2, 40)  // one past the verified range
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "out of verified range");
}

TEST_F(VerifierTest, PacketWriteRejectedForLwtPrograms) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .mov64_imm(R5, 0)
      .stx(BPF_B, R2, R5, 0)  // direct packet write: forbidden (§3)
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "direct packet write");
}

TEST_F(VerifierTest, WrongBranchOfBoundsCheckRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "over")   // taken branch: data+40 > end -> NOT safe
      .mov64_imm(R0, 0)
      .exit_()
      .label("over")
      .ldx(BPF_B, R0, R2, 0)  // reading here is invalid
      .exit_();
  expect_reject(a, "bound check");
}

TEST_F(VerifierTest, PacketPointersKilledByResizingHelper) {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R4, R7)
      .add64_imm(R4, 48)
      .jgt_reg(R4, R8, "out")
      // adjust_srh can reallocate the packet...
      .mov64_reg(R1, R6)
      .mov64_imm(R2, 48)
      .mov64_imm(R3, 8)
      .call(helper::LWT_SEG6_ADJUST_SRH)
      // ...so the old pointer must be unusable now.
      .ldx(BPF_B, R0, R7, 0)
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "");  // either uninit reg or range error is acceptable
}

// ---- Pointer arithmetic ------------------------------------------------------------------

TEST_F(VerifierTest, PointerLeakToCtxRejected) {
  Asm a;
  a.mov64_reg(R2, R10)
      .stx(BPF_W, R1, R2, 24)  // store stack ptr into ctx->mark
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "");
}

TEST_F(VerifierTest, UnboundedPacketOffsetRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .ldx(BPF_DW, R4, R1, 32)  // tstamp: unknown scalar, unbounded
      .add64_reg(R2, R4)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "unbounded");
}

TEST_F(VerifierTest, PartialPointerCopyRejected) {
  // A 32-bit move would turn the frame pointer's low half into a scalar
  // that a map could then hold.
  Asm a;
  a.mov32_reg(R0, R10).exit_();
  expect_reject(a, "partial copy of pointer");
}

TEST_F(VerifierTest, PointerMultiplicationRejected) {
  Asm a;
  a.mov64_reg(R2, R10).mul64_imm(R2, 2).mov64_imm(R0, 0).exit_();
  expect_reject(a, "only add/sub");
}

TEST_F(VerifierTest, DereferencingScalarRejected) {
  Asm a;
  a.mov64_imm(R2, 0x1234).ldx(BPF_DW, R0, R2, 0).exit_();
  expect_reject(a, "not a pointer");
}

TEST_F(VerifierTest, DivisionByZeroImmediateRejected) {
  Asm a;
  a.mov64_imm(R0, 1).div64_imm(R0, 0).exit_();
  expect_reject(a, "division by zero");
}

TEST_F(VerifierTest, OversizedShiftRejected) {
  Asm a;
  a.mov64_imm(R0, 1).lsh64_imm(R0, 64).exit_();
  expect_reject(a, "shift amount");
}

// ---- Maps & helpers -----------------------------------------------------------------------

TEST_F(VerifierTest, MapLookupRequiresNullCheck) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .ldx(BPF_DW, R0, R0, 0)  // no null check!
      .exit_();
  expect_reject(a, "null-checked");
}

TEST_F(VerifierTest, MapLookupWithNullCheckOk) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 0)
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, MapValueAccessOutOfBoundsRejected) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 4)  // value_size is 8: bytes 4..11 overflow
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "map value access out of bounds");
}

TEST_F(VerifierTest, UnknownMapIdRejected) {
  Asm a;
  a.ld_map(R1, 999).mov64_imm(R0, 0).exit_();
  expect_reject(a, "unknown map");
}

TEST_F(VerifierTest, CallUnknownHelperRejected) {
  Asm a;
  a.call(4242).exit_();
  expect_reject(a, "unknown helper");
}

TEST_F(VerifierTest, HelperKeyArgMustBeInitialised) {
  Asm a;
  a.ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)     // stack bytes never written
      .call(helper::MAP_LOOKUP_ELEM)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, HelperMapArgMustBeMapPointer) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .mov64_imm(R1, 5)  // scalar, not a map
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "must be a map pointer");
}

TEST_F(VerifierTest, PerfEventOutputChecksMemArg) {
  Asm a;
  a.mov64_reg(R6, R1)
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_id_)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -8)  // uninitialised stack bytes
      .mov64_imm(R5, 8)
      .call(helper::PERF_EVENT_OUTPUT)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, Seg6HelperRequiresSeg6LocalProgType) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_W, R10, -4, 0)
      .mov64_reg(R1, R6)
      .mov32_imm(R2, 3)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -4)
      .mov32_imm(R4, 4)
      .call(helper::LWT_SEG6_ACTION)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a, ProgType::kLwtSeg6Local);
  expect_reject(a, "not allowed for program type", ProgType::kLwtXmit);
}

TEST_F(VerifierTest, PushEncapOnlyForLwtHooks) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_DW, R10, -8, 0)
      .mov64_reg(R1, R6)
      .mov32_imm(R2, 1)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -8)
      .mov32_imm(R4, 8)
      .call(helper::LWT_PUSH_ENCAP)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a, ProgType::kLwtXmit);
  expect_reject(a, "not allowed for program type", ProgType::kLwtSeg6Local);
}

// ---- Branch pruning / bounds refinement -----------------------------------------------------

TEST_F(VerifierTest, RangeRefinementAllowsBoundedIndexing) {
  // A scalar proven < 8 may index an 8-byte window on the stack.
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)   // unknown scalar (skb->len)
      .and64_imm(R2, 7)      // now in [0,7]
      .mov64_imm(R3, 0)
      .stx(BPF_DW, R10, R3, -8)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -8)
      .add64_reg(R4, R2)     // stack ptr with bounded variable offset...
      .mov64_imm(R0, 0)
      .exit_();
  // ...but our verifier (like the kernel for a long time) requires constant
  // stack offsets for *access*; merely forming the pointer is fine.
  expect_ok(a);
}

TEST_F(VerifierTest, VariableStackAccessRejected) {
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)
      .and64_imm(R2, 7)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -16)
      .add64_reg(R4, R2)
      .ldx(BPF_B, R0, R4, 0)
      .exit_();
  expect_reject(a, "variable offset into stack");
}

TEST_F(VerifierTest, InfeasibleBranchNotExplored) {
  // After `if (r2 > 10) exit`, the fall-through has r2 <= 10, so a second
  // check `if (r2 > 20)` can never be taken; the verifier must not complain
  // about the (dead) unchecked packet access... it still explores the branch
  // structurally, so keep the dead branch safe. What we check here: bounds
  // refinement makes the final packet read valid.
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)    // data
      .ldx(BPF_DW, R3, R1, 8)  // data_end
      .ldx(BPF_W, R4, R1, 16)  // len (scalar)
      .jgt_imm(R4, 10, "out")
      // r4 in [0,10]
      .mov64_reg(R5, R2)
      .add64_reg(R5, R4)       // pkt + [0,10]
      .add64_imm(R5, 1)        // pkt + [1,11]
      .jgt_reg(R5, R3, "out")  // check pkt+[1,11] <= end -> proves >=1 byte
      .ldx(BPF_B, R0, R2, 0)   // safe: 1 byte from start
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, StatsReportPruning) {
  Asm a;
  // Diamond: two paths converge with identical state; pruning should kick
  // in. JSET performs no range refinement, so both sides stay identical.
  a.ldx(BPF_W, R2, R1, 16)
      .jset_imm(R2, 4, "b")
      .mov64_imm(R3, 0)
      .ja("join")
      .label("b")
      .mov64_imm(R3, 0)
      .label("join")
      .mov64_imm(R0, 0)
      .exit_();
  const auto r = verify(a);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stats.states_pruned, 0u);
}

// ---- Must-reject encodings ----------------------------------------------------
//
// test_verifier-style table: an instruction sequence and the text its
// rejection must contain. Decode judges every slot before the symbolic walk,
// so each case is rejected on a straight line and equally behind
// `mov r0,0; jeq r0,0,+n`, whose fall-through the walk proves infeasible and
// never visits.

constexpr std::uint8_t kModeAbs = 0x20;   // BPF_ABS
constexpr std::uint8_t kModeInd = 0x40;   // BPF_IND
constexpr std::uint8_t kModeXadd = 0xc0;  // BPF_XADD

struct MustReject {
  std::string descr;
  std::vector<Insn> insns;
  std::string errstr;
  int bad_slot = 0;  // offending slot within `insns`
};

std::vector<MustReject> must_reject_table() {
  std::vector<MustReject> t;
  // Opcodes outside the ISA: unknown ALU and JMP operations, JA/CALL/EXIT
  // with the X bit or in JMP32, and BPF_END in ALU64 (not in Linux 4.18).
  for (const int code : {0xe4, 0xe7, 0xec, 0xef, 0xf4, 0xf7, 0xfc, 0xff,
                         0xe5, 0xe6, 0xed, 0xee, 0xf5, 0xf6, 0xfd, 0xfe,
                         0x06, 0x0d, 0x0e, 0x86, 0x8d, 0x8e, 0x96, 0x9d,
                         0x9e, 0xd7, 0xdf}) {
    char descr[32];
    std::snprintf(descr, sizeof descr, "opcode 0x%02x", code);
    t.push_back({descr,
                 {{static_cast<std::uint8_t>(code), R2, R3, 0, 16}},
                 "unknown opcode"});
  }
  t.push_back({"byteswap width 8",
               {{BPF_ALU | BPF_END | BPF_TO_BE, R2, 0, 0, 8}},
               "bad byteswap width"});
  t.push_back({"BPF_NEG with BPF_X",
               {{BPF_ALU64 | BPF_NEG | BPF_X, R2, R3, 0, 0}},
               "BPF_NEG with register source"});
  t.push_back({"BPF_LD|BPF_ABS",
               {{BPF_LD | BPF_W | kModeAbs, 0, 0, 0, 0}},
               "unsupported BPF_LD mode"});
  t.push_back({"BPF_LD|BPF_IND",
               {{BPF_LD | BPF_W | kModeInd, 0, R3, 0, 0}},
               "unsupported BPF_LD mode"});
  t.push_back({"BPF_LDX|BPF_ABS",
               {{BPF_LDX | BPF_DW | kModeAbs, R2, R10, -8, 0}},
               "unsupported LDX mode"});
  t.push_back({"BPF_STX|BPF_XADD",
               {{BPF_STX | BPF_DW | kModeXadd, R10, R2, -8, 0}},
               "unsupported store mode"});
  t.push_back({"ld_imm64 second slot with an opcode",
               {{BPF_LD | BPF_DW | BPF_IMM, R2, 0, 0, 1},
                {BPF_ALU64 | BPF_MOV | BPF_K, R0, 0, 0, 0}},
               "second slot must have opcode 0",
               1});
  for (const Insn& aux : {Insn{0, R1, 0, 0, 0}, Insn{0, 0, R1, 0, 0},
                          Insn{0, 0, 0, 1, 0}}) {
    t.push_back({"ld_imm64 second slot with dst/src/off " +
                     std::to_string(aux.dst) + "/" + std::to_string(aux.src) +
                     "/" + std::to_string(aux.off),
                 {{BPF_LD | BPF_DW | BPF_IMM, R2, 0, 0, 1}, aux},
                 "invalid bpf_ld_imm64 insn",
                 1});
  }
  // A register field above r10 where the instruction does not read it: the
  // K form of an ALU or JMP op, and BPF_ST.
  t.push_back({"K-form add64 with src 12",
               {{BPF_ALU64 | BPF_ADD | BPF_K, R2, 12, 0, 5}},
               "source register out of range"});
  t.push_back({"K-form jeq with src 11",
               {{BPF_JMP | BPF_JEQ | BPF_K, R2, 11, 0, 5}},
               "source register out of range"});
  t.push_back({"st with src 15",
               {{BPF_ST | BPF_DW | BPF_MEM, R10, 15, -8, 0}},
               "source register out of range"});
  // A register the instruction does not read, in range: the kernel rejects
  // any nonzero src there ("uses reserved fields").
  t.push_back({"K-form add64 with src r3",
               {{BPF_ALU64 | BPF_ADD | BPF_K, R2, R3, 0, 5}},
               "BPF_ALU uses reserved fields"});
  t.push_back({"K-form mov32 with src r1",
               {{BPF_ALU | BPF_MOV | BPF_K, R2, R1, 0, 5}},
               "BPF_ALU uses reserved fields"});
  t.push_back({"be16 with src r3",
               {{BPF_ALU | BPF_END | BPF_TO_BE, R2, R3, 0, 16}},
               "BPF_ALU uses reserved fields"});
  t.push_back({"K-form jeq with src r3",
               {{BPF_JMP | BPF_JEQ | BPF_K, R2, R3, 0, 5}},
               "BPF_JMP/JMP32 uses reserved fields"});
  t.push_back({"K-form jgt32 with src r10",
               {{BPF_JMP32 | BPF_JGT | BPF_K, R2, R10, 0, 5}},
               "BPF_JMP/JMP32 uses reserved fields"});
  t.push_back({"st with src r2",
               {{BPF_ST | BPF_DW | BPF_MEM, R10, R2, -8, 0}},
               "BPF_ST uses reserved fields"});
  t.push_back({"ld_imm64 pseudo src 2",
               {{BPF_LD | BPF_DW | BPF_IMM, R2, 2, 0, 1}, {0, 0, 0, 0, 0}},
               "unknown ld_imm64 pseudo source"});
  t.push_back({"unknown helper id",
               {{BPF_JMP | BPF_CALL, 0, 0, 0, 4242}},
               "unknown helper"});
  return t;
}

TEST_F(VerifierTest, MustRejectTableRejectedOnEveryPath) {
  for (const MustReject& c : must_reject_table()) {
    for (const bool infeasible : {false, true}) {
      SCOPED_TRACE(c.descr + (infeasible ? " behind an infeasible branch"
                                         : " on a straight line"));
      Asm a;
      a.mov64_imm(R0, 0).mov64_imm(R2, 1).mov64_imm(R3, 1);
      if (infeasible)
        a.raw({BPF_JMP | BPF_JEQ | BPF_K, R0, 0,
               static_cast<std::int16_t>(c.insns.size()), 0});
      const int at = static_cast<int>(a.build().size()) + c.bad_slot;
      for (const Insn& insn : c.insns) a.raw(insn);
      a.mov64_imm(R0, 0).exit_();

      const VerifyResult r = verify(a);
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find(c.errstr), std::string::npos) << r.error;
      EXPECT_EQ(r.error_insn, at) << r.error;
    }
  }
}

// Every opcode byte, with src 0 or 1 and imm 0, 16, 32 or 64, as the one
// instruction under test of a straight-line program. Where the opcode has
// operands they are valid (r0-r3 scalars, or pointers to the written stack
// slot fp-8 for memory classes), so the oracle can fault only on the
// encoding itself: it must run exactly the programs decode accepts.
TEST(IsaTable, EveryOpcodeLoadsWithoutThrowingAndDecodeMatchesTheOracle) {
  BpfSystem sys;
  int decoded = 0, loaded = 0;
  for (int code = 0; code < 256; ++code) {
    for (const std::uint8_t src : {0, 1}) {
      for (const std::int32_t imm : {0, 16, 32, 64}) {
        Insn insn{static_cast<std::uint8_t>(code), R2, src, 0, imm};
        Asm a;
        a.mov64_imm(R0, 3).mov64_imm(R1, 5).mov64_imm(R2, 7).mov64_imm(R3, 9);
        a.st(BPF_DW, R10, -8, 0);
        if (insn.insn_class() == BPF_LDX) {  // load fp-8 through r0 or r1
          a.mov64_reg(R0, R10).mov64_reg(R1, R10);
          insn.off = -8;
        } else if (insn.insn_class() == BPF_ST ||
                   insn.insn_class() == BPF_STX) {  // store to fp-8
          insn.dst = R10;
          insn.off = -8;
        }
        a.raw(insn);
        if (insn.is_ld_imm64()) a.raw({0, 0, 0, 0, 0});
        a.mov64_imm(R0, 0).exit_();
        const std::vector<Insn> insns = a.build();
        SCOPED_TRACE(disasm(insn) + " src=" + std::to_string(src) +
                     " imm=" + std::to_string(imm));

        BpfSystem::LoadResult load;
        ASSERT_NO_THROW(
            load = sys.load("sweep", ProgType::kLwtSeg6Local, insns));
        const DecodeResult dec = decode_program(insns, &sys.helpers());
        if (load.ok()) {
          EXPECT_TRUE(dec.ok()) << dec.error;
        }

        ExecEnv env;
        env.maps = &sys.maps();
        env.helpers = &sys.helpers();
        const ExecResult oracle = Interpreter{}.run(
            Program("sweep", ProgType::kLwtSeg6Local, insns), env, 0);
        EXPECT_EQ(dec.ok(), oracle.ok())
            << "decode: " << dec.error << "; oracle: " << oracle.error;
        decoded += dec.ok();
        loaded += load.ok();
      }
    }
  }
  // Both outcomes occur: the sweep is not vacuous.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(decoded, loaded);
}

}  // namespace
}  // namespace srv6bpf::ebpf
