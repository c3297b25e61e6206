// The eBPF static verifier.
//
// Before a program may be attached to a hook it must be proven safe:
//   * the control-flow graph is a DAG (no back-edges; pre-5.3 kernel rule),
//     every path ends in BPF_EXIT, and no jump lands inside a LD_IMM64 pair;
//   * registers are typed (scalar / ctx / packet / stack / map-value / map
//     pointer) and never used uninitialised;
//   * packet bytes may only be loaded after the program has established
//     bounds with the canonical `if (data + N > data_end) goto out;` pattern,
//     and packet memory is read-only for LWT/seg6local program types (writes
//     go through the SRv6 helpers — this is principle (i) of the paper §3);
//   * stack accesses stay within the 512-byte frame and never read slots
//     that were not previously written; pointer spills/fills are tracked;
//   * helper call sites match the registered helper prototypes, map-value
//     pointers are null-checked before use, and helpers that can reallocate
//     the packet invalidate previously derived packet pointers.
//
// Implementation: decode_program (ebpf/decode.h) runs first and judges the
// encoding of every instruction, reachable or not: opcodes, registers,
// jump targets, ld_imm64 pairs, helper ids, program size. Then a DFS proves
// the CFG a DAG with no unreachable instruction, and explicit-state
// symbolic execution walks it with state pruning (identical-state
// deduplication at jump targets and every eighth instruction). The DAG
// property bounds the exploration; a visited-state budget rejects
// pathological programs as "too complex", like the kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/decode.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/map.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

struct VerifyStats {
  std::size_t states_visited = 0;
  std::size_t states_pruned = 0;
  std::size_t peak_worklist = 0;
};

struct VerifyResult {
  bool ok = false;
  std::string error;     // empty on success
  int error_insn = -1;   // instruction index the error refers to
  VerifyStats stats;
  // The decoded form of the program just proved safe; null on rejection.
  // BpfSystem::load hands it to the engines, so a load decodes once.
  std::shared_ptr<const DecodedProgram> decoded;
};

class Verifier {
 public:
  // `maps` resolves pseudo map-fd loads; `helpers` provides call prototypes.
  Verifier(const MapRegistry* maps, const HelperRegistry* helpers)
      : maps_(maps), helpers_(helpers) {}

  VerifyResult verify(const Program& prog) const;
  VerifyResult verify(const std::vector<Insn>& insns, ProgType type) const;

 private:
  const MapRegistry* maps_;
  const HelperRegistry* helpers_;
};

}  // namespace srv6bpf::ebpf
