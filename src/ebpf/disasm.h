// Decoded-program disassembler.
//
// tests/ebpf_differential_test.cc generates random programs; when an engine
// disagrees, a failure message showing "program #317 differs" is useless
// without the program. These helpers render the decode-once form (the
// representation every engine actually executes) as one op per line with
// resolved jump targets, so a differential failure is immediately
// reproducible by eye. `DecodedProgram::dump()` is a thin wrapper.
#pragma once

#include <cstdint>
#include <string>

#include "ebpf/decode.h"

namespace srv6bpf::ebpf {

// Enumerator name for a decoded op kind ("kAdd64R"), or "k?" when out of
// range. Generated from SRV6BPF_OPKIND_LIST, so it can never drift from the
// enum.
const char* opkind_name(std::uint16_t kind);

// One op as a line fragment (no trailing newline), e.g.
//   "12: kJeqI      dst=r3 imm64=0x2a -> 17"
std::string disasm(const DecodedInsn& op);

// Whole program, one indexed line per op, trailing newline after each.
std::string disasm(const DecodedProgram& prog);

}  // namespace srv6bpf::ebpf
