// The reference oracle the engine tests compare against: the
// decode-every-step Interpreter::run(const Program&), which shares no code
// with the decoder that both the native JIT and the pre-decoded interpreter
// consume. BpfSystem never dispatches to it, so the node's registries are
// bound here the way BpfSystem::run binds them.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "ebpf/exec.h"
#include "ebpf/interp.h"
#include "ebpf/vm.h"

namespace srv6bpf::ebpf {

inline ExecResult run_oracle(BpfSystem& sys, const LoadedProgram& prog,
                             ExecEnv& env, std::uint64_t ctx) {
  env.maps = &sys.maps();
  env.helpers = &sys.helpers();
  return Interpreter{}.run(prog.program(), env, ctx);
}

// Everything a BpfSystem run must agree with the oracle on.
inline void expect_matches_oracle(const ExecResult& got,
                                  const ExecResult& oracle) {
  EXPECT_EQ(got.ok(), oracle.ok()) << got.error << " vs " << oracle.error;
  EXPECT_EQ(got.ret, oracle.ret);
  EXPECT_EQ(got.insns_executed, oracle.insns_executed);
  EXPECT_EQ(got.helper_calls, oracle.helper_calls);
}

}  // namespace srv6bpf::ebpf
