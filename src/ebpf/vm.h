// BpfSystem: the per-node "kernel BPF subsystem" facade.
//
// Owns the map registry, the helper registry and the execution engines, and
// enforces the kernel's invariant chain: programs are verified at load time,
// JIT-compiled if verification succeeded, and only then attachable to hooks.
// A node-wide JIT switch mirrors /proc/sys/net/core/bpf_jit_enable, which the
// paper toggles for its §3.2 JIT experiment (and which is forced off on the
// Turris Omnia CPE in §4.2 because of the ARM32 JIT bug).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/decode.h"
#include "ebpf/exec.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/jit_x86.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"

namespace srv6bpf::ebpf {

// A verified, loaded program: its instructions, their decode-once form and,
// when the host could emit it, the native machine code.
class LoadedProgram {
 public:
  LoadedProgram(Program prog, std::shared_ptr<const DecodedProgram> decoded,
                std::shared_ptr<const NativeCode> native)
      : prog_(std::move(prog)),
        decoded_(std::move(decoded)),
        native_(std::move(native)) {}

  const Program& program() const noexcept { return prog_; }
  const std::string& name() const noexcept { return prog_.name(); }
  ProgType type() const noexcept { return prog_.type(); }
  const DecodedProgram& decoded() const noexcept { return *decoded_; }
  // Emitted x86-64 code, or null when the host could not emit any (then
  // even a JIT-enabled system runs the interpreter).
  const NativeCode* native() const noexcept { return native_.get(); }

 private:
  Program prog_;
  std::shared_ptr<const DecodedProgram> decoded_;
  std::shared_ptr<const NativeCode> native_;
};

using ProgHandle = std::shared_ptr<LoadedProgram>;

class BpfSystem {
 public:
  BpfSystem() { register_generic_helpers(helpers_); }

  MapRegistry& maps() noexcept { return maps_; }
  const MapRegistry& maps() const noexcept { return maps_; }
  HelperRegistry& helpers() noexcept { return helpers_; }

  // bpf_jit_enable. Default on, as in the paper's main experiments. On,
  // a program runs its native machine code when the host could emit it and
  // the pre-decoded interpreter otherwise (the kernel without
  // CONFIG_BPF_JIT_ALWAYS_ON); off, it always runs the interpreter. Read at
  // run time, so benches may flip it after load.
  void set_jit_enabled(bool on) noexcept { jit_enabled_ = on; }
  bool jit_enabled() const noexcept { return jit_enabled_; }

  // When enabled, each successful load logs one line (program name, op
  // count, emitted-code size) to stderr. Defaults to the
  // SRV6BPF_LOG_LOADS environment variable so scenario binaries can be
  // inspected without a rebuild; tests that load thousands of programs keep
  // it off.
  void set_log_loads(bool on) noexcept { log_loads_ = on; }

  struct LoadResult {
    ProgHandle prog;  // null on verification failure
    VerifyResult verify;
    bool ok() const noexcept { return prog != nullptr; }
  };

  // Decode, verify, then emit native code where the host supports it. On
  // rejection returns a null handle and the verifier diagnostics; a
  // malformed instruction stream is a rejection too, never an exception.
  LoadResult load(std::string name, ProgType type, std::vector<Insn> insns,
                  std::size_t sloc_hint = 0);

  // Runs a loaded program with the node's registries wired into `env`,
  // under the current set_jit_enabled setting.
  ExecResult run(const LoadedProgram& prog, ExecEnv& env,
                 std::uint64_t ctx) const;

 private:
  static bool log_loads_default() noexcept;  // SRV6BPF_LOG_LOADS env var

  MapRegistry maps_;
  HelperRegistry helpers_;
  Interpreter interp_;
  bool jit_enabled_ = true;
  bool log_loads_ = log_loads_default();
};

}  // namespace srv6bpf::ebpf
