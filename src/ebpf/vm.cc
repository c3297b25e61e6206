#include "ebpf/vm.h"

#include <cstdio>
#include <cstdlib>

namespace srv6bpf::ebpf {

bool BpfSystem::log_loads_default() noexcept {
  const char* v = std::getenv("SRV6BPF_LOG_LOADS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

BpfSystem::LoadResult BpfSystem::load(std::string name, ProgType type,
                                      std::vector<Insn> insns,
                                      std::size_t sloc_hint) {
  Program prog(std::move(name), type, std::move(insns));
  prog.set_sloc_hint(sloc_hint);

  Verifier verifier(&maps_, &helpers_);
  LoadResult result;
  result.verify = verifier.verify(prog);
  if (!result.verify.ok) return result;

  prog.set_verified();
  // Decode once (jump targets, fused ld_imm64, resolved helpers), then emit
  // native machine code where the host supports it. Emission is
  // best-effort: without it the program runs on the interpreter, which
  // shares the same decoded form.
  auto decoded = decode_program(prog, &helpers_);
  std::shared_ptr<const NativeCode> native;
  if (native_jit_available()) native = compile_native(*decoded, nullptr);
  if (log_loads_) {
    std::fprintf(stderr, "bpf: loaded '%s' (%zu ops) native_code=%zuB\n",
                 prog.name().c_str(), decoded->size(),
                 native ? native->code_size() : 0);
  }
  result.prog = std::make_shared<LoadedProgram>(
      std::move(prog), std::move(decoded), std::move(native));
  return result;
}

void BpfSystem::bind_env(ExecEnv& env) const {
  if (env.maps == nullptr) env.maps = const_cast<MapRegistry*>(&maps_);
  if (env.helpers == nullptr)
    env.helpers = const_cast<HelperRegistry*>(&helpers_);
}

ExecResult BpfSystem::run(const LoadedProgram& prog, ExecEnv& env,
                          std::uint64_t ctx) const {
  bind_env(env);
  if (jit_enabled_)
    if (const NativeCode* nc = prog.native()) return nc->run(env, ctx);
  return interp_.run(prog.decoded(), env, ctx);
}

void LoadedProgram::run_burst(
    const BpfSystem& sys, ExecEnv& env, std::span<BurstInvocation> batch,
    util::FunctionRef<void(std::size_t)> prep) const {
  if (batch.empty()) return;
  // Engine choice and env binding are loop-invariant: pay them once per
  // burst instead of once per packet.
  sys.bind_env(env);
  if (const NativeCode* nc = sys.jit_enabled() ? native() : nullptr) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (prep) prep(i);
      batch[i].result = nc->run(env, batch[i].ctx);
    }
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (prep) prep(i);
    batch[i].result = sys.interp_.run(decoded(), env, batch[i].ctx);
  }
}

}  // namespace srv6bpf::ebpf
