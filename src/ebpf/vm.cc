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

  // The engines run the decoded form the verifier proved (jump targets,
  // fused ld_imm64, resolved helpers). Native code is emitted from it where
  // the host supports it; without it the program runs on the interpreter,
  // which shares the same decoded form.
  std::shared_ptr<const DecodedProgram> decoded = result.verify.decoded;
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

ExecResult BpfSystem::run(const LoadedProgram& prog, ExecEnv& env,
                          std::uint64_t ctx) const {
  if (env.maps == nullptr) env.maps = const_cast<MapRegistry*>(&maps_);
  if (env.helpers == nullptr)
    env.helpers = const_cast<HelperRegistry*>(&helpers_);
  if (jit_enabled_)
    if (const NativeCode* nc = prog.native()) return nc->run(env, ctx);
  return interp_.run(prog.decoded(), env, ctx);
}

}  // namespace srv6bpf::ebpf
