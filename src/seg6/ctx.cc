#include "seg6/ctx.h"

#include <utility>

#include "seg6/helpers.h"
#include "seg6/seg6local.h"

namespace srv6bpf::seg6 {

void Seg6ProgCtx::refresh_packet_view() {
  skb.data = reinterpret_cast<std::uint64_t>(pkt->data());
  skb.data_end = skb.data + pkt->size();
  skb.len = static_cast<std::uint32_t>(pkt->size());
  if (env != nullptr && env->regions.size() >= 2) {
    env->regions[1] = ebpf::MemRegion{
        reinterpret_cast<std::uintptr_t>(pkt->data()), pkt->size(), false};
  }
}

Netns::Netns(std::string name)
    : name_(std::move(name)), seg6local_(std::make_unique<Seg6LocalTable>()) {
  register_seg6_helpers(bpf_.helpers());
}

Netns::~Netns() = default;

Fib& Netns::table(int id) { return tables_[id]; }

const Fib* Netns::find_table(int id) const {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : &it->second;
}

std::uint32_t Netns::prandom() {
  // splitmix64 step, truncated.
  prandom_state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = prandom_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::uint32_t>(z >> 32);
}

void Netns::seed_prandom(std::uint64_t seed) { prandom_state_ = seed; }

Netns::BpfRunResult Netns::run_prog(const ebpf::LoadedProgram& prog,
                                    net::Packet& pkt, ProcessTrace* trace) {
  Seg6BurstRunner runner(*this, prog);
  runner.prepare(pkt, trace);
  BpfRunResult out;
  out.exec = bpf_.run(prog, runner.env(), runner.ctx_addr());
  out.verdict = runner.harvest();
  if (trace != nullptr) {
    ++trace->bpf_runs;
    trace->helper_calls += out.exec.helper_calls;
    // Keyed on the switch, not on the code that ran: a JIT-enabled program
    // without native code still bills the bpf_jit_enable=1 bucket.
    if (bpf_.jit_enabled())
      trace->bpf_insns_jit += out.exec.insns_executed;
    else
      trace->bpf_insns_interp += out.exec.insns_executed;
  }
  return out;
}

Seg6BurstRunner::Seg6BurstRunner(Netns& ns, const ebpf::LoadedProgram& prog)
    : ns_(ns) {
  ctx_.netns = &ns;
  ctx_.prog_type = prog.type();
  ctx_.skb.protocol = ebpf::kEthPIpv6Be;
  env_.user = &ctx_;
  env_.now_ns = [&ns] { return ns.now(); };
  env_.prandom = [&ns] { return ns.prandom(); };
  env_.cpu_id = ns.current_cpu;
  // Region 0: the ctx struct (read/write; the verifier confines writes to
  // `mark`). Region 1: packet bytes, retargeted per packet by prepare().
  env_.regions.push_back(ebpf::MemRegion{
      reinterpret_cast<std::uintptr_t>(&ctx_.skb), sizeof ctx_.skb, true});
  env_.regions.push_back(ebpf::MemRegion{0, 0, false});
  ctx_.env = &env_;
}

void Seg6BurstRunner::prepare(net::Packet& pkt, ProcessTrace* trace) {
  ctx_.pkt = &pkt;
  ctx_.trace = trace;
  ctx_.now_ns = ns_.now();
  ctx_.srh_dirty = false;
  ctx_.packet_replaced = false;
  ctx_.dst_set = false;
  ctx_.skb.mark = pkt.mark;
  ctx_.skb.ingress_ifindex = pkt.ingress_ifindex;
  ctx_.skb.tstamp_ns = pkt.rx_tstamp_ns;
  ctx_.refresh_packet_view();
}

Seg6BurstRunner::Verdict Seg6BurstRunner::harvest() {
  ctx_.pkt->mark = ctx_.skb.mark;  // writable ctx field propagates back
  return Verdict{ctx_.srh_dirty, ctx_.packet_replaced, ctx_.dst_set};
}

}  // namespace srv6bpf::seg6
