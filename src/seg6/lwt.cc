#include "seg6/lwt.h"

#include "seg6/seg6local.h"

namespace srv6bpf::seg6 {

PipelineResult lwt_process(Netns& ns, net::Packet& pkt, const LwtState& lwt,
                           LwtHook hook, ProcessTrace* trace) {
  switch (lwt.kind) {
    case LwtState::Kind::kNone:
      return PipelineResult::use_route();

    case LwtState::Kind::kSeg6Encap: {
      // Only encapsulate once, at the xmit stage.
      if (hook != LwtHook::kXmit) return PipelineResult::use_route();
      const net::Ipv6Addr src = ns.sr_tunsrc.is_unspecified()
                                    ? pkt.ipv6().src()
                                    : ns.sr_tunsrc;
      if (!seg6_do_encap(pkt, lwt.segments, src)) return PipelineResult::drop();
      if (trace != nullptr) ++trace->encaps;
      return PipelineResult::cont(0);
    }

    case LwtState::Kind::kSeg6Inline: {
      if (hook != LwtHook::kXmit) return PipelineResult::use_route();
      if (!seg6_do_inline(pkt, lwt.segments)) return PipelineResult::drop();
      if (trace != nullptr) ++trace->encaps;
      return PipelineResult::cont(0);
    }

    case LwtState::Kind::kBpf: {
      const ebpf::ProgHandle& prog = hook == LwtHook::kIn    ? lwt.prog_in
                                     : hook == LwtHook::kOut ? lwt.prog_out
                                                             : lwt.prog_xmit;
      if (prog == nullptr) return PipelineResult::use_route();

      const auto run = ns.run_prog(*prog, pkt, trace);
      if (!run.exec.ok()) return PipelineResult::drop();
      switch (run.exec.ret) {
        case ebpf::BPF_OK:
          // If the program pushed an encapsulation the packet's destination
          // changed; route it afresh (the kernel's BPF_LWT_REROUTE path).
          return run.verdict.packet_replaced ? PipelineResult::cont(0)
                                             : PipelineResult::use_route();
        case ebpf::BPF_REDIRECT:
          if (!pkt.dst().valid) return PipelineResult::drop();
          return PipelineResult::forward();
        case ebpf::BPF_DROP:
        default:
          return PipelineResult::drop();
      }
    }
  }
  return PipelineResult::drop();
}

}  // namespace srv6bpf::seg6
