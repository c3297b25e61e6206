// An eBPF program: instructions + attachment type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

// Attachment points. LWT_IN/OUT run at the network-layer input/output of a
// route; LWT_XMIT just before transmission (and is the hook that may call
// bpf_lwt_push_encap with full freedom); LWT_SEG6LOCAL is the paper's
// End.BPF program type, which may call the three seg6 helpers.
// SOCKET_FILTER is the classic SO_ATTACH_FILTER attachment: programs run
// over packets delivered to an application socket and return the number of
// bytes to accept (0 = drop) — the target type of the cBPF translator.
enum class ProgType {
  kLwtIn,
  kLwtOut,
  kLwtXmit,
  kLwtSeg6Local,
  kSocketFilter,
};

const char* prog_type_name(ProgType t) noexcept;

class Program {
 public:
  Program(std::string name, ProgType type, std::vector<Insn> insns)
      : name_(std::move(name)), type_(type), insns_(std::move(insns)) {}

  const std::string& name() const noexcept { return name_; }
  ProgType type() const noexcept { return type_; }
  const std::vector<Insn>& insns() const noexcept { return insns_; }
  std::size_t size() const noexcept { return insns_.size(); }

  // Source-lines-of-code equivalent, reported by the benches to compare with
  // the paper's SLOC figures (the paper counts C source lines; we report the
  // instruction-slot count of the hand-assembled equivalent).
  std::size_t sloc_hint() const noexcept { return sloc_hint_; }
  void set_sloc_hint(std::size_t n) noexcept { sloc_hint_ = n; }

 private:
  std::string name_;
  ProgType type_;
  std::vector<Insn> insns_;
  std::size_t sloc_hint_ = 0;
};

}  // namespace srv6bpf::ebpf
