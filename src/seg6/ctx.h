// Netns: one instance of the "kernel network stack" state — routing tables,
// the seg6local SID table, local addresses and the BPF subsystem — plus the
// per-invocation context handed to SRv6 eBPF programs.
//
// The simulator's Node (sim/node.h) owns a Netns and drives the forwarding
// pipeline; everything in this module is pure protocol logic with no notion
// of links or simulated time (time is injected via the clock callback).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "ebpf/exec.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "seg6/fib.h"

namespace srv6bpf::seg6 {

class Netns;
class Seg6LocalTable;

// What the forwarding pipeline should do next with a packet.
enum class Disposition {
  kContinue,   // dst (possibly rewritten) needs a FIB lookup in `table`
  kUseRoute,   // proceed with the already-selected route's nexthop
  kForward,    // pkt.dst() metadata is set; ship it
  kLocal,      // deliver to the local host
  kDrop,
};

struct PipelineResult {
  Disposition disposition = Disposition::kDrop;
  int table = 0;  // for kContinue
  static PipelineResult drop() { return {Disposition::kDrop, 0}; }
  static PipelineResult cont(int table = 0) {
    return {Disposition::kContinue, table};
  }
  static PipelineResult forward() { return {Disposition::kForward, 0}; }
  static PipelineResult use_route() { return {Disposition::kUseRoute, 0}; }
};

// Everything the cost model (sim/costmodel.h) needs to charge a packet for
// the processing it received on a node.
struct ProcessTrace {
  int fib_lookups = 0;
  int seg6local_ops = 0;       // static seg6local behaviour executions
  int bpf_runs = 0;
  std::uint64_t bpf_insns_jit = 0;     // insns executed on the JIT engine
  std::uint64_t bpf_insns_interp = 0;  // insns executed on the interpreter
  std::uint64_t helper_calls = 0;
  int encaps = 0;
  int decaps = 0;
  bool dropped = false;

  void reset() { *this = ProcessTrace{}; }
};

// Per-invocation state shared between a running eBPF program and the SRv6
// helper implementations (reached through ExecEnv::user).
struct Seg6ProgCtx {
  class Netns* netns = nullptr;
  net::Packet* pkt = nullptr;
  ebpf::SkbCtx skb;              // the ctx struct the program sees
  ebpf::ExecEnv* env = nullptr;  // to refresh packet regions after resizes
  ebpf::ProgType prog_type = ebpf::ProgType::kLwtSeg6Local;
  ProcessTrace* trace = nullptr;
  std::uint64_t now_ns = 0;

  bool srh_dirty = false;        // SRH bytes/size modified -> revalidate
  bool packet_replaced = false;  // encap/decap/resize happened
  bool dst_set = false;          // lwt_seg6_action resolved a destination

  // Refresh skb.data/data_end/len and the packet memory region after any
  // operation that may have moved or resized the packet buffer.
  void refresh_packet_view();
};

// Builds the SkbCtx + ExecEnv (clock and prandom closures, memory-region
// list) that an SRv6 program runs against, and retargets them at a packet.
// Netns::run_prog makes one per invocation; a caller that replays several
// packets through one program (perfbench's probe) may reuse one.
//
// Protocol per packet: prepare() -> run the program with env() and
// ctx_addr() -> harvest(). harvest() must run before the next prepare(): it
// writes the writable ctx fields (skb->mark) back to the current packet and
// returns the per-packet helper flags.
class Seg6BurstRunner {
 public:
  Seg6BurstRunner(Netns& ns, const ebpf::LoadedProgram& prog);
  Seg6BurstRunner(const Seg6BurstRunner&) = delete;
  Seg6BurstRunner& operator=(const Seg6BurstRunner&) = delete;

  struct Verdict {
    bool srh_dirty = false;
    bool packet_replaced = false;
    bool dst_set = false;
  };

  // Points the ctx/env at `pkt` and resets the per-packet flags.
  void prepare(net::Packet& pkt, ProcessTrace* trace);
  // Propagates writable ctx fields back into the prepared packet and reads
  // out the per-packet flags.
  Verdict harvest();

  ebpf::ExecEnv& env() noexcept { return env_; }
  std::uint64_t ctx_addr() const noexcept {
    return reinterpret_cast<std::uint64_t>(&ctx_.skb);
  }

 private:
  Netns& ns_;
  Seg6ProgCtx ctx_;
  ebpf::ExecEnv env_;
};

class Netns {
 public:
  explicit Netns(std::string name = "netns");
  ~Netns();  // out of line: Seg6LocalTable is forward-declared here

  const std::string& name() const noexcept { return name_; }
  ebpf::BpfSystem& bpf() noexcept { return bpf_; }
  const ebpf::BpfSystem& bpf() const noexcept { return bpf_; }

  // Routing table by id (created on demand). Table 0 is "main".
  Fib& table(int id = 0);
  const Fib* find_table(int id) const;
  // Every table (id -> Fib), ordered by id: crash teardown wipes them all,
  // and the control-plane re-installer snapshots route config across them.
  std::map<int, Fib>& tables() noexcept { return tables_; }
  const std::map<int, Fib>& tables() const noexcept { return tables_; }
  Seg6LocalTable& seg6local() noexcept { return *seg6local_; }

  // Local addresses: the per-packet "is this for me" check of every
  // classify and continue round, so a flat hash set (net::Ipv6AddrSet).
  void add_local_addr(const net::Ipv6Addr& a) { local_addrs_.insert(a); }
  bool is_local(const net::Ipv6Addr& a) const noexcept {
    return local_addrs_.contains(a);
  }

  // Source address used for SRH encapsulation (ip sr tunsrc analogue).
  net::Ipv6Addr sr_tunsrc;

  // Simulated clock; defaults to 0 when unset.
  std::function<std::uint64_t()> clock;
  std::uint64_t now() const { return clock ? clock() : 0; }

  // CPU context currently executing this netns's datapath. The multi-core
  // Node sets it around each service event (and restores it after); program
  // runners snapshot it into ExecEnv::cpu_id, which is what
  // bpf_get_smp_processor_id and the PERCPU_* map helpers read.
  std::uint32_t current_cpu = 0;

  // The executing context's one-entry FIB route-cache slot. Every hot-path
  // route lookup against this netns — the datapath's FIB lookup, the
  // bpf_lwt_seg6_action behaviours, End.X nexthop resolution — goes through
  // the servicing context's slot, so contexts never share cache state
  // (FibCacheSlot's rationale in seg6/fib.h).
  FibCacheSlot& fib_cache_slot() noexcept { return fib_slots_[current_cpu]; }

  // Deterministic per-netns randomness for bpf_get_prandom_u32.
  std::uint32_t prandom();
  void seed_prandom(std::uint64_t seed);

  struct BpfRunResult {
    ebpf::ExecResult exec;
    Seg6BurstRunner::Verdict verdict;  // the helpers' per-packet flags
  };
  // Executes `prog` against `pkt` on this netns's engines (JIT or
  // interpreter per the netns setting) through a Seg6BurstRunner, charging
  // the run and its executed instructions to `trace`.
  BpfRunResult run_prog(const ebpf::LoadedProgram& prog, net::Packet& pkt,
                        ProcessTrace* trace);

 private:
  std::string name_;
  ebpf::BpfSystem bpf_;
  std::map<int, Fib> tables_;
  std::unique_ptr<Seg6LocalTable> seg6local_;
  net::Ipv6AddrSet local_addrs_;
  std::uint64_t prandom_state_ = 0x853c49e6748fea9bull;
  // One slot per possible CPU context (current_cpu is clamped below
  // ebpf::kMaxCpus by the Node's context setup).
  std::array<FibCacheSlot, ebpf::kMaxCpus> fib_slots_;
};

}  // namespace srv6bpf::seg6
