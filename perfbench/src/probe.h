// The traced run's layer probe.
//
// Layers are timed from outside: between simulated slices of a live
// episode, the probe takes the next burst of the workload's own input
// stream and feeds it through the public entry points of each layer on a
// replica of the workload (same topology, routes, SIDs and programs, built
// from the same seed but never started), so the live simulation and its
// digest are untouched. Each call is recorded as a span (name, start, end,
// parent, unit id, items). A child span replays one sub-step of its parent
// on a fresh copy of the same input right after the parent call, so a
// span's self time is its duration minus its children's durations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "seg6/fib.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the log, -1 for a root
  std::uint32_t unit;   // probe (burst) id shared by one tree
  std::uint32_t items;  // packets, lookups or queue operations covered
};

class SpanLog {
 public:
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::uint32_t unit,
                   std::uint32_t items);
  // Self time per item of every span called `name`.
  std::vector<double> self_per_item(std::string_view name) const;
  // Whole-tree time per packet of each probe unit: the root spans' time
  // divided by the unit's packet count (the self times of a tree sum to it).
  std::vector<double> router_ns_per_packet() const;
  // Tab-separated: name, start, end, parent, unit, items.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

std::int64_t now_ns();

class Prober {
 public:
  // Builds the replica and captures `capture` packets of the workload's
  // input stream into the probed router; `burst` is the burst size replayed
  // per probe (the workload's measured burst occupancy).
  Prober(WorkloadId w, std::uint64_t seed, std::size_t burst,
         std::size_t capture);
  ~Prober();
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  // One probe, taken while `live` is paused between slices.
  void sample(Lab& live);

  const SpanLog& log() const noexcept { return log_; }
  const std::vector<double>& pending() const noexcept { return pending_; }

 private:
  net::Packet input(std::size_t i) const;
  // Feeds captured packets [first, first + burst) through every probed
  // layer; spans are logged only when `record` is set.
  void replay(std::size_t first, bool churn, bool record);
  void drain();

  std::unique_ptr<Lab> replica_;
  std::vector<net::Ipv6Addr> dsts_;  // probe_input_dsts of the replica
  std::vector<std::vector<std::uint8_t>> captured_;
  std::size_t burst_;
  std::size_t next_ = 0;
  std::uint32_t unit_ = 0;
  srv6bpf::seg6::FibCacheSlot slot_;  // persists like a context's slot
  srv6bpf::Rng rng_;
  SpanLog log_;
  std::vector<double> pending_;
};

}  // namespace perfbench
