// The benchmark's workloads, built from the library's public API.
//
// A Lab is one fresh instance of a workload: its topology, routes, eBPF
// programs, traffic generators and the sinks that digest every delivered
// packet. An episode builds a Lab, starts its generators, runs the fixed
// simulated window plus a drain, and checks the conservation ledger. The
// amount of simulated work per episode is fixed, so the delivery digest is
// a pure function of (workload, seed) and can be pinned.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/packet.h"
#include "sim/network.h"

namespace perfbench {

namespace sim = srv6bpf::sim;
namespace net = srv6bpf::net;
namespace apps = srv6bpf::apps;

enum class WorkloadId { kFig2Bpf, kFibEcmpChurn, kRingPdes };

std::optional<WorkloadId> parse_workload(std::string_view name);
const char* workload_name(WorkloadId w);

// Order-sensitive hash of the packets one sink received: count, arrival
// time, generator sequence number and every byte of the packet.
struct Digest {
  std::uint64_t delivered = 0;
  std::uint64_t h = 0x6a09e667f3bcc908ull;
  void mix(std::uint64_t v);
  void packet(const net::Packet& pkt, sim::TimeNs now);
};

class ChurnDriver;

// Where the traced run probes the workload: the router whose layers are
// timed, the interface its traffic arrives on, and its egress link.
struct ProbePoint {
  sim::Node* router = nullptr;
  int in_ifindex = -1;
  sim::Link* out_link = nullptr;
  int out_side = 0;
  // Indices into Lab::gen_cfgs of the generators feeding the router.
  std::vector<std::size_t> input_gens;
};

struct Lab {
  Lab(WorkloadId id, std::uint64_t seed);
  ~Lab();
  Lab(const Lab&) = delete;
  Lab& operator=(const Lab&) = delete;

  WorkloadId id;
  std::uint64_t seed;
  sim::Network net;
  std::vector<sim::Node*> nodes;    // every node, for the ledger
  std::vector<sim::Node*> routers;  // the CPU-modelled routers
  std::vector<apps::TrafGen::Config> gen_cfgs;  // seeded, not yet started
  std::vector<sim::Node*> gen_nodes;            // where each generator runs
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  std::vector<std::unique_ptr<apps::AppMux>> muxes;
  std::vector<Digest> digests;  // one per sink, folded in sink order
  std::unique_ptr<ChurnDriver> churn;
  std::size_t threads = 1;      // PDES workers (ring_pdes only)
  sim::TimeNs window = 0;       // generators run in [0, window)
  sim::TimeNs drain = 0;        // quiet time after the window
  std::size_t live_routes = 0;  // routes installed on the probe router
  ProbePoint probe;

  // Starts the generators (and the churn stream): from here on the event
  // queue holds the workload's first simulated event.
  void start();
  // Advances the simulation to absolute time `t`; the ring runs on
  // `threads` PDES workers, everything else serially.
  void run_to(sim::TimeNs t);
  sim::TimeNs end_time() const noexcept { return window + drain; }
  std::uint64_t offered() const;
  std::uint64_t digest() const;
  std::uint64_t delivered() const;
  std::uint64_t events_executed();
  std::uint64_t pending();
  std::uint64_t churn_updates() const;
  // Final-drain conservation audit over every source, node and link;
  // returns the violations (empty when the ledger balances).
  std::vector<std::string> audit();
};

// Builds a fresh, not yet started instance. `threads` is only used by the
// ring (clamped to [1, domains]); `partition` = false leaves the ring
// unsealed on one serial loop, which is how the traced run's replica of the
// workload is driven call by call.
std::unique_ptr<Lab> build_lab(WorkloadId id, std::uint64_t seed,
                               std::size_t threads, bool partition = true);

// Every outer destination of the probed router's input stream. Listed on
// demand, so the traced run's bookkeeping stays out of the timed set-up.
std::vector<net::Ipv6Addr> probe_input_dsts(const Lab& lab);

// Sum of every CPU-modelled router's stats.
struct RouterTotals {
  std::uint64_t rx = 0;
  std::uint64_t tx = 0;
  std::uint64_t drops = 0;
  std::uint64_t drops_rx_queue = 0;
  std::uint64_t service_events = 0;
  std::uint64_t serviced_packets = 0;
  std::uint64_t bpf_runs = 0;
  std::uint64_t bpf_insns = 0;
  std::uint64_t helper_calls = 0;
  std::uint64_t fib_lookups = 0;
  std::uint64_t fib_cache_hits = 0;
};
RouterTotals router_totals(const Lab& lab);

}  // namespace perfbench
