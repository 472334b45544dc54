// Heavy-traffic workload engine: turns (topology x arrival process x flow
// sizes) into a running sim::Network scenario with thousands of concurrent
// TCP flows.
//
// The paper's evaluation drives one iperf flow at a time; the questions
// that matter at Internet scale — does KAR's per-packet deflection still
// hold up when the bottleneck is congested by *other* traffic, does RED
// early-dropping interact badly with the reorder-tolerant stack — need a
// workload. This engine compiles a deterministic flow plan (seeded Poisson
// or uniform arrivals, fixed or bounded-Pareto sizes) against a generated
// scenario:
//
//   * bottleneck mode (scenario designates a bottleneck link, e.g.
//     topogen's Internet2 Chicago-Indianapolis trunk): host edges fan onto
//     the two bottleneck routers and every flow crosses the constrained
//     link — the classic many-flows-one-queue congestion experiment;
//   * mesh mode (no designated bottleneck): host edges attach to a seeded
//     sample of switches and flows pick random host pairs, routed along
//     BFS shortest core paths.
//
// Everything is seeded through common::Rng: the same spec compiles to the
// same plan and the same simulation, bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "topology/scenario.hpp"
#include "transport/tcp.hpp"

namespace kar::traffic {

/// Flow inter-arrival law.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< Exponential inter-arrivals at `arrival_rate_per_s`.
  kUniform,  ///< Evenly spaced over [0, flows / arrival_rate_per_s).
};

/// Flow-size law (in MSS-sized segments).
enum class SizeDistribution : std::uint8_t {
  kFixed,          ///< Every flow offers `fixed_segments` (0 = unbounded).
  kBoundedPareto,  ///< Heavy-tailed mice-and-elephants mix.
};

struct WorkloadSpec {
  std::size_t flows = 100;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  double arrival_rate_per_s = 100.0;  ///< Mean flow arrival rate.
  SizeDistribution sizes = SizeDistribution::kBoundedPareto;
  double pareto_alpha = 1.2;          ///< Tail index (heavier when smaller).
  std::uint64_t min_segments = 8;     ///< Bounded-Pareto lower cutoff.
  std::uint64_t max_segments = 4096;  ///< Bounded-Pareto upper cutoff.
  std::uint64_t fixed_segments = 128;
  std::uint64_t seed = 1;
  /// Host edges fanned onto each bottleneck router (bottleneck mode) or
  /// attached across sampled switches (mesh mode).
  std::size_t host_fan = 8;
  /// Simulation cut-off: flows still incomplete at this time are stopped.
  double horizon_s = 60.0;
  /// Base TCP knobs; limit_segments is set per flow from the size law.
  /// RTO jitter defaults on here (unlike bare TcpParams): a workload's
  /// point is many simultaneous flows, and without timer noise their retry
  /// storms phase-lock and the bottleneck never drains.
  transport::TcpParams tcp = default_tcp();
  double goodput_bin_s = 1.0;

  [[nodiscard]] static transport::TcpParams default_tcp() {
    transport::TcpParams params;
    params.rto_jitter = 0.5;
    return params;
  }
};

/// One planned flow (before simulation).
struct FlowPlan {
  double start_s = 0.0;
  std::uint64_t size_segments = 0;  ///< 0 = unbounded, runs to horizon.
  std::string src_edge;
  std::string dst_edge;
  std::vector<std::string> core_path;
};

/// Post-simulation summary.
struct WorkloadResult {
  std::size_t flows = 0;
  std::size_t completed = 0;  ///< Finite flows fully ACKed by the horizon.
  std::size_t peak_concurrent = 0;  ///< Max simultaneously active flows.
  std::uint64_t segments_delivered = 0;
  std::uint64_t retransmits = 0;
  /// Retransmissions per data segment put on the wire.
  double retransmit_share = 0.0;
  /// Flow completion time (start to the final cumulative ACK) over the
  /// completed flows; 0 when none completed.
  double fct_p50_s = 0.0;
  double fct_p99_s = 0.0;
  /// Per-flow goodput over the flow's own lifetime (payload delivered in
  /// order / FCT), over the completed flows; 0 when none completed.
  double goodput_p50_mbps = 0.0;
  double goodput_p99_mbps = 0.0;
  double sim_end_s = 0.0;
  sim::NetworkCounters counters;  ///< Includes drop_aqm_early under RED.
};

/// Exponential inter-arrival sample (inverse transform; deterministic for
/// a given Rng state). Exposed for tests.
[[nodiscard]] double exponential_interarrival(common::Rng& rng,
                                              double rate_per_s);

/// Bounded-Pareto sample on [min_value, max_value] with tail index alpha
/// (inverse transform). Exposed for tests.
[[nodiscard]] std::uint64_t bounded_pareto(common::Rng& rng, double alpha,
                                           std::uint64_t min_value,
                                           std::uint64_t max_value);

/// A compiled workload: host edges attached, every flow's start time,
/// size and route fixed. Construction mutates a copy of the scenario
/// (attaching host edges); run() simulates it.
class Workload {
 public:
  /// Compiles `spec` against `scenario`. Throws std::invalid_argument on
  /// an empty spec or a scenario whose designated bottleneck nodes do not
  /// exist.
  Workload(topo::Scenario scenario, WorkloadSpec spec);

  [[nodiscard]] const topo::Scenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<FlowPlan>& plan() const noexcept {
    return plan_;
  }

  /// Simulates the compiled plan on a fresh network and returns the
  /// summary. Deterministic for a given (scenario, spec, config).
  [[nodiscard]] WorkloadResult run(sim::NetworkConfig config = {}) const;

 private:
  void compile_bottleneck();
  void compile_mesh();

  topo::Scenario scenario_;
  WorkloadSpec spec_;
  std::vector<FlowPlan> plan_;
};

}  // namespace kar::traffic
