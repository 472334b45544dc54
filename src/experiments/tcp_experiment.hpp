// The paper's TCP experiment (§3): a KAR network carrying one bulk TCP
// flow across a scenario's route, with an optional link failure window,
// reported the way the paper does (iperf-style averages and a binned
// goodput timeline). Every paper-figure harness, the figure tests and the
// Fig. 5/7 grids (paper_figures.hpp) run this one implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/switch.hpp"
#include "obs/instrument.hpp"
#include "topology/builders.hpp"
#include "transport/tcp.hpp"

namespace kar::experiments {

/// Link parameters for the paper-reproduction experiments. The paper's
/// emulated TCP tops out near 200 Mb/s while AVP-style bounce-backs (which
/// re-traverse upstream links up to 3x) still fit — so the links themselves
/// must be faster than the flow: 1 Gb/s links with the flow window-limited
/// to ~200 Mb/s (era-default socket buffers) reproduces that regime.
inline topo::LinkParams paper_link_params() {
  return topo::LinkParams{.rate_bps = 1e9, .delay_s = 0.6e-3,
                          .queue_packets = 200, .red = std::nullopt};
}

/// ACK route for the 15-node experiments: the backup chain
/// SW29-SW31-SW19-SW11-SW10, disjoint from all three failure links the
/// paper studies, so the measured throughput isolates forward-path
/// deflection effects (the paper's §3.1 narration explains its results
/// purely via the forward data path).
inline topo::ScenarioRoute reverse_for_experimental15(
    const topo::ScenarioRoute& route) {
  topo::ScenarioRoute reverse;
  reverse.src_edge = route.dst_edge;
  reverse.dst_edge = route.src_edge;
  reverse.core_path = {"SW29", "SW31", "SW19", "SW11", "SW10"};
  return reverse;
}

/// ACK route for the RNP experiments: SW73-SW71-SW17-SW11-SW7, disjoint
/// from the three studied failure links (same reasoning as above).
inline topo::ScenarioRoute reverse_for_rnp28(const topo::ScenarioRoute& route) {
  topo::ScenarioRoute reverse;
  reverse.src_edge = route.dst_edge;
  reverse.dst_edge = route.src_edge;
  reverse.core_path = {"SW73", "SW71", "SW17", "SW11", "SW7"};
  return reverse;
}

/// One TCP experiment: a single bulk flow across `scenario`'s route with an
/// optional failure window.
struct TcpExperiment {
  topo::Scenario scenario;  // owned copy; mutated by failure injection
  topo::ScenarioRoute reverse_route;
  dataplane::DeflectionTechnique technique =
      dataplane::DeflectionTechnique::kNotInputPort;
  topo::ProtectionLevel level = topo::ProtectionLevel::kPartial;
  std::optional<std::pair<std::string, std::string>> failed_link;
  double t_fail = 30.0;
  double t_repair = 60.0;
  double t_end = 90.0;
  double bin_s = 1.0;
  std::uint64_t seed = 1;
  transport::TcpParams tcp = window_limited_defaults();

  // Observability sinks (src/obs/), all optional. With a registry the run
  // records the NetworkObserver + TCP metric families under `obs_labels`;
  // with a recorder it also records deflection/drop/link/TCP trace events
  // (tid = obs_tid) and, when cwnd_sample_interval_s > 0, periodic cwnd
  // counter samples. `event_profile`, when set, collects the per-event-kind
  // wall-time breakdown.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::Labels obs_labels;
  std::uint32_t obs_tid = 0;
  double cwnd_sample_interval_s = 0.0;
  sim::EventLoopProfile* event_profile = nullptr;

  /// The paper's emulation used era-default socket buffers and a
  /// mid-2010s kernel stack: the flow is window-limited (~187 KB = 128
  /// segments, ~200 Mb/s at the topologies' RTT) and reorder tolerance is
  /// moderate (SACK with a bounded reordering metric) — persistent
  /// deflection-induced reordering therefore costs ~25-30% of throughput
  /// (the paper's reported penalty) instead of collapsing the flow (plain
  /// Reno) or being absorbed entirely (unbounded adaptation).
  static transport::TcpParams window_limited_defaults() {
    transport::TcpParams params;
    params.receiver_window_segments = 128;
    params.max_reordering = 300;
    return params;
  }
};

/// Result of one experiment run.
struct TcpRunResult {
  std::vector<double> timeline_mbps;  ///< One entry per bin over [0, t_end).
  double before_mbps = 0;             ///< Mean goodput pre-failure.
  double during_mbps = 0;             ///< Mean goodput during the failure.
  double after_mbps = 0;              ///< Mean goodput post-repair.
  double overall_mbps = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t deflections = 0;
  std::uint64_t reencodes = 0;
  std::uint64_t drops = 0;
};

/// Runs `experiment` to `t_end`. Goodput windows: before = [1, t_fail),
/// during = [t_fail + bin_s, min(t_repair, t_end)), after =
/// [t_repair + bin_s, t_end), overall = [1, t_end).
[[nodiscard]] TcpRunResult run_tcp_experiment(TcpExperiment experiment);

/// One run of the paper's Fig.5/7 methodology: run `r` of an iperf-style
/// measurement of `seconds` with the failure active throughout (seed
/// `base.seed + r * 7919`), returning the run's mean goodput. Each call
/// copies `base` (fresh topology), so concurrent calls with distinct `r`
/// are safe — the property the parallel Fig. 5 grid relies on.
[[nodiscard]] double single_failure_run(const TcpExperiment& base,
                                        std::size_t r, double seconds);

/// Repeats the paper's Fig.5/7 methodology: `runs` independent iperf-style
/// measurements of `seconds` each with the failure active throughout,
/// returning the per-run mean goodputs.
[[nodiscard]] std::vector<double> repeated_failure_runs(
    const TcpExperiment& base, std::size_t runs, double seconds);

}  // namespace kar::experiments
