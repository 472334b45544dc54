// Shared harness for the paper-reproduction benches: configures a KAR
// network + bulk TCP flow, injects a link failure, and reports goodput the
// way the paper does (iperf-style averages and 1-second timelines). Also
// the machine provenance every committed BENCH record carries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataplane/switch.hpp"
#include "obs/instrument.hpp"
#include "routing/controller.hpp"
#include "runner/jsonl.hpp"
#include "sim/network.hpp"
#include "stats/summary.hpp"
#include "topology/builders.hpp"
#include "transport/flows.hpp"

// The bench targets define KAR_BUILD_TYPE from CMAKE_BUILD_TYPE.
#ifndef KAR_BUILD_TYPE
#ifdef NDEBUG
#define KAR_BUILD_TYPE "unknown (NDEBUG)"
#else
#define KAR_BUILD_TYPE "unknown (assertions on)"
#endif
#endif

namespace kar::bench {

/// `git describe --always --dirty` of the working directory's checkout,
/// or "unknown" outside a git checkout.
inline std::string git_describe() {
  std::string out;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Where a BENCH record was measured: hardware threads, build type,
/// compiler and source revision, as one JSON object. Every committed
/// record carries it under "provenance", so numbers from different
/// machines are never compared blind.
inline std::string provenance_json() {
#if defined(__clang__)
  const std::string compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "GNU " + std::to_string(__GNUC__) + '.' +
                               std::to_string(__GNUC_MINOR__) + '.' +
                               std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string compiler = "unknown";
#endif
  runner::JsonObject o;
  o.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("build_type", KAR_BUILD_TYPE)
      .field("compiler", compiler)
      .field("git", git_describe());
  return o.str();
}

/// Link parameters for the paper-reproduction experiments. The paper's
/// emulated TCP tops out near 200 Mb/s while AVP-style bounce-backs (which
/// re-traverse upstream links up to 3x) still fit — so the links themselves
/// must be faster than the flow: 1 Gb/s links with the flow window-limited
/// to ~200 Mb/s (era-default socket buffers) reproduces that regime.
inline topo::LinkParams paper_link_params() {
  return topo::LinkParams{.rate_bps = 1e9, .delay_s = 0.6e-3,
                          .queue_packets = 200};
}

/// Mirrored reverse route (dst -> src) for ACK traffic: reversed core path
/// plus a caller-supplied protection tree rooted at the source side.
inline topo::ScenarioRoute reverse_of(
    const topo::ScenarioRoute& route,
    std::vector<topo::ProtectionAssignment> reverse_partial = {},
    std::vector<topo::ProtectionAssignment> reverse_full_extra = {}) {
  topo::ScenarioRoute reverse;
  reverse.src_edge = route.dst_edge;
  reverse.dst_edge = route.src_edge;
  reverse.core_path.assign(route.core_path.rbegin(), route.core_path.rend());
  reverse.partial_protection = std::move(reverse_partial);
  reverse.full_extra_protection = std::move(reverse_full_extra);
  return reverse;
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

inline TcpRunResult run_tcp_experiment(TcpExperiment experiment) {
  routing::Controller controller(experiment.scenario.topology);
  sim::NetworkConfig config;
  config.technique = experiment.technique;
  config.seed = experiment.seed;
  sim::Network net(experiment.scenario.topology, controller, config);

  std::optional<obs::NetworkObserver> observer;
  if (experiment.metrics != nullptr || experiment.trace != nullptr) {
    obs::NetworkObserverOptions observer_options;
    observer_options.metrics = experiment.metrics;
    observer_options.trace = experiment.trace;
    observer_options.labels = experiment.obs_labels;
    observer_options.tid = experiment.obs_tid;
    observer.emplace(net, observer_options);
    observer->install();
  }
  if (experiment.event_profile != nullptr) {
    net.events().set_profile(experiment.event_profile);
  }

  transport::FlowDispatcher dispatcher(net);
  const auto forward =
      controller.encode_scenario(experiment.scenario.route, experiment.level);
  const auto reverse =
      controller.encode_scenario(experiment.reverse_route, experiment.level);
  transport::BulkTransferFlow flow(net, dispatcher, forward, reverse,
                                   /*flow_id=*/1, experiment.tcp,
                                   experiment.bin_s);
  if (experiment.metrics != nullptr || experiment.trace != nullptr) {
    transport::TcpObservability sinks;
    sinks.metrics = experiment.metrics;
    sinks.trace = experiment.trace;
    sinks.labels = experiment.obs_labels;
    flow.sender().set_observability(sinks);
  }
  if (experiment.trace != nullptr && experiment.cwnd_sample_interval_s > 0.0) {
    // Periodic cwnd counter samples: read-only observers of the sender, so
    // they cannot perturb the simulation.
    obs::TraceRecorder* trace = experiment.trace;
    const std::uint32_t tid = experiment.obs_tid;
    for (double t = experiment.cwnd_sample_interval_s; t < experiment.t_end;
         t += experiment.cwnd_sample_interval_s) {
      net.events().schedule_at(t, [&net, &flow, trace, tid] {
        const auto fmt = [](double v) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", v);
          return std::string(buf);
        };
        obs::TraceRecord record;
        record.cat = obs::TraceCategory::kTcp;
        record.name = "tcp cwnd flow 1";
        record.ts_s = net.now();
        record.counter = true;
        record.tid = tid;
        record.id = 1;
        record.args = {{"cwnd", fmt(flow.sender().cwnd_segments())},
                       {"ssthresh", fmt(flow.sender().ssthresh_segments())}};
        trace->record(record);
      });
    }
  }
  flow.start_at(0.0);
  if (experiment.failed_link) {
    net.fail_link_at(experiment.t_fail, experiment.failed_link->first,
                     experiment.failed_link->second);
    net.repair_link_at(experiment.t_repair, experiment.failed_link->first,
                       experiment.failed_link->second);
  }
  flow.stop_at(experiment.t_end);
  net.events().run_until(experiment.t_end);

  TcpRunResult result;
  const auto& series = flow.receiver().goodput();
  const auto bins = static_cast<std::size_t>(experiment.t_end / experiment.bin_s);
  result.timeline_mbps.reserve(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    result.timeline_mbps.push_back(series.bin_mbps(b));
  }
  result.before_mbps = series.mbps_between(1.0, experiment.t_fail);
  result.during_mbps =
      series.mbps_between(experiment.t_fail + experiment.bin_s, experiment.t_repair);
  result.after_mbps =
      series.mbps_between(experiment.t_repair + experiment.bin_s, experiment.t_end);
  result.overall_mbps = series.mbps_between(1.0, experiment.t_end);
  result.out_of_order = flow.receiver().stats().out_of_order_segments;
  result.fast_retransmits = flow.sender().stats().fast_retransmits;
  result.timeouts = flow.sender().stats().timeouts;
  result.deflections = net.counters().deflections;
  result.reencodes = net.counters().reencodes;
  result.drops = net.counters().total_drops();
  return result;
}

/// One run of the paper's Fig.5/7 methodology: run `r` of an iperf-style
/// measurement of `seconds` with the failure active throughout, returning
/// the run's mean goodput. Each call copies `base` (fresh topology), so
/// concurrent calls with distinct `r` are safe — the property the parallel
/// benches (fig5 --jobs) rely on.
inline double single_failure_run(const TcpExperiment& base, std::size_t r,
                                 double seconds) {
  TcpExperiment experiment = base;  // fresh topology per run
  experiment.seed = base.seed + r * 7919;
  experiment.t_fail = 0.0;              // failure active from the start
  experiment.t_repair = seconds + 1.0;  // never repaired during the run
  experiment.t_end = seconds;
  const TcpRunResult result = run_tcp_experiment(std::move(experiment));
  // iperf reports the whole-run average; skip the first second of slow
  // start like the paper's 5-second steady-state runs effectively do.
  return result.overall_mbps;
}

/// Repeats the paper's Fig.5/7 methodology: `runs` independent iperf-style
/// measurements of `seconds` each with the failure active throughout,
/// returning the per-run mean goodputs.
inline std::vector<double> repeated_failure_runs(
    const TcpExperiment& base, std::size_t runs, double seconds) {
  std::vector<double> samples;
  samples.reserve(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    samples.push_back(single_failure_run(base, r, seconds));
  }
  return samples;
}

/// Renders a one-line ASCII sparkline for a timeline (for terminal output).
inline std::string sparkline(const std::vector<double>& values, double max_value) {
  static constexpr const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (const double v : values) {
    const double frac = max_value > 0 ? std::min(v / max_value, 1.0) : 0.0;
    out += kLevels[static_cast<int>(frac * 7.0 + 0.5)];
  }
  return out;
}

}  // namespace kar::bench
