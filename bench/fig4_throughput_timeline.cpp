// Reproduces paper Fig. 4: TCP throughput over time on the 15-node network
// with partial protection; link SW7-SW13 fails at t=30 s and is repaired at
// t=60 s; curves for no-deflection, HP, AVP and NIP.
//
// The paper's qualitative findings this must reproduce:
//   * no deflection -> traffic stops during the failure;
//   * HP/AVP/NIP keep traffic flowing (hitless liveness);
//   * NIP sustains the highest throughput of the deflecting techniques
//     (paper: ~150 of 200 Mb/s, a ~25% reordering penalty).
//
// Usage: fig4_throughput_timeline [--duration=90] [--fail=30] [--repair=60]
//                                 [--seed=1] [--csv]
//                                 [--metrics-out=PATH] [--trace-out=PATH]
//                                 [--profile]
//
// Observability (docs/observability.md): --metrics-out writes all four
// curves' metrics as Prometheus text (per-curve `technique` label);
// --trace-out writes a Chrome trace with one process per curve, including
// TCP fast-retransmit/RTO instants and 1 Hz cwnd counter samples;
// --profile prints the per-event-kind wall-time breakdown.
#include <iostream>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "experiments/tcp_experiment.hpp"
#include "obs/export.hpp"

namespace {

using kar::experiments::TcpExperiment;
using kar::experiments::TcpRunResult;
using kar::common::TextTable;
using kar::dataplane::DeflectionTechnique;

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const double duration = flags.get_double("duration", 90.0);
  const double t_fail = flags.get_double("fail", duration / 3.0);
  const double t_repair = flags.get_double("repair", 2.0 * duration / 3.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  const std::string metrics_path = flags.get_string("metrics-out", "");
  const std::string trace_path = flags.get_string("trace-out", "");
  const bool profile = flags.get_bool("profile", false);
  if (kar::common::report_unread(flags, "fig4_throughput_timeline")) return 2;

  std::cout << "=== Paper Fig. 4: TCP throughput timeline, failed link "
               "SW7-SW13 (15-node network, partial protection) ===\n"
            << "failure window [" << t_fail << ", " << t_repair << ") of a "
            << duration
            << " s run; 1 Gb/s links, flow window-limited to ~200 Mb/s "
               "(the paper's nominal)\n\n";

  const struct {
    const char* name;
    DeflectionTechnique technique;
  } kCurves[] = {
      {"no-deflection", DeflectionTechnique::kNone},
      {"hp", DeflectionTechnique::kHotPotato},
      {"avp", DeflectionTechnique::kAnyValidPort},
      {"nip", DeflectionTechnique::kNotInputPort},
  };

  kar::obs::MetricsRegistry registry(!metrics_path.empty());
  std::vector<kar::obs::ChromeTraceProcess> processes;
  kar::sim::EventLoopProfile event_profile;

  std::vector<TcpRunResult> results;
  for (std::size_t i = 0; i < std::size(kCurves); ++i) {
    const auto& curve = kCurves[i];
    kar::obs::TraceRecorder recorder(1 << 16);
    TcpExperiment experiment;
    experiment.scenario = kar::topo::make_experimental15(kar::experiments::paper_link_params());
    experiment.reverse_route =
        kar::experiments::reverse_for_experimental15(experiment.scenario.route);
    experiment.technique = curve.technique;
    experiment.level = kar::topo::ProtectionLevel::kPartial;
    experiment.failed_link = {{"SW7", "SW13"}};
    experiment.t_fail = t_fail;
    experiment.t_repair = t_repair;
    experiment.t_end = duration;
    experiment.seed = seed;
    if (!metrics_path.empty()) experiment.metrics = &registry;
    if (!trace_path.empty()) {
      experiment.trace = &recorder;
      experiment.cwnd_sample_interval_s = 1.0;
    }
    experiment.obs_labels = {{"technique", curve.name}};
    experiment.obs_tid = static_cast<std::uint32_t>(i);
    if (profile) experiment.event_profile = &event_profile;
    results.push_back(kar::experiments::run_tcp_experiment(std::move(experiment)));
    if (!trace_path.empty()) {
      processes.push_back({curve.name, recorder.snapshot()});
    }
  }

  if (!metrics_path.empty()) {
    kar::obs::write_prometheus_file(metrics_path, registry.snapshot());
  }
  if (!trace_path.empty()) {
    kar::obs::write_chrome_trace_file(trace_path, processes);
  }
  if (profile) {
    std::cout << "--- event loop profile (all curves) ---\n";
    for (std::size_t i = 0; i < kar::sim::kEventKindCount; ++i) {
      const auto& kind = event_profile.kinds[i];
      if (kind.count == 0) continue;
      std::cout << "  " << to_string(static_cast<kar::sim::EventKind>(i))
                << ": " << kind.count << " events, "
                << kar::common::fmt_double(1e3 * kind.wall_s, 2) << " ms\n";
    }
    std::cout << '\n';
  }

  if (csv) {
    std::cout << "t_s";
    for (const auto& curve : kCurves) std::cout << "," << curve.name << "_mbps";
    std::cout << "\n";
    const std::size_t bins = results[0].timeline_mbps.size();
    for (std::size_t b = 0; b < bins; ++b) {
      std::cout << b;
      for (const auto& r : results) {
        std::cout << "," << kar::common::fmt_double(r.timeline_mbps[b], 2);
      }
      std::cout << "\n";
    }
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::cout << kar::common::pad_right(kCurves[i].name, 14) << "|"
                << kar::bench::sparkline(results[i].timeline_mbps, 200.0)
                << "|\n";
    }
    std::cout << "               (each column = 1 s; height ~ Mb/s of 200)\n\n";
  }

  TextTable table({"technique", "before (Mb/s)", "during failure (Mb/s)",
                   "after repair (Mb/s)", "during/before", "ooo segs",
                   "fast rexmits", "rto"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TcpRunResult& r = results[i];
    table.add_row({kCurves[i].name, kar::common::fmt_double(r.before_mbps, 1),
                   kar::common::fmt_double(r.during_mbps, 1),
                   kar::common::fmt_double(r.after_mbps, 1),
                   kar::common::fmt_double(
                       r.before_mbps > 0 ? r.during_mbps / r.before_mbps : 0, 2),
                   std::to_string(r.out_of_order),
                   std::to_string(r.fast_retransmits),
                   std::to_string(r.timeouts)});
  }
  std::cout << table.render()
            << "\nPaper reference: NIP keeps ~150/200 Mb/s during the failure "
               "(~25% reordering penalty); no-deflection stops entirely.\n";
  return 0;
}
