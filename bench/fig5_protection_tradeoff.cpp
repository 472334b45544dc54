// Reproduces paper Fig. 5: mean TCP throughput with 95% confidence
// intervals on the 15-node network, sweeping failure location
// {SW10-SW7, SW7-SW13, SW13-SW29} x protection {unprotected, partial, full}
// x deflection {AVP, NIP}. The paper runs iperf 30 times for 5 s per
// configuration; both knobs are flags here.
//
// Qualitative shape to reproduce (paper §3.1):
//   * full protection gives the highest throughput at every failure
//     location, for both techniques (~140 of 200 Mb/s, ~30% penalty);
//   * partial ~= full for SW7-SW13 and SW13-SW29 failures;
//   * partial loses ~2/3 of the deflected traffic for SW10-SW7 (paper:
//     ~80 vs ~140 Mb/s).
//
// The 18 cells x `runs` TCP simulations execute as independent units on
// the parallel runner (src/runner/): per-run seeds keep the historical
// base.seed + r*7919 derivation and samples are folded in index order, so
// the table is byte-identical for every --jobs count (--jobs=1 serial).
//
// Usage: fig5_protection_tradeoff [--runs=10] [--seconds=5] [--seed=1]
//                                 [--csv] [--jobs=N] [--progress]
//                                 [--metrics-out=PATH]
//
// --metrics-out collects a per-run metrics snapshot (labelled with the
// cell's failure/protection/technique) and writes the fold of all runs —
// in unit-index order, so the file is byte-identical for every --jobs
// count — as Prometheus text (docs/observability.md).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "obs/export.hpp"
#include "runner/runner.hpp"
#include "stats/summary.hpp"

namespace {

using kar::bench::TcpExperiment;
using kar::common::TextTable;
using kar::dataplane::DeflectionTechnique;
using kar::topo::ProtectionLevel;

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 10));
  const double seconds = flags.get_double("seconds", 5.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  const std::string metrics_path = flags.get_string("metrics-out", "");
  const bool collect_metrics = !metrics_path.empty();
  kar::runner::RunnerConfig runner_config;
  runner_config.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  runner_config.progress = flags.get_bool("progress", false);
  runner_config.progress_label = "fig5";
  if (kar::common::report_unread(flags, "fig5_protection_tradeoff")) return 2;

  std::cout << "=== Paper Fig. 5: protection level vs deflection technique "
               "(15-node network) ===\n"
            << runs << " runs x " << seconds
            << " s per configuration (paper: 30 x 5 s), 95% CI\n\n";

  const std::pair<const char*, const char*> kFailures[] = {
      {"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}};
  const std::pair<const char*, ProtectionLevel> kLevels[] = {
      {"unprotected", ProtectionLevel::kUnprotected},
      {"partial", ProtectionLevel::kPartial},
      {"full", ProtectionLevel::kFull}};
  const std::pair<const char*, DeflectionTechnique> kTechniques[] = {
      {"avp", DeflectionTechnique::kAnyValidPort},
      {"nip", DeflectionTechnique::kNotInputPort}};

  // Cell enumeration order is the historical loop nest:
  // failure (outer) x level x technique (inner).
  struct Cell {
    const char* fail_a;
    const char* fail_b;
    const char* level_name;
    ProtectionLevel level;
    const char* tech_name;
    DeflectionTechnique technique;
  };
  std::vector<Cell> cells;
  for (const auto& [fail_a, fail_b] : kFailures) {
    for (const auto& [level_name, level] : kLevels) {
      for (const auto& [tech_name, technique] : kTechniques) {
        cells.push_back({fail_a, fail_b, level_name, level, tech_name,
                         technique});
      }
    }
  }

  std::vector<std::vector<double>> samples(cells.size());
  for (auto& cell_samples : samples) cell_samples.reserve(runs);

  /// Per-unit payload: the goodput sample plus (optionally) the run's
  /// metrics snapshot, folded on the consume side in index order.
  struct UnitSample {
    double mbps = 0.0;
    kar::obs::MetricsSnapshot metrics;
  };
  kar::obs::MetricsSnapshot merged_metrics;

  kar::runner::run_indexed<UnitSample>(
      cells.size() * runs, runner_config,
      [&](std::size_t index, const kar::runner::CancelToken&) {
        const Cell& cell = cells[index / runs];
        const std::size_t r = index % runs;
        kar::obs::MetricsRegistry registry(collect_metrics);
        TcpExperiment base;
        base.scenario =
            kar::topo::make_experimental15(kar::bench::paper_link_params());
        base.reverse_route =
            kar::bench::reverse_for_experimental15(base.scenario.route);
        base.technique = cell.technique;
        base.level = cell.level;
        base.failed_link = {{cell.fail_a, cell.fail_b}};
        base.seed = seed;
        if (collect_metrics) {
          base.metrics = &registry;
          base.obs_labels = {
              {"failure", std::string(cell.fail_a) + "-" + cell.fail_b},
              {"protection", cell.level_name},
              {"technique", cell.tech_name}};
        }
        UnitSample sample;
        sample.mbps = kar::bench::single_failure_run(base, r, seconds);
        if (collect_metrics) sample.metrics = registry.snapshot();
        return sample;
      },
      [&](std::size_t index,
          kar::runner::IndexedOutcome<UnitSample>&& outcome) {
        if (!outcome.status.ok) {
          std::cerr << "fig5: run " << index
                    << " failed: " << outcome.status.error << '\n';
          std::exit(2);
        }
        samples[index / runs].push_back(outcome.value->mbps);
        if (collect_metrics) merged_metrics.merge(outcome.value->metrics);
      });

  if (collect_metrics) {
    kar::obs::write_prometheus_file(metrics_path, merged_metrics);
  }

  if (csv) {
    std::cout << "failure,protection,technique,mean_mbps,ci95_mbps,n\n";
  }
  TextTable table({"failed link", "protection", "technique", "mean (Mb/s)",
                   "95% CI (+/-)", "min", "max"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const auto summary = kar::stats::summarize(samples[c]);
    const std::string failure = std::string(cell.fail_a) + "-" + cell.fail_b;
    if (csv) {
      std::cout << failure << "," << cell.level_name << "," << cell.tech_name
                << "," << kar::common::fmt_double(summary.mean, 2) << ","
                << kar::common::fmt_double(summary.ci95_half_width, 2) << ","
                << runs << "\n";
    }
    table.add_row({failure, cell.level_name, cell.tech_name,
                   kar::common::fmt_double(summary.mean, 1),
                   kar::common::fmt_double(summary.ci95_half_width, 1),
                   kar::common::fmt_double(summary.min, 1),
                   kar::common::fmt_double(summary.max, 1)});
  }
  if (!csv) {
    std::cout << table.render()
              << "\nPaper reference: full ~140 Mb/s everywhere; partial ~= "
                 "full for SW7-SW13 / SW13-SW29; partial ~80 Mb/s for "
                 "SW10-SW7 (only 1/3 of deflected packets covered).\n";
  }
  return 0;
}
