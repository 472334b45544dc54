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
// The grid is experiments::fig5_grid: the 18 cells x `runs` TCP
// simulations execute as independent units on the parallel runner
// (src/runner/), per-run seeds are seed + r*7919 and samples are folded in
// index order, so the table is byte-identical for every --jobs count
// (--jobs=1 serial).
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
#include <stdexcept>
#include <vector>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "experiments/paper_figures.hpp"
#include "obs/export.hpp"

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 10));
  const double seconds = flags.get_double("seconds", 5.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  const std::string metrics_path = flags.get_string("metrics-out", "");
  kar::runner::RunnerConfig runner_config;
  runner_config.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  runner_config.progress = flags.get_bool("progress", false);
  runner_config.progress_label = "fig5";
  if (kar::common::report_unread(flags, "fig5_protection_tradeoff")) return 2;

  std::cout << "=== Paper Fig. 5: protection level vs deflection technique "
               "(15-node network) ===\n"
            << runs << " runs x " << seconds
            << " s per configuration (paper: 30 x 5 s), 95% CI\n\n";

  kar::obs::MetricsSnapshot metrics;
  std::vector<kar::experiments::Fig5Cell> cells;
  try {
    cells = kar::experiments::fig5_grid(runs, seconds, seed, runner_config,
                                        metrics_path.empty() ? nullptr
                                                             : &metrics);
  } catch (const std::runtime_error& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (!metrics_path.empty()) {
    kar::obs::write_prometheus_file(metrics_path, metrics);
  }

  if (csv) {
    std::cout << "failure,protection,technique,mean_mbps,ci95_mbps,n\n";
  }
  kar::common::TextTable table({"failed link", "protection", "technique",
                                "mean (Mb/s)", "95% CI (+/-)", "min", "max"});
  for (const auto& cell : cells) {
    const auto& summary = cell.summary;
    const std::string failure = cell.failure();
    const std::string level(kar::topo::to_string(cell.level));
    const std::string technique(kar::dataplane::to_string(cell.technique));
    if (csv) {
      std::cout << failure << "," << level << "," << technique << ","
                << kar::common::fmt_double(summary.mean, 2) << ","
                << kar::common::fmt_double(summary.ci95_half_width, 2) << ","
                << runs << "\n";
    }
    table.add_row({failure, level, technique,
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
