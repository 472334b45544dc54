// Typed runners for the paper's repeated-measurement figures (§3.1-3.2):
// the Fig. 5 protection x technique grid and the Fig. 7 RNP backbone
// failure cases. Each returns per-cell records; the bench harnesses only
// parse flags and print them, and the figure tests assert on them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"
#include "stats/summary.hpp"
#include "topology/scenario.hpp"

namespace kar::experiments {

/// One Fig. 5 cell: a failed link on the 15-node route, a protection
/// level and a deflection technique, measured `runs` times.
struct Fig5Cell {
  std::pair<std::string, std::string> failed_link;
  topo::ProtectionLevel level = topo::ProtectionLevel::kPartial;
  dataplane::DeflectionTechnique technique =
      dataplane::DeflectionTechnique::kNotInputPort;
  std::vector<double> samples_mbps;  ///< One mean goodput per run, run order.
  stats::Summary summary;            ///< Of samples_mbps.

  /// "SW10-SW7" style name of the failed link.
  [[nodiscard]] std::string failure() const {
    return failed_link.first + "-" + failed_link.second;
  }
};

/// Paper Fig. 5: failure {SW10-SW7, SW7-SW13, SW13-SW29} (outer) x
/// protection {unprotected, partial, full} x technique {avp, nip} (inner),
/// 18 cells x `runs` single_failure_run() measurements of `seconds` each.
/// The 18 x `runs` simulations run on runner::run_indexed(); run `r` of a
/// cell uses seed `seed + r * 7919`, and samples are folded in index order,
/// so the grid is bit-identical for every `runner.jobs`. When `metrics` is
/// set, each run records its metrics under the cell's failure/protection/
/// technique labels, and the runs' snapshots are merged into it in index
/// order. Throws std::runtime_error naming the first run that failed.
[[nodiscard]] std::vector<Fig5Cell> fig5_grid(
    std::size_t runs, double seconds, std::uint64_t seed,
    const runner::RunnerConfig& runner,
    obs::MetricsSnapshot* metrics = nullptr);

/// One Fig. 7 case: NIP with the paper's partial protection on the RNP
/// route SW7 -> SW73, with one link down (or none, the nominal case).
struct Fig7Case {
  std::optional<std::pair<std::string, std::string>> failed_link;
  std::vector<double> samples_mbps;  ///< One mean goodput per run, run order.
  stats::Summary summary;            ///< Of samples_mbps.
  /// (1 - mean / nominal mean) x 100, where nominal is the no-failure case.
  double drop_pct = 0.0;

  /// "none" or "SW7-SW13" style name of the failed link.
  [[nodiscard]] std::string name() const {
    return failed_link ? failed_link->first + "-" + failed_link->second
                       : "none";
  }
};

/// Paper Fig. 7: the cases none, SW7-SW13, SW13-SW41 and SW41-SW73, in that
/// order, each repeated_failure_runs(runs, seconds) from `seed`.
[[nodiscard]] std::vector<Fig7Case> fig7_cases(std::size_t runs,
                                               double seconds,
                                               std::uint64_t seed);

}  // namespace kar::experiments
