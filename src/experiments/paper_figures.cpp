#include "experiments/paper_figures.hpp"

#include <stdexcept>

#include "experiments/tcp_experiment.hpp"
#include "topology/builders.hpp"

namespace kar::experiments {

std::vector<Fig5Cell> fig5_grid(std::size_t runs, double seconds,
                                std::uint64_t seed,
                                const runner::RunnerConfig& runner,
                                obs::MetricsSnapshot* metrics) {
  using dataplane::DeflectionTechnique;
  using topo::ProtectionLevel;
  const std::pair<const char*, const char*> kFailures[] = {
      {"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}};
  const ProtectionLevel kLevels[] = {ProtectionLevel::kUnprotected,
                                     ProtectionLevel::kPartial,
                                     ProtectionLevel::kFull};
  const DeflectionTechnique kTechniques[] = {
      DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort};

  std::vector<Fig5Cell> cells;
  for (const auto& [fail_a, fail_b] : kFailures) {
    for (const ProtectionLevel level : kLevels) {
      for (const DeflectionTechnique technique : kTechniques) {
        Fig5Cell cell;
        cell.failed_link = {fail_a, fail_b};
        cell.level = level;
        cell.technique = technique;
        cell.samples_mbps.reserve(runs);
        cells.push_back(std::move(cell));
      }
    }
  }

  /// Per-unit payload: the goodput sample plus (optionally) the run's
  /// metrics snapshot, folded on the consume side in index order.
  struct UnitSample {
    double mbps = 0.0;
    obs::MetricsSnapshot metrics;
  };
  const bool collect_metrics = metrics != nullptr;
  runner::run_indexed<UnitSample>(
      cells.size() * runs, runner,
      [&](std::size_t index, std::size_t, const runner::CancelToken&) {
        const Fig5Cell& cell = cells[index / runs];
        obs::MetricsRegistry registry(collect_metrics);
        TcpExperiment base;
        base.scenario = topo::make_experimental15(paper_link_params());
        base.reverse_route = reverse_for_experimental15(base.scenario.route);
        base.technique = cell.technique;
        base.level = cell.level;
        base.failed_link = cell.failed_link;
        base.seed = seed;
        if (collect_metrics) {
          base.metrics = &registry;
          base.obs_labels = {
              {"failure", cell.failure()},
              {"protection", std::string(topo::to_string(cell.level))},
              {"technique", std::string(dataplane::to_string(cell.technique))}};
        }
        UnitSample sample;
        sample.mbps = single_failure_run(base, index % runs, seconds);
        if (collect_metrics) sample.metrics = registry.snapshot();
        return sample;
      },
      [&](std::size_t index, runner::IndexedOutcome<UnitSample>&& outcome) {
        if (!outcome.status.ok) {
          throw std::runtime_error("fig5: run " + std::to_string(index) +
                                   " failed: " + outcome.status.error);
        }
        cells[index / runs].samples_mbps.push_back(outcome.value->mbps);
        if (collect_metrics) metrics->merge(outcome.value->metrics);
      });

  for (Fig5Cell& cell : cells) cell.summary = stats::summarize(cell.samples_mbps);
  return cells;
}

std::vector<Fig7Case> fig7_cases(std::size_t runs, double seconds,
                                 std::uint64_t seed) {
  const std::optional<std::pair<std::string, std::string>> kFailures[] = {
      std::nullopt,
      {{"SW7", "SW13"}},
      {{"SW13", "SW41"}},
      {{"SW41", "SW73"}},
  };
  std::vector<Fig7Case> cases;
  double nominal = 0.0;
  for (const auto& failure : kFailures) {
    TcpExperiment base;
    base.scenario = topo::make_rnp28(paper_link_params());
    base.reverse_route = reverse_for_rnp28(base.scenario.route);
    base.technique = dataplane::DeflectionTechnique::kNotInputPort;
    base.level = topo::ProtectionLevel::kPartial;
    base.failed_link = failure;
    base.seed = seed;
    Fig7Case c;
    c.failed_link = failure;
    c.samples_mbps = repeated_failure_runs(base, runs, seconds);
    c.summary = stats::summarize(c.samples_mbps);
    if (!failure) nominal = c.summary.mean;
    c.drop_pct = nominal > 0 ? (1.0 - c.summary.mean / nominal) * 100.0 : 0.0;
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace kar::experiments
