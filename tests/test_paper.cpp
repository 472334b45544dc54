// Paper-figure shape tests: the src/experiments/ runners that the bench
// harnesses print, called in process at the harnesses' smoke settings, and
// the goodput windows those harnesses read.
#include <gtest/gtest.h>

#include "experiments/paper_figures.hpp"
#include "experiments/tcp_experiment.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

TEST(Fig7Shape, DropVsNominalFollowsThePapersOrdering) {
  // Paper §3.2: SW7-SW13 hurts least (its one deflection alternative is
  // protected), SW41-SW73 more (protected, longer detours), SW13-SW41 most
  // (5 candidates, only 2 protected).
  const auto cases = experiments::fig7_cases(/*runs=*/1, /*seconds=*/2.0,
                                             /*seed=*/1);
  ASSERT_EQ(cases.size(), 4u);
  ASSERT_EQ(cases[1].name() + " " + cases[2].name() + " " + cases[3].name(),
            "SW7-SW13 SW13-SW41 SW41-SW73");
  EXPECT_LT(cases[1].drop_pct, cases[3].drop_pct);
  EXPECT_LT(cases[3].drop_pct, cases[2].drop_pct);
}

TEST(Fig8Window, DuringGoodputOfANeverRepairedFailureEndsAtTheRunsEnd) {
  // fig8_redundant_path never repairs its failure (t_repair past t_end):
  // the "during" mean covers the bins from t_fail + bin to the run's end,
  // not a window that runs past it.
  experiments::TcpExperiment experiment;
  experiment.scenario = topo::make_fig8_redundant();
  experiment.reverse_route.src_edge = experiment.scenario.route.dst_edge;
  experiment.reverse_route.dst_edge = experiment.scenario.route.src_edge;
  experiment.reverse_route.core_path = {"SW113", "SW109", "SW73",
                                        "SW41",  "SW13",  "SW7"};
  experiment.failed_link = {{"SW73", "SW107"}};
  experiment.t_fail = 1.0;
  experiment.t_end = 3.0;
  experiment.t_repair = experiment.t_end + 1.0;
  experiment.bin_s = 0.25;
  const auto result = experiments::run_tcp_experiment(experiment);
  ASSERT_EQ(result.timeline_mbps.size(), 12u);
  double sum = 0.0;
  for (std::size_t bin = 5; bin < 12; ++bin) sum += result.timeline_mbps[bin];
  const double mean = sum / 7.0;  // bins [1.25, 3.0)
  ASSERT_GT(mean, 0.0);
  EXPECT_NEAR(result.during_mbps, mean, 1e-9 * mean);
}

}  // namespace
}  // namespace kar
