// Paper-figure shape tests: the src/experiments/ runners that the bench
// harnesses print, called in process at the harnesses' smoke settings.
#include <gtest/gtest.h>

#include "experiments/paper_figures.hpp"

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

}  // namespace
}  // namespace kar
