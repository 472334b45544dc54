// Reproduces paper Fig. 7: TCP throughput on the 28-node RNP backbone,
// route Boa Vista (SW7) -> Sao Paulo (SW73), NIP deflection with the
// paper's partial protection (links 17-71, 61-67, 67-71, 71-73), for
// no-failure and failures at SW7-SW13, SW13-SW41 and SW41-SW73.
//
// Qualitative shape to reproduce (paper §3.2):
//   * SW7-SW13 failure: smallest impact (<5% in the paper) — the only
//     deflection alternative is SW11 -> SW17, which is protected;
//   * SW13-SW41 failure: largest impact and largest variance — 5
//     equal-probability deflection candidates, only 2 protected;
//   * SW41-SW73 failure: moderate impact — both candidates protected but
//     with longer detours.
//
// Usage: fig7_rnp_backbone [--runs=10] [--seconds=5] [--seed=1] [--csv]
#include <iostream>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "experiments/paper_figures.hpp"

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 10));
  const double seconds = flags.get_double("seconds", 5.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  if (kar::common::report_unread(flags, "fig7_rnp_backbone")) return 2;

  std::cout << "=== Paper Fig. 7: RNP backbone (28 nodes, 40 links), NIP + "
               "partial protection ===\n"
            << "route SW7 (Boa Vista) -> SW73 (Sao Paulo); " << runs
            << " runs x " << seconds << " s per case\n\n";

  if (csv) std::cout << "failure,mean_mbps,ci95_mbps,drop_vs_nominal\n";
  kar::common::TextTable table({"failure", "mean (Mb/s)", "95% CI (+/-)",
                                "drop vs no-failure", "paper reports"});
  const char* kPaperNotes[] = {"~nominal", "< 5% drop", "~40% drop, max variance",
                               "~30% drop"};
  const auto cases = kar::experiments::fig7_cases(runs, seconds, seed);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (csv) {
      std::cout << c.name() << "," << kar::common::fmt_double(c.summary.mean, 2)
                << "," << kar::common::fmt_double(c.summary.ci95_half_width, 2)
                << "," << kar::common::fmt_double(c.drop_pct, 1) << "\n";
    }
    table.add_row({c.name(), kar::common::fmt_double(c.summary.mean, 1),
                   kar::common::fmt_double(c.summary.ci95_half_width, 1),
                   kar::common::fmt_double(c.drop_pct, 1) + "%",
                   kPaperNotes[i]});
  }
  if (!csv) std::cout << table.render();
  return 0;
}
