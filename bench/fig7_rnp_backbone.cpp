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
#include <optional>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "stats/summary.hpp"

namespace {

using kar::bench::TcpExperiment;
using kar::common::TextTable;

}  // namespace

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

  const std::optional<std::pair<std::string, std::string>> kCases[] = {
      std::nullopt,
      {{"SW7", "SW13"}},
      {{"SW13", "SW41"}},
      {{"SW41", "SW73"}},
  };

  if (csv) std::cout << "failure,mean_mbps,ci95_mbps,drop_vs_nominal\n";
  TextTable table({"failure", "mean (Mb/s)", "95% CI (+/-)",
                   "drop vs no-failure", "paper reports"});
  double nominal = 0.0;
  const char* kPaperNotes[] = {"~nominal", "< 5% drop", "~40% drop, max variance",
                               "~30% drop"};
  int case_index = 0;
  for (const auto& failure : kCases) {
    TcpExperiment base;
    base.scenario = kar::topo::make_rnp28(kar::bench::paper_link_params());
    base.reverse_route = kar::bench::reverse_for_rnp28(base.scenario.route);
    base.technique = kar::dataplane::DeflectionTechnique::kNotInputPort;
    base.level = kar::topo::ProtectionLevel::kPartial;
    base.failed_link = failure;
    base.seed = seed;
    const auto samples = kar::bench::repeated_failure_runs(base, runs, seconds);
    const auto summary = kar::stats::summarize(samples);
    if (!failure) nominal = summary.mean;
    const std::string name =
        failure ? failure->first + "-" + failure->second : "none";
    const double drop =
        nominal > 0 ? (1.0 - summary.mean / nominal) * 100.0 : 0.0;
    if (csv) {
      std::cout << name << "," << kar::common::fmt_double(summary.mean, 2)
                << "," << kar::common::fmt_double(summary.ci95_half_width, 2)
                << "," << kar::common::fmt_double(drop, 1) << "\n";
    }
    table.add_row({name, kar::common::fmt_double(summary.mean, 1),
                   kar::common::fmt_double(summary.ci95_half_width, 1),
                   kar::common::fmt_double(drop, 1) + "%",
                   kPaperNotes[case_index]});
    ++case_index;
  }
  if (!csv) std::cout << table.render();
  return 0;
}
