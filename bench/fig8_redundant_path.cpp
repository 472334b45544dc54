// Reproduces paper Fig. 8: the redundant-path worst case of the KAR
// encoding. Route SW7-SW13-SW41-SW73-SW107-SW113; SW73 also reaches SW113
// through SW109, but a switch holds exactly one residue per route ID, so
// the parallel branch cannot be pre-encoded. When SW73-SW107 fails,
// recovery is a p=1/2 coin flip per round between SW109 (delivers) and the
// protection loop SW71-SW17-SW41-SW73.
//
// Reported here:
//   * the exact Markov analysis of the loop (delivery probability 1,
//     E[hops] = 10 vs 6 on the healthy path — the geometric retry);
//   * TCP throughput before/during the failure (the paper measures a drop
//     to 54.8% of nominal; our SACK+adaptive-reordering stack lands in the
//     same regime — alive but roughly halved, with inflated hop counts);
//   * a dupack-threshold sweep quantifying how reorder tolerance moves the
//     operating point.
//
// Usage: fig8_redundant_path [--duration=60] [--seed=1] [--runs=5]
#include <iostream>

#include "analysis/markov.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "experiments/tcp_experiment.hpp"
#include "routing/controller.hpp"
#include "stats/summary.hpp"

namespace {

using kar::experiments::TcpExperiment;
using kar::common::TextTable;
using kar::common::fmt_double;

kar::topo::ScenarioRoute fig8_reverse() {
  // ACKs ride the redundant SW113-SW109-SW73 branch: a *different* route ID
  // may use the parallel path the forward route cannot also encode.
  kar::topo::ScenarioRoute reverse;
  reverse.src_edge = "AS-113";
  reverse.dst_edge = "AS1";
  reverse.core_path = {"SW113", "SW109", "SW73", "SW41", "SW13", "SW7"};
  return reverse;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const double duration = flags.get_double("duration", 60.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 5));
  if (kar::common::report_unread(flags, "fig8_redundant_path")) return 2;

  std::cout << "=== Paper Fig. 8: redundant-path scenario (RNP backbone) ===\n"
            << "route SW7-SW13-SW41-SW73-SW107-SW113, protection "
               "SW71->SW17->SW41; failure SW73-SW107\n\n";

  // ---- exact analysis of the protection loop ------------------------------
  {
    kar::topo::Scenario s = kar::topo::make_fig8_redundant();
    const kar::routing::Controller controller(s.topology);
    const auto route = controller.encode_scenario(
        s.route, kar::topo::ProtectionLevel::kPartial);
    const auto healthy = kar::analysis::analyze_deflection(
        s.topology, route, kar::dataplane::DeflectionTechnique::kNotInputPort);
    s.topology.fail_link("SW73", "SW107");
    const auto failed = kar::analysis::analyze_deflection(
        s.topology, route, kar::dataplane::DeflectionTechnique::kNotInputPort);
    TextTable table({"state", "delivery probability", "expected hops"});
    table.add_row({"healthy", fmt_double(healthy.delivery_probability, 4),
                   fmt_double(healthy.expected_hops, 2)});
    table.add_row({"SW73-SW107 failed", fmt_double(failed.delivery_probability, 4),
                   fmt_double(failed.expected_hops, 2)});
    std::cout << "Exact Markov analysis (NIP):\n" << table.render()
              << "Expected: healthy 6 hops; failed 10 hops (6 + 4 x E[retries],"
                 " E[retries] = 1 at p = 1/2); delivery probability 1 in both"
                 " (liveness despite the un-encodable parallel path).\n\n";
  }

  // ---- TCP throughput ------------------------------------------------------
  {
    const double t_fail = duration / 3.0;
    TcpExperiment experiment;
    experiment.scenario = kar::topo::make_fig8_redundant(kar::experiments::paper_link_params());
    experiment.reverse_route = fig8_reverse();
    experiment.technique = kar::dataplane::DeflectionTechnique::kNotInputPort;
    experiment.level = kar::topo::ProtectionLevel::kPartial;
    experiment.failed_link = {{"SW73", "SW107"}};
    experiment.t_fail = t_fail;
    experiment.t_repair = duration + 1.0;  // stays failed
    experiment.t_end = duration;
    experiment.seed = seed;
    const auto result = kar::experiments::run_tcp_experiment(experiment);
    std::cout << "TCP timeline (failure at t=" << t_fail << " s, never repaired):\n"
              << "  |" << kar::bench::sparkline(result.timeline_mbps, 200.0)
              << "|\n"
              << "  before: " << fmt_double(result.before_mbps, 1)
              << " Mb/s  during: " << fmt_double(result.during_mbps, 1)
              << " Mb/s  (" << fmt_double(100.0 * result.during_mbps /
                                          std::max(result.before_mbps, 1e-9), 1)
              << "% of nominal; paper: 54.8%)\n"
              << "  ooo segments: " << result.out_of_order
              << "  fast rexmits: " << result.fast_retransmits
              << "  deflections: " << result.deflections << "\n\n";
  }

  // ---- dup-ack threshold sweep (reorder tolerance ablation) ----------------
  {
    std::cout << "Ablation: receiver reorder tolerance (dupack threshold) vs "
                 "throughput during the failure\n";
    TextTable table({"dupthresh", "mean during-failure (Mb/s)", "95% CI (+/-)",
                     "% of nominal"});
    // Nominal from a no-failure baseline run at default threshold.
    TcpExperiment nominal_base;
    nominal_base.scenario = kar::topo::make_fig8_redundant(kar::experiments::paper_link_params());
    nominal_base.reverse_route = fig8_reverse();
    nominal_base.level = kar::topo::ProtectionLevel::kPartial;
    nominal_base.seed = seed;
    const auto nominal_samples =
        kar::experiments::repeated_failure_runs(nominal_base, runs, 5.0);
    const double nominal = kar::stats::summarize(nominal_samples).mean;
    for (const std::uint32_t threshold : {3u, 8u, 16u, 32u, 64u}) {
      TcpExperiment base = nominal_base;
      base.failed_link = {{"SW73", "SW107"}};
      base.tcp.dupack_threshold = threshold;
      const auto samples = kar::experiments::repeated_failure_runs(base, runs, 5.0);
      const auto summary = kar::stats::summarize(samples);
      table.add_row({std::to_string(threshold), fmt_double(summary.mean, 1),
                     fmt_double(summary.ci95_half_width, 1),
                     fmt_double(100.0 * summary.mean / std::max(nominal, 1e-9), 1) +
                         "%"});
    }
    std::cout << table.render()
              << "(higher thresholds emulate SACK-era reorder tolerance; the "
                 "paper's kernel stack sat near the top rows)\n";
  }
  return 0;
}
