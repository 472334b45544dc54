// End-to-end scenario tests: the paper's qualitative claims exercised
// through the full stack (topology -> controller -> encoded route -> DES
// network -> TCP), at reduced time scale so the suite stays fast.
#include <gtest/gtest.h>

#include "experiments/paper_figures.hpp"
#include "experiments/tcp_experiment.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using dataplane::DeflectionTechnique;
using topo::ProtectionLevel;
using topo::Scenario;
using transport::TcpParams;

/// A compressed paper TCP experiment on `scenario`'s default 200 Mb/s
/// links: bulk TCP with partial protection, a 256-segment window, the
/// failure at t = 2 s and 0.25 s goodput bins.
experiments::TcpExperiment compressed(Scenario scenario,
                                      DeflectionTechnique technique) {
  experiments::TcpExperiment experiment;
  experiment.scenario = std::move(scenario);
  experiment.technique = technique;
  experiment.t_fail = 2.0;
  experiment.bin_s = 0.25;
  experiment.tcp = TcpParams{};
  experiment.tcp.receiver_window_segments = 256;
  return experiment;
}

/// A compressed Fig. 4: AS1 -> AS3 on the 15-node network, SW7-SW13 down
/// during [2, 4) of a 6 s run. ACKs take the SW29-SW31-SW19-SW11-SW10
/// backup chain, disjoint from all three studied failure links (the
/// ReverseProtection test covers ACK-side failures).
experiments::TcpRunResult run_fig4_style(DeflectionTechnique technique) {
  auto experiment = compressed(topo::make_experimental15(), technique);
  experiment.reverse_route =
      experiments::reverse_for_experimental15(experiment.scenario.route);
  experiment.failed_link = {{"SW7", "SW13"}};
  experiment.t_repair = 4.0;
  experiment.t_end = 6.0;
  experiment.seed = 1234;
  return experiments::run_tcp_experiment(std::move(experiment));
}

TEST(Fig4Style, NoDeflectionStallsDuringFailure) {
  const auto r = run_fig4_style(DeflectionTechnique::kNone);
  EXPECT_GT(r.before_mbps, 100.0);       // healthy: near nominal 200
  EXPECT_LT(r.during_mbps, 5.0);         // traffic stops
  EXPECT_GT(r.after_mbps, 50.0);         // recovers after repair
  EXPECT_GT(r.drops, 0u);
}

TEST(Fig4Style, NipKeepsTrafficFlowingThroughFailure) {
  const auto r = run_fig4_style(DeflectionTechnique::kNotInputPort);
  EXPECT_GT(r.before_mbps, 100.0);
  // Paper: NIP holds roughly 75% of nominal during the failure; we assert
  // the qualitative bound (well above half of the healthy rate).
  EXPECT_GT(r.during_mbps, r.before_mbps * 0.4);
  EXPECT_GT(r.after_mbps, 100.0);
}

TEST(Fig4Style, TechniqueOrderingNipBeatsHotPotato) {
  const auto nip = run_fig4_style(DeflectionTechnique::kNotInputPort);
  const auto hp = run_fig4_style(DeflectionTechnique::kHotPotato);
  const auto none = run_fig4_style(DeflectionTechnique::kNone);
  // The paper's ordering in Fig. 4: NIP > HP > no deflection (during failure).
  EXPECT_GT(nip.during_mbps, hp.during_mbps);
  EXPECT_GT(hp.during_mbps, none.during_mbps);
}

TEST(Fig4Style, DeflectionCausesReordering) {
  // With the SW7-SW13 failure and partial protection, NIP drives packets
  // over the longer SW19-SW31 branch while in-flight packets complete on
  // the short path: reordering and spurious retransmits must show up.
  const auto r = run_fig4_style(DeflectionTechnique::kNotInputPort);
  EXPECT_GT(r.out_of_order, 0u);
  EXPECT_GT(r.fast_retransmits, 0u);
}

/// Mean NIP goodput of a Fig. 5 cell at the bench smoke setting (1 run x
/// 2 s per cell, seed 1); the grid runs once per test binary.
double fig5_nip_mbps(const std::string& failure, ProtectionLevel level) {
  static const auto grid = experiments::fig5_grid(1, 2.0, 1, {});
  for (const auto& cell : grid) {
    if (cell.failure() == failure && cell.level == level &&
        cell.technique == DeflectionTechnique::kNotInputPort) {
      return cell.summary.mean;
    }
  }
  ADD_FAILURE() << "no Fig. 5 cell " << failure;
  return 0.0;
}

TEST(Fig5Style, FullProtectionBeatsPartialForSw10Failure) {
  // Paper Fig. 5: failure at SW10-SW7 is where partial protection loses
  // 2/3 of deflected packets to unprotected wandering; full protection
  // drives all three branches.
  const double partial = fig5_nip_mbps("SW10-SW7", ProtectionLevel::kPartial);
  const double full = fig5_nip_mbps("SW10-SW7", ProtectionLevel::kFull);
  EXPECT_GT(full, partial * 1.2);
}

TEST(Fig5Style, PartialMatchesFullWhenCoverageSuffices) {
  // For SW13-SW29 failures the partial set already encloses the alternative
  // path (paper §3.1): partial and full should be close.
  const double partial = fig5_nip_mbps("SW13-SW29", ProtectionLevel::kPartial);
  const double full = fig5_nip_mbps("SW13-SW29", ProtectionLevel::kFull);
  EXPECT_GT(partial, 10.0);
  EXPECT_NEAR(partial / full, 1.0, 0.35);
}

TEST(Fig8Style, ProtectionLoopDegradesButDelivers) {
  // SW73-SW107 stays down from t = 2 s to the end of a 5 s run. ACKs ride
  // the redundant SW113-SW109-SW73 path (a different route ID may freely
  // use the parallel branch), so the failure hits only the data path.
  auto experiment = compressed(topo::make_fig8_redundant(),
                               DeflectionTechnique::kNotInputPort);
  experiment.reverse_route.src_edge = experiment.scenario.route.dst_edge;
  experiment.reverse_route.dst_edge = experiment.scenario.route.src_edge;
  experiment.reverse_route.core_path = {"SW113", "SW109", "SW73",
                                        "SW41",  "SW13",  "SW7"};
  experiment.failed_link = {{"SW73", "SW107"}};
  experiment.t_repair = experiment.t_end = 5.0;
  const auto r = experiments::run_tcp_experiment(std::move(experiment));
  const double before = r.before_mbps;
  const double during = r.during_mbps;
  EXPECT_GT(before, 100.0);
  // Liveness: the protection loop keeps delivering (the paper reports a
  // drop to 54.8% of nominal; our plain NewReno-without-SACK substrate is
  // far more reorder-sensitive, so we assert survival + degradation).
  EXPECT_GT(during, 2.0);
  EXPECT_LT(during, before * 0.85);
}

TEST(HotPotatoEndToEnd, WrongEdgeReencodeRescuesWalkers) {
  // HP random walks frequently surface at AS2; the re-encode service must
  // get them to AS3 and the network must count those re-encodes.
  Scenario s = topo::make_experimental15();
  const routing::Controller controller(s.topology);
  sim::NetworkConfig config;
  config.technique = DeflectionTechnique::kHotPotato;
  config.seed = 77;
  sim::Network net(s.topology, controller, config);
  const auto route =
      controller.encode_scenario(s.route, ProtectionLevel::kUnprotected);
  net.fail_link_at(0.0, "SW7", "SW13");
  net.events().run_until(0.001);
  std::uint64_t delivered = 0;
  net.set_delivery_handler(route.dst_edge,
                           [&](const dataplane::Packet&) { ++delivered; });
  // Pace injections (1 ms apart) so the uplink queue is never the limit.
  for (int i = 0; i < 200; ++i) {
    net.events().schedule_at(0.001 * (i + 1), [&net, &route, i] {
      dataplane::Packet p;
      p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
      net.edge_at(route.src_edge).stamp(p, route, 100);
      net.inject(route.src_edge, std::move(p));
    });
  }
  net.events().run_all();
  EXPECT_EQ(delivered, 200u);  // hitless: nothing lost, only detoured
  EXPECT_GT(net.counters().reencodes, 0u);
  EXPECT_GT(net.counters().deflections, 0u);
}

TEST(ReverseProtection, AckPathFailureIsAlsoSurvivable) {
  // Fail a link that only the ACK path protection covers: data flows
  // forward on the unprotected short path while ACKs detour.
  experiments::TcpExperiment experiment;
  experiment.scenario = topo::make_experimental15();
  const topo::ScenarioRoute& route = experiment.scenario.route;
  experiment.reverse_route.src_edge = route.dst_edge;
  experiment.reverse_route.dst_edge = route.src_edge;
  experiment.reverse_route.core_path.assign(route.core_path.rbegin(),
                                            route.core_path.rend());
  // Reverse protection: mirror tree toward SW10.
  experiment.reverse_route.partial_protection = {
      {"SW31", "SW19"}, {"SW19", "SW11"}, {"SW11", "SW10"}};
  experiment.failed_link = {{"SW7", "SW13"}};
  experiment.t_fail = 1.5;
  experiment.t_repair = experiment.t_end = 4.0;
  experiment.bin_s = 0.5;  // the during window is then [2, 4)
  experiment.tcp = TcpParams{};
  // Both directions cross SW7-SW13; both survive via their protections.
  EXPECT_GT(experiments::run_tcp_experiment(std::move(experiment)).during_mbps,
            20.0);
}

}  // namespace
}  // namespace kar
