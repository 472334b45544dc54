// Forwarding-state comparison (paper §1 motivation): per-flow and
// per-destination table occupancy vs KAR's stateless core, as the number
// of concurrent flows grows on a multihomed RNP backbone.
//
// Usage: state_comparison [--seed=1]
#include <iostream>

#include "analysis/state_model.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "topology/builders.hpp"

int main(int argc, char** argv) {
  using namespace kar;
  const auto flags = common::Flags::parse_cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (common::report_unread(flags, "state_comparison")) return 2;

  // Multihome the RNP backbone: one customer edge per PoP, which is how a
  // national research network actually looks.
  topo::Scenario scenario = topo::make_rnp28();
  topo::Topology& topo = scenario.topology;
  std::vector<topo::NodeId> edges;
  for (const topo::NodeId sw : topo.nodes_of_kind(topo::NodeKind::kCoreSwitch)) {
    const topo::NodeId edge = topo.add_edge_node("CUST-" + topo.name(sw));
    topo.add_link(edge, sw);
    edges.push_back(edge);
  }

  std::cout << "=== Forwarding-state comparison (paper §1 motivation) ===\n"
            << "RNP backbone with one customer edge per PoP ("
            << edges.size() << " edges); random edge-to-edge flows on "
               "shortest paths\n\n";

  common::Rng rng(seed);
  common::TextTable table(
      {"flows", "per-flow entries (total)", "per-flow (busiest switch)",
       "per-dest entries (total)", "per-dest (busiest)", "KAR entries",
       "KAR mean header bits", "KAR max header bits"});
  for (const std::size_t flow_count : {10u, 50u, 100u, 500u, 1000u, 5000u}) {
    std::vector<std::pair<topo::NodeId, topo::NodeId>> flows;
    flows.reserve(flow_count);
    while (flows.size() < flow_count) {
      const topo::NodeId a = edges[rng.below(edges.size())];
      const topo::NodeId b = edges[rng.below(edges.size())];
      if (a != b) flows.emplace_back(a, b);
    }
    const auto report = analysis::compare_forwarding_state(topo, flows);
    table.add_row({std::to_string(report.flows),
                   std::to_string(report.per_flow_total_entries),
                   std::to_string(report.per_flow_max_entries),
                   std::to_string(report.per_dest_total_entries),
                   std::to_string(report.per_dest_max_entries),
                   std::to_string(report.kar_total_entries),
                   common::fmt_double(report.kar_mean_header_bits, 1),
                   common::fmt_double(report.kar_max_header_bits, 0)});
  }
  std::cout << table.render()
            << "\n(per-flow state grows linearly with flows and concentrates "
               "on hub switches; per-destination state saturates at "
               "#destinations per switch; KAR needs zero core entries at a "
               "fixed per-packet header cost)\n";
  return 0;
}
