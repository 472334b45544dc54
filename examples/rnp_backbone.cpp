// National-backbone example: KAR on the 28-node RNP (Ipê) topology. Walks
// the whole operator workflow: pick a route across the country, let the
// automatic planner graft driven-deflection protection under a header-bit
// budget, inspect the plan, then kill every protected link one at a time
// and verify the exact delivery probability stays 1 where the plan covers
// the deflections.
//
// Usage: rnp_backbone [--bits=64] [--export-dot]
#include <iostream>

#include "analysis/markov.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "routing/protection.hpp"
#include "topology/builders.hpp"
#include "topology/io.hpp"

int main(int argc, char** argv) {
  using namespace kar;
  const auto flags = common::Flags::parse_cli(argc, argv);
  const auto bit_budget = static_cast<std::size_t>(flags.get_int("bits", 64));
  const bool export_dot = flags.get_bool("export-dot", false);
  if (common::report_unread(flags, "rnp_backbone")) return 2;

  topo::Scenario scenario = topo::make_rnp28();
  topo::Topology& net = scenario.topology;
  const routing::Controller controller(net);

  std::cout << "RNP backbone: " << net.nodes_of_kind(topo::NodeKind::kCoreSwitch).size()
            << " PoPs, " << net.link_count() << " links\n"
            << "Route: Boa Vista (SW7) -> Sao Paulo (SW73)\n\n";

  // The paper's hand-picked partial protection.
  const auto paper_route = controller.encode_scenario(
      scenario.route, topo::ProtectionLevel::kPartial);
  std::cout << "Paper's partial protection (links 17-71, 61-67, 67-71, 71-73): "
            << paper_route.bit_length << " header bits, route ID "
            << paper_route.route_id << "\n";

  // The automatic planner under a bit budget.
  std::vector<topo::NodeId> core;
  for (const auto& name : scenario.route.core_path) core.push_back(net.at(name));
  routing::PlannerOptions options;
  options.max_route_id_bits = bit_budget;
  const auto plan = routing::plan_driven_deflections(
      net, core, net.at(scenario.route.dst_edge), options);
  const auto planned_route = controller.encode_path(
      net.at(scenario.route.src_edge), core, net.at(scenario.route.dst_edge), plan);
  std::cout << "Planner under a " << bit_budget << "-bit budget grafts "
            << plan.size() << " protection switches (" << planned_route.bit_length
            << " bits):\n";
  for (const auto& [node, next] : plan) {
    std::cout << "  " << net.name(node) << " -> " << net.name(next) << "\n";
  }

  // Per-failure exact prognosis for the planned route.
  std::cout << "\nSingle-link failure sweep over the primary path (NIP):\n";
  common::TextTable table({"failed link", "delivery probability",
                           "E[hops] (healthy: 4)", "covered"});
  const std::vector<std::pair<std::string, std::string>> path_links = {
      {"SW7", "SW13"}, {"SW13", "SW41"}, {"SW41", "SW73"}};
  for (const auto& [a, b] : path_links) {
    net.repair_all();
    net.fail_link(a, b);
    try {
      const auto result = analysis::analyze_deflection(
          net, planned_route, dataplane::DeflectionTechnique::kNotInputPort);
      table.add_row({a + "-" + b, common::fmt_double(result.delivery_probability, 4),
                     common::fmt_double(result.expected_hops, 2),
                     result.delivery_probability > 0.999 ? "yes" : "partial"});
    } catch (const std::domain_error&) {
      table.add_row({a + "-" + b, "cyclic walk", "-", "no"});
    }
  }
  net.repair_all();
  std::cout << table.render();

  if (export_dot) {
    std::cout << "\n" << topo::to_graphviz(net);
  } else {
    std::cout << "\n(run with --export-dot to dump Graphviz)\n";
  }
  return 0;
}
