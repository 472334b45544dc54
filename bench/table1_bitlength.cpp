// Reproduces paper Table 1: "Maximum bit length required by each
// protection mechanism for the 15-node network", plus two extensions the
// paper discusses but does not tabulate: the same accounting for the
// 28-node RNP route, and the effect of the switch-ID assignment strategy
// (DESIGN.md ablation: smaller IDs on popular switches shrink route IDs).
//
// Usage: table1_bitlength [--no-ablation]
#include <cstdio>
#include <iostream>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "routing/id_assign.hpp"
#include "routing/protection.hpp"
#include "rns/crt.hpp"
#include "topology/builders.hpp"

namespace {

using kar::common::TextTable;
using kar::routing::Controller;
using kar::topo::ProtectionLevel;
using kar::topo::Scenario;

void print_table1(const Scenario& scenario, const char* title) {
  const Controller controller(scenario.topology);
  TextTable table({"Protection mechanism", "Bit length",
                   "Number of switches in route ID", "Route ID (decimal)"});
  for (const auto level : {ProtectionLevel::kUnprotected,
                           ProtectionLevel::kPartial, ProtectionLevel::kFull}) {
    const auto route = controller.encode_scenario(scenario.route, level);
    std::string name(kar::topo::to_string(level));
    name[0] = static_cast<char>(std::toupper(name[0]));
    if (level == ProtectionLevel::kPartial) name = "Partial protection";
    if (level == ProtectionLevel::kFull) name = "Full protection";
    table.add_row({name, std::to_string(route.bit_length),
                   std::to_string(route.assignments.size()),
                   route.route_id.to_string()});
  }
  std::cout << title << "\n" << table.render() << "\n";
}

void print_id_ablation() {
  // How many bits does the 15-node full-protection route ID need under
  // different ID-assignment strategies?
  const Scenario s = kar::topo::make_experimental15();
  TextTable table({"ID strategy", "Unprotected bits", "Partial bits", "Full bits"});
  struct Row {
    const char* name;
    kar::routing::IdStrategy strategy;
  };
  for (const Row& row :
       {Row{"paper labels (as published)", kar::routing::IdStrategy::kAscending},
        Row{"ascending coprime", kar::routing::IdStrategy::kAscending},
        Row{"degree-descending", kar::routing::IdStrategy::kDegreeDescending},
        Row{"primes ascending", kar::routing::IdStrategy::kPrimesAscending}}) {
    Scenario variant = s;
    if (std::string(row.name) != "paper labels (as published)") {
      const auto ids = kar::routing::assign_switch_ids(s.topology, row.strategy);
      variant.topology = kar::routing::relabel_topology(s.topology, ids);
      // Scenario names no longer match; rebuild the route by node handles.
    }
    const Controller controller(variant.topology);
    std::vector<std::size_t> bits;
    for (const auto level :
         {ProtectionLevel::kUnprotected, ProtectionLevel::kPartial,
          ProtectionLevel::kFull}) {
      // Resolve by handle (structure identical across relabels).
      std::vector<kar::topo::NodeId> core;
      for (const auto& name : s.route.core_path) {
        core.push_back(s.topology.at(name));
      }
      std::vector<std::pair<kar::topo::NodeId, kar::topo::NodeId>> protection;
      for (const auto& p : s.route.protection_at(level)) {
        protection.emplace_back(s.topology.at(p.switch_name),
                                s.topology.at(p.next_hop_name));
      }
      const auto route =
          controller.encode_path(variant.topology.at("AS1"), core,
                                 variant.topology.at("AS3"), protection);
      bits.push_back(route.bit_length);
    }
    table.add_row({row.name, std::to_string(bits[0]), std::to_string(bits[1]),
                   std::to_string(bits[2])});
  }
  std::cout << "Ablation: switch-ID assignment strategy vs route-ID size "
               "(15-node net)\n"
            << table.render() << "\n";
}

void print_budgeted_planner() {
  // §2.3: when the full protection set does not fit the header budget,
  // partial (loose) protection truncates gracefully. Sweep the bit budget.
  const Scenario s = kar::topo::make_experimental15();
  const Controller controller(s.topology);
  std::vector<kar::topo::NodeId> core;
  for (const auto& name : s.route.core_path) core.push_back(s.topology.at(name));
  const auto dst = s.topology.at("AS3");
  TextTable table({"Bit budget", "Protection switches planned", "Bits used"});
  for (const std::size_t budget : {15u, 20u, 28u, 34u, 43u, 64u, 128u}) {
    kar::routing::PlannerOptions options;
    options.max_route_id_bits = budget;
    const auto plan =
        kar::routing::plan_driven_deflections(s.topology, core, dst, options);
    const auto route =
        controller.encode_path(s.topology.at("AS1"), core, dst, plan);
    table.add_row({std::to_string(budget), std::to_string(plan.size()),
                   std::to_string(route.bit_length)});
  }
  std::cout << "Extension: bit-budgeted automatic protection planning "
               "(15-node net)\n"
            << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const bool ablation = flags.get_bool("ablation", true);
  if (kar::common::report_unread(flags, "table1_bitlength")) return 2;
  std::cout << "=== Paper Table 1: maximum route-ID bit length (15-node "
               "network) ===\n\n";
  print_table1(kar::topo::make_experimental15(),
               "15-node network, route SW10-SW7-SW13-SW29 (paper Table 1)");
  std::cout << "Paper reports: Unprotected 15 bits / 4 switches, Partial 28 "
               "bits / 7 switches, Full 43 bits / 10 switches.\n\n";

  print_table1(kar::topo::make_rnp28(),
               "RNP 28-node network, route SW7-SW13-SW41-SW73 (extension)");
  print_table1(kar::topo::make_fig8_redundant(),
               "Fig. 8 redundant-path route SW7..SW113 (extension)");

  if (ablation) {
    print_id_ablation();
    print_budgeted_planner();
  }
  return 0;
}
