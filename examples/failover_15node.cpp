// Failover demo on the paper's 15-node network: a bulk TCP transfer from
// AS1 to AS3 rides route SW10-SW7-SW13-SW29 while a link on the path
// fails mid-transfer. Shows the full production loop: protection planning
// under a header-bit budget, route encoding, live failure, deflection
// recovery, and the throughput/reordering telemetry a network operator
// would look at.
//
// Usage: failover_15node [--technique=nip|avp|hp|none]
//                        [--level=unprotected|partial|full]
//                        [--fail-a=SW7 --fail-b=SW13] [--duration=30]
#include <iostream>
#include <stdexcept>

#include "analysis/markov.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"
#include "transport/flows.hpp"

namespace {

kar::topo::ProtectionLevel level_from(const std::string& name) {
  if (name == "unprotected") return kar::topo::ProtectionLevel::kUnprotected;
  if (name == "partial") return kar::topo::ProtectionLevel::kPartial;
  if (name == "full") return kar::topo::ProtectionLevel::kFull;
  throw std::invalid_argument("unknown protection level: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kar;
  const auto flags = common::Flags::parse_cli(argc, argv);
  const std::string technique_name = flags.get_string("technique", "nip");
  const std::string level_name = flags.get_string("level", "partial");
  const std::string fail_a = flags.get_string("fail-a", "SW7");
  const std::string fail_b = flags.get_string("fail-b", "SW13");
  const double duration = flags.get_double("duration", 30.0);
  if (common::report_unread(flags, "failover_15node")) return 2;
  dataplane::DeflectionTechnique technique{};
  topo::ProtectionLevel level{};
  try {
    technique = dataplane::technique_from_string(technique_name);
    level = level_from(level_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "failover_15node: " << e.what() << '\n';
    return 2;
  }

  topo::Scenario scenario = topo::make_experimental15();
  {
    const topo::Topology& topology = scenario.topology;
    const auto a = topology.find(fail_a);
    const auto b = topology.find(fail_b);
    if (!a || !b) {
      std::cerr << "failover_15node: no node named " << (a ? fail_b : fail_a)
                << '\n';
      return 2;
    }
    if (!topology.link_between(*a, *b)) {
      std::cerr << "failover_15node: " << fail_a << " and " << fail_b
                << " are not adjacent\n";
      return 2;
    }
  }
  const routing::Controller controller(scenario.topology);

  // Encode the forward route at the requested protection level and print
  // the header cost (paper Table 1 is exactly this accounting).
  const auto forward = controller.encode_scenario(scenario.route, level);
  std::cout << "Route AS1 -> AS3 over SW10-SW7-SW13-SW29, "
            << topo::to_string(level) << " protection\n"
            << "  route ID: " << forward.route_id << "  ("
            << forward.bit_length << " bits, " << forward.assignments.size()
            << " switches)\n";

  // Exact data-plane prognosis for the chosen failure before running it.
  {
    topo::Scenario forecast = scenario;
    forecast.topology.fail_link(fail_a, fail_b);
    try {
      const auto markov =
          analysis::analyze_deflection(forecast.topology, forward, technique);
      std::cout << "  exact prognosis for " << fail_a << "-" << fail_b
                << " down: delivery p=" << markov.delivery_probability
                << ", E[hops]=" << markov.expected_hops << " (healthy: 4)\n";
    } catch (const std::domain_error&) {
      std::cout << "  exact prognosis: walk can cycle (hop budget will bound it)\n";
    }
  }

  // Reverse (ACK) route: mirrored path with a mirrored protection tree.
  topo::ScenarioRoute reverse_route;
  reverse_route.src_edge = scenario.route.dst_edge;
  reverse_route.dst_edge = scenario.route.src_edge;
  reverse_route.core_path.assign(scenario.route.core_path.rbegin(),
                                 scenario.route.core_path.rend());
  reverse_route.partial_protection = {
      {"SW31", "SW19"}, {"SW19", "SW11"}, {"SW11", "SW10"}};
  reverse_route.full_extra_protection = {
      {"SW43", "SW17"}, {"SW17", "SW10"}, {"SW37", "SW10"}};
  const auto reverse = controller.encode_scenario(reverse_route, level);

  sim::NetworkConfig config;
  config.technique = technique;
  sim::Network net(scenario.topology, controller, config);
  transport::FlowDispatcher dispatcher(net);
  transport::BulkTransferFlow flow(net, dispatcher, forward, reverse,
                                   /*flow_id=*/1, {}, /*goodput_bin_s=*/1.0);

  const double t_fail = duration / 3.0;
  const double t_repair = 2.0 * duration / 3.0;
  flow.start_at(0.0);
  net.fail_link_at(t_fail, fail_a, fail_b);
  net.repair_link_at(t_repair, fail_a, fail_b);
  flow.stop_at(duration);
  std::cout << "\nRunning " << duration << " s of bulk TCP with "
            << dataplane::to_string(technique) << " deflection; " << fail_a
            << "-" << fail_b << " down during [" << t_fail << ", " << t_repair
            << ")...\n\n";
  net.events().run_until(duration);

  std::cout << "  t(s)  goodput(Mb/s)\n";
  for (std::size_t bin = 0; bin < static_cast<std::size_t>(duration); ++bin) {
    const double mbps = flow.receiver().goodput().bin_mbps(bin);
    std::string bar(static_cast<std::size_t>(mbps / 4.0), '#');
    std::cout << common::pad_left(std::to_string(bin), 5) << "  "
              << common::pad_left(common::fmt_double(mbps, 1), 7) << "  " << bar
              << "\n";
  }

  const auto& tx = flow.sender().stats();
  const auto& rx = flow.receiver().stats();
  std::cout << "\nSender: " << tx.segments_sent << " segments ("
            << tx.retransmits << " retransmits, " << tx.fast_retransmits
            << " fast, " << tx.timeouts << " RTO)\n"
            << "Receiver: " << rx.delivered_segments << " in-order segments, "
            << rx.out_of_order_segments << " out-of-order arrivals\n"
            << "Network: " << net.counters().deflections << " deflections, "
            << net.counters().reencodes << " wrong-edge re-encodes, "
            << net.counters().total_drops() << " drops\n";
  return 0;
}
