// KAR vs the OpenFlow Fast-Failover baseline (paper Table 2, [14]): both
// recover locally and quickly, but FF pays per-destination state in every
// switch and its backup chains are not loop-free by construction, while
// KAR pays header bits and is loop-free along driven segments.
//
// Method: on the RNP backbone, fail every core link on the primary route
// (and then every core link in the network) one at a time; send probe
// bursts and compare delivery, path stretch, and TTL-loop losses. Also
// reports the state-vs-header cost of each design.
//
// Usage: failover_baseline [--probes=500] [--seed=1] [--all-links]
#include <iostream>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "routing/failover_install.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"

namespace {

using kar::common::TextTable;
using kar::common::fmt_double;
using kar::topo::NodeId;
using kar::topo::Scenario;

struct ModeResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ttl_drops = 0;
  double mean_hops = 0;
};

/// Sends `probes` spaced datagrams AS1 -> AS-SP with `link` down.
ModeResult run_probes(kar::sim::DataPlaneMode mode,
                      const kar::routing::FailoverFib* fib,
                      kar::topo::LinkId link, std::size_t probes,
                      std::uint64_t seed) {
  Scenario s = kar::topo::make_rnp28();
  const kar::routing::Controller controller(s.topology);
  kar::sim::NetworkConfig config;
  config.mode = mode;
  config.failover_fib = fib;
  config.seed = seed;
  config.max_hops = 256;
  kar::sim::Network net(s.topology, controller, config);
  const auto route = controller.encode_scenario(
      s.route, kar::topo::ProtectionLevel::kPartial);
  net.events().schedule_at(0.0, [&net, link] { net.fail_link_now(link); });

  ModeResult result;
  std::uint64_t hop_sum = 0;
  net.set_delivery_handler(route.dst_edge, [&](const kar::dataplane::Packet& p) {
    ++result.delivered;
    hop_sum += p.hop_count;
  });
  for (std::size_t i = 0; i < probes; ++i) {
    net.events().schedule_at(1e-4 * static_cast<double>(i + 1), [&net, &route, i] {
      kar::dataplane::Packet packet;
      packet.transport = kar::dataplane::Datagram{i};
      net.edge_at(route.src_edge).stamp(packet, route, 200);
      net.inject(route.src_edge, std::move(packet));
    });
  }
  net.events().run_all();
  result.sent = probes;
  result.ttl_drops = net.counters().drop_ttl;
  result.mean_hops = result.delivered > 0
                         ? static_cast<double>(hop_sum) /
                               static_cast<double>(result.delivered)
                         : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto probes = static_cast<std::size_t>(flags.get_int("probes", 500));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool all_links = flags.get_bool("all-links", false);
  if (kar::common::report_unread(flags, "failover_baseline")) return 2;

  Scenario reference = kar::topo::make_rnp28();
  const kar::routing::Controller controller(reference.topology);
  const auto fib = kar::routing::install_failover_fibs(reference.topology);
  const auto route = controller.encode_scenario(
      reference.route, kar::topo::ProtectionLevel::kPartial);

  std::cout << "=== KAR vs OpenFlow fast-failover baseline (RNP backbone, "
               "route SW7 -> SW73) ===\n\n"
            << "State/header cost:\n"
            << "  fast-failover FIB entries (all switches, all destinations): "
            << fib.total_entries() << "\n"
            << "  KAR core state: 0 entries; route-ID header: "
            << route.bit_length << " bits (partial protection)\n\n";

  // Which links to sweep.
  std::vector<kar::topo::LinkId> links;
  for (kar::topo::LinkId l = 0; l < reference.topology.link_count(); ++l) {
    const auto& link = reference.topology.link(l);
    const bool core =
        reference.topology.kind(link.a.node) == kar::topo::NodeKind::kCoreSwitch &&
        reference.topology.kind(link.b.node) == kar::topo::NodeKind::kCoreSwitch;
    if (!core) continue;
    if (!all_links) {
      // Primary-route links only.
      const auto name_a = reference.topology.name(link.a.node);
      const auto name_b = reference.topology.name(link.b.node);
      const bool on_route =
          (name_a == "SW7" && name_b == "SW13") || (name_a == "SW13" && name_b == "SW41") ||
          (name_a == "SW41" && name_b == "SW73") || (name_b == "SW7" && name_a == "SW13") ||
          (name_b == "SW13" && name_a == "SW41") || (name_b == "SW41" && name_a == "SW73");
      if (!on_route) continue;
    }
    links.push_back(l);
  }

  TextTable table({"failed link", "design", "delivery", "mean hops",
                   "ttl-loop drops"});
  std::size_t kar_total = 0, kar_delivered = 0, ff_total = 0, ff_delivered = 0;
  for (const kar::topo::LinkId link : links) {
    const auto& l = reference.topology.link(link);
    const std::string name = reference.topology.name(l.a.node) + "-" +
                             reference.topology.name(l.b.node);
    const ModeResult kar_result =
        run_probes(kar::sim::DataPlaneMode::kKar, nullptr, link, probes, seed);
    const ModeResult ff_result = run_probes(
        kar::sim::DataPlaneMode::kFailoverFib, &fib, link, probes, seed);
    table.add_row({name, "KAR nip+partial",
                   fmt_double(100.0 * kar_result.delivered / kar_result.sent, 1) + "%",
                   fmt_double(kar_result.mean_hops, 2),
                   std::to_string(kar_result.ttl_drops)});
    table.add_row({name, "OpenFlow FF",
                   fmt_double(100.0 * ff_result.delivered / ff_result.sent, 1) + "%",
                   fmt_double(ff_result.mean_hops, 2),
                   std::to_string(ff_result.ttl_drops)});
    kar_total += kar_result.sent;
    kar_delivered += kar_result.delivered;
    ff_total += ff_result.sent;
    ff_delivered += ff_result.delivered;
  }
  std::cout << table.render() << "\nAggregate delivery: KAR "
            << fmt_double(100.0 * kar_delivered / std::max<std::size_t>(kar_total, 1), 2)
            << "%  vs  FF "
            << fmt_double(100.0 * ff_delivered / std::max<std::size_t>(ff_total, 1), 2)
            << "%  (" << links.size() << " failure cases x " << probes
            << " probes)\n"
            << "(FF recovers locally too, but pays " << fib.total_entries()
            << " core entries and can ping-pong into TTL loops when backup "
               "ports point uphill; KAR is stateless and loop-free along "
               "driven segments)\n";
  return 0;
}
