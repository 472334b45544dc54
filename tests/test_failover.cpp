// OpenFlow fast-failover baseline: FIB structure, controller installation,
// and the simulator's table-driven data-plane mode.
#include <gtest/gtest.h>

#include "routing/controller.hpp"
#include "routing/failover_install.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using routing::FailoverFib;
using routing::FailoverInstallOptions;
using topo::NodeId;
using topo::Scenario;

TEST(FailoverFib, SelectsFirstAvailablePortInPriorityOrder) {
  Scenario s = topo::make_fig1_network();
  const NodeId sw7 = s.topology.at("SW7");
  const NodeId d = s.topology.at("D");
  FailoverFib fib;
  // SW7: primary port 2 (to SW11), backup port 1 (to SW5).
  fib.install(sw7, d, {2, 1});
  auto selection = fib.select_with_status(s.topology, sw7, d);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->port, 2u);
  EXPECT_FALSE(selection->failed_over);
  // Fail the primary: the group fails over to port 1.
  s.topology.fail_link("SW7", "SW11");
  selection = fib.select_with_status(s.topology, sw7, d);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->port, 1u);
  EXPECT_TRUE(selection->failed_over);
  // Fail the backup too: nothing left.
  s.topology.fail_link("SW7", "SW5");
  EXPECT_FALSE(fib.select(s.topology, sw7, d).has_value());
}

TEST(FailoverFib, MissingEntryAndEmptyInstall) {
  Scenario s = topo::make_fig1_network();
  FailoverFib fib;
  EXPECT_FALSE(
      fib.select(s.topology, s.topology.at("SW7"), s.topology.at("D")).has_value());
  EXPECT_THROW(fib.install(s.topology.at("SW7"), s.topology.at("D"), {}),
               std::invalid_argument);
}

TEST(FailoverFib, EntryAccountingAndReinstall) {
  Scenario s = topo::make_fig1_network();
  const NodeId sw7 = s.topology.at("SW7");
  const NodeId d = s.topology.at("D");
  FailoverFib fib;
  fib.install(sw7, d, {2, 1});
  EXPECT_EQ(fib.total_entries(), 2u);
  EXPECT_EQ(fib.entries_at(sw7), 2u);
  fib.install(sw7, d, {2});  // reinstall replaces, not accumulates
  EXPECT_EQ(fib.total_entries(), 1u);
  EXPECT_EQ(fib.entries_at(s.topology.at("SW4")), 0u);
}

TEST(FailoverInstall, PrimaryIsShortestPathNextHop) {
  const Scenario s = topo::make_experimental15();
  const auto fib = routing::install_failover_fibs(s.topology);
  // SW10's primary toward AS3 must be the port to SW7 (shortest path).
  const auto selection =
      fib.select(s.topology, s.topology.at("SW10"), s.topology.at("AS3"));
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(s.topology.neighbor(s.topology.at("SW10"), *selection),
            s.topology.at("SW7"));
}

TEST(FailoverInstall, EveryReachableSwitchGetsAnEntryPerDestination) {
  const Scenario s = topo::make_rnp28();
  const auto fib = routing::install_failover_fibs(s.topology);
  const auto edges = s.topology.nodes_of_kind(topo::NodeKind::kEdgeNode);
  const auto switches = s.topology.nodes_of_kind(topo::NodeKind::kCoreSwitch);
  for (const NodeId sw : switches) {
    EXPECT_GT(fib.entries_at(sw), 0u) << s.topology.name(sw);
    for (const NodeId dst : edges) {
      EXPECT_TRUE(fib.select(s.topology, sw, dst).has_value())
          << s.topology.name(sw) << " -> " << s.topology.name(dst);
    }
  }
  // State grows with both switches and destinations — the Table 2 point.
  EXPECT_GE(fib.total_entries(), switches.size() * edges.size());
}

TEST(FailoverInstall, DownhillOnlyModeInstallsLoopFreeBackups) {
  const Scenario s = topo::make_rnp28();
  FailoverInstallOptions options;
  options.allow_uphill_backups = false;
  options.max_ports_per_entry = 4;
  const auto fib = routing::install_failover_fibs(s.topology, {}, options);
  const auto dist = routing::distances_to(s.topology, s.topology.at("AS-SP"));
  for (const NodeId sw : s.topology.nodes_of_kind(topo::NodeKind::kCoreSwitch)) {
    const auto port = fib.select(s.topology, sw, s.topology.at("AS-SP"));
    if (!port) continue;
    const auto next = s.topology.neighbor(sw, *port);
    ASSERT_TRUE(next.has_value());
    EXPECT_LT(dist[*next], dist[sw]) << s.topology.name(sw);
  }
}

TEST(FailoverSim, TableModeForwardsAndFailsOver) {
  Scenario s = topo::make_fig1_network();
  const routing::Controller controller(s.topology);
  const auto fib = routing::install_failover_fibs(s.topology);
  sim::NetworkConfig config;
  config.failover_fib = &fib;
  sim::Network net(s.topology, controller, config);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;
  net.set_delivery_handler(route.dst_edge, [&](const dataplane::Packet& p) {
    ++delivered;
    hops = p.hop_count;
  });
  const auto send = [&] {
    dataplane::Packet p;
    p.transport = dataplane::Datagram{0};
    net.edge_at(route.src_edge).stamp(p, route, 100);
    net.inject(route.src_edge, std::move(p));
    net.events().run_all();
  };
  send();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(hops, 3u);  // SW4, SW7, SW11
  // Fail SW7-SW11: the group at SW7 fails over via SW5.
  net.fail_link_now(*s.topology.link_between(s.topology.at("SW7"),
                                             s.topology.at("SW11")));
  send();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(hops, 4u);  // SW4, SW7, SW5, SW11
  EXPECT_GT(net.counters().deflections, 0u);  // failed-over hops count
}

TEST(FailoverSim, MissingFibDropsCleanly) {
  Scenario s = topo::make_fig1_network();
  const routing::Controller controller(s.topology);
  const routing::FailoverFib fib;  // installed, but no group for any dst
  sim::NetworkConfig config;
  config.failover_fib = &fib;
  sim::Network net(s.topology, controller, config);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  dataplane::Packet p;
  p.transport = dataplane::Datagram{0};
  net.edge_at(route.src_edge).stamp(p, route, 100);
  net.inject(route.src_edge, std::move(p));
  net.events().run_all();
  EXPECT_EQ(net.counters().delivered, 0u);
  EXPECT_EQ(net.counters().drop_no_viable_port, 1u);
}

}  // namespace
}  // namespace kar
