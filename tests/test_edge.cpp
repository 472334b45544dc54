#include "dataplane/edge.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "routing/paths.hpp"
#include "topology/builders.hpp"

namespace kar::dataplane {
namespace {

using topo::ProtectionLevel;
using topo::Scenario;

struct EdgeFixture : public ::testing::Test {
  EdgeFixture()
      : scenario(topo::make_experimental15()),
        controller(scenario.topology),
        route(controller.encode_scenario(scenario.route,
                                         ProtectionLevel::kPartial)) {}

  Scenario scenario;
  routing::Controller controller;
  routing::EncodedRoute route;
};

TEST_F(EdgeFixture, ConstructionRejectsSwitches) {
  EXPECT_THROW(EdgeNode(scenario.topology, scenario.topology.at("SW10"),
                        controller),
               std::invalid_argument);
}

TEST_F(EdgeFixture, StampSetsHeaderAndSize) {
  const EdgeNode ingress(scenario.topology, scenario.topology.at("AS1"),
                         controller);
  Packet packet;
  ingress.stamp(packet, route, /*payload_bytes=*/1460);
  EXPECT_EQ(packet.kar.route_id, route.route_id);
  EXPECT_FALSE(packet.kar.deflected);
  EXPECT_EQ(packet.src_edge, scenario.topology.at("AS1"));
  EXPECT_EQ(packet.dst_edge, scenario.topology.at("AS3"));
  // 54 base + 4 route-id bytes (28 bits) + payload.
  EXPECT_EQ(packet.size_bytes, kBaseHeaderBytes + 4 + 1460);
}

TEST_F(EdgeFixture, StampRejectsForeignRoute) {
  const EdgeNode wrong(scenario.topology, scenario.topology.at("AS2"),
                       controller);
  Packet packet;
  EXPECT_THROW(wrong.stamp(packet, route, 100), std::invalid_argument);
}

TEST_F(EdgeFixture, DeliveryStripsKarHeader) {
  const EdgeNode egress(scenario.topology, scenario.topology.at("AS3"),
                        controller);
  Packet packet;
  packet.kar.route_id = route.route_id;
  packet.kar.deflected = true;
  packet.dst_edge = scenario.topology.at("AS3");
  EXPECT_EQ(egress.receive(packet), EdgeNode::Verdict::kDeliver);
  EXPECT_TRUE(packet.kar.route_id.is_zero());
  EXPECT_FALSE(packet.kar.deflected);
}

TEST_F(EdgeFixture, WrongEdgeReencodeRefreshesRouteId) {
  const EdgeNode bystander(scenario.topology, scenario.topology.at("AS2"),
                           controller, WrongEdgePolicy::kReencode);
  Packet packet;
  packet.kar.route_id = route.route_id;
  packet.kar.deflected = true;  // HP marking must be cleared on re-encode
  packet.dst_edge = scenario.topology.at("AS3");
  EXPECT_EQ(bystander.receive(packet), EdgeNode::Verdict::kReinject);
  EXPECT_NE(packet.kar.route_id, route.route_id);
  EXPECT_FALSE(packet.kar.deflected);
  EXPECT_EQ(packet.reencode_count, 1u);
  // The fresh route must drive AS2's uplink switch (SW43) toward AS3.
  const std::uint64_t residue = packet.kar.route_id.mod_u64(43);
  EXPECT_EQ(scenario.topology.neighbor(scenario.topology.at("SW43"),
                                       static_cast<topo::PortIndex>(residue)),
            scenario.topology.at("SW29"));
}

TEST_F(EdgeFixture, WrongEdgeBouncePolicyKeepsHeader) {
  const EdgeNode bystander(scenario.topology, scenario.topology.at("AS2"),
                           controller, WrongEdgePolicy::kBounceBack);
  Packet packet;
  packet.kar.route_id = route.route_id;
  packet.kar.deflected = true;
  packet.dst_edge = scenario.topology.at("AS3");
  EXPECT_EQ(bystander.receive(packet), EdgeNode::Verdict::kReinject);
  EXPECT_EQ(packet.kar.route_id, route.route_id);  // untouched
  EXPECT_TRUE(packet.kar.deflected);               // marking preserved
  EXPECT_EQ(packet.reencode_count, 0u);
}

TEST(EdgeNodeIsolated, ReencodeWithNoRouteDrops) {
  // An edge with no path to the destination must report kDrop.
  topo::Topology t;
  const auto stranded = t.add_edge_node("LONE");
  const auto dst = t.add_edge_node("DST");
  t.add_switch("SW5", 5);
  t.add_link(t.at("SW5"), dst);
  const routing::Controller controller(t);
  const EdgeNode edge(t, stranded, controller, WrongEdgePolicy::kReencode);
  Packet packet;
  packet.dst_edge = dst;
  EXPECT_EQ(edge.receive(packet), EdgeNode::Verdict::kDrop);
}

// -- wrong-edge re-encode memo ----------------------------------------------

/// What Controller::reencode_from answers for a packet to `dst` that
/// surfaces at `at`: the route ID, or nullopt for no route.
std::optional<rns::BigUint> direct_reencode(
    const routing::Controller& controller, topo::NodeId at, topo::NodeId dst) {
  routing::EncodedRoute original;
  original.dst_edge = dst;
  const auto fresh = controller.reencode_from(at, original);
  if (!fresh) return std::nullopt;
  return fresh->route_id;
}

/// A wrong-edge packet toward `dst` carrying a stale, HP-marked route ID.
Packet stray_packet(topo::NodeId dst) {
  Packet packet;
  packet.kar.route_id = rns::BigUint(0x5eed);
  packet.kar.deflected = true;
  packet.dst_edge = dst;
  return packet;
}

TEST(EdgeReencodeMemo, AgreesWithTheControllerForEveryEdgePair) {
  for (Scenario scenario : {topo::make_experimental15(), topo::make_rnp28()}) {
    // An edge node with no link makes some pairs answer "no route".
    scenario.topology.add_edge_node("ISLAND");
    const topo::Topology& t = scenario.topology;
    const routing::Controller controller(t);
    ASSERT_TRUE(controller.path_options().ignore_failures);
    const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
    std::size_t drops = 0;
    for (const topo::NodeId at : edges) {
      const EdgeNode edge(t, at, controller, WrongEdgePolicy::kReencode);
      // The second pass is answered from the memo.
      for (int pass = 0; pass < 2; ++pass) {
        for (const topo::NodeId dst : edges) {
          if (dst == at) continue;
          const auto expected = direct_reencode(controller, at, dst);
          Packet packet = stray_packet(dst);
          const EdgeNode::Verdict verdict = edge.receive(packet);
          const std::string where = t.name(at) + " -> " + t.name(dst) +
                                    " pass " + std::to_string(pass);
          if (!expected) {
            ++drops;
            EXPECT_EQ(verdict, EdgeNode::Verdict::kDrop) << where;
            EXPECT_EQ(packet.kar.route_id, rns::BigUint(0x5eed)) << where;
            EXPECT_EQ(packet.reencode_count, 0u) << where;
            continue;
          }
          EXPECT_EQ(verdict, EdgeNode::Verdict::kReinject) << where;
          EXPECT_EQ(packet.kar.route_id, *expected) << where;
          EXPECT_FALSE(packet.kar.deflected) << where;
          EXPECT_EQ(packet.reencode_count, 1u) << where;
        }
      }
    }
    // Both passes, from and to the island, for every other edge.
    EXPECT_EQ(drops, 2 * 2 * (edges.size() - 1));
  }
}

TEST(EdgeReencodeMemo, FailureAwareControllerFollowsTheLinkState) {
  Scenario scenario = topo::make_experimental15();
  topo::Topology& t = scenario.topology;
  routing::PathOptions options;
  options.ignore_failures = false;
  const routing::Controller controller(t, options);
  const topo::NodeId at = t.at("AS2");
  const topo::NodeId dst = t.at("AS3");
  const EdgeNode edge(t, at, controller, WrongEdgePolicy::kReencode);

  Packet before = stray_packet(dst);
  ASSERT_EQ(edge.receive(before), EdgeNode::Verdict::kReinject);
  ASSERT_EQ(before.kar.route_id, *direct_reencode(controller, at, dst));

  // Fail the first core link of the current path: the next re-encode must
  // route around it.
  const auto path = routing::shortest_path(t, at, dst, options);
  ASSERT_TRUE(path.has_value());
  ASSERT_GE(path->nodes.size(), 4u);
  const auto link = t.link_between(path->nodes[1], path->nodes[2]);
  ASSERT_TRUE(link.has_value());
  t.set_link_up(*link, false);
  const auto rerouted = direct_reencode(controller, at, dst);
  ASSERT_TRUE(rerouted.has_value());
  ASSERT_NE(*rerouted, before.kar.route_id);

  Packet after = stray_packet(dst);
  ASSERT_EQ(edge.receive(after), EdgeNode::Verdict::kReinject);
  EXPECT_EQ(after.kar.route_id, *rerouted);
}

}  // namespace
}  // namespace kar::dataplane
