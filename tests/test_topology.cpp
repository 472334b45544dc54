#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace kar::topo {
namespace {

Topology make_triangle() {
  Topology t;
  t.add_switch("A", 5);
  t.add_switch("B", 7);
  t.add_switch("C", 11);
  t.add_link(t.at("A"), t.at("B"));
  t.add_link(t.at("B"), t.at("C"));
  t.add_link(t.at("C"), t.at("A"));
  return t;
}

TEST(Topology, AddAndLookup) {
  Topology t;
  const NodeId sw = t.add_switch("SW7", 7);
  const NodeId edge = t.add_edge_node("AS1");
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.kind(sw), NodeKind::kCoreSwitch);
  EXPECT_EQ(t.kind(edge), NodeKind::kEdgeNode);
  EXPECT_EQ(t.switch_id(sw), 7u);
  EXPECT_EQ(t.name(edge), "AS1");
  EXPECT_EQ(t.find("SW7"), sw);
  EXPECT_EQ(t.find_switch(7), sw);
  EXPECT_FALSE(t.find("nope").has_value());
  EXPECT_FALSE(t.find_switch(13).has_value());
}

TEST(Topology, AtThrowsOnMissingName) {
  Topology t;
  EXPECT_THROW(t.at("ghost"), std::out_of_range);
}

TEST(Topology, RejectsDuplicateNamesAndIds) {
  Topology t;
  t.add_switch("SW7", 7);
  EXPECT_THROW(t.add_switch("SW7", 11), std::invalid_argument);
  EXPECT_THROW(t.add_switch("other", 7), std::invalid_argument);
  EXPECT_THROW(t.add_edge_node("SW7"), std::invalid_argument);
}

TEST(Topology, RejectsInvalidSwitchIds) {
  Topology t;
  EXPECT_THROW(t.add_switch("bad0", 0), std::invalid_argument);
  EXPECT_THROW(t.add_switch("bad1", 1), std::invalid_argument);
}

TEST(Topology, SwitchIdOnEdgeNodeThrows) {
  Topology t;
  const NodeId e = t.add_edge_node("E");
  EXPECT_THROW(t.switch_id(e), std::logic_error);
}

TEST(Topology, PortIndicesFollowLinkCreationOrder) {
  Topology t;
  const NodeId a = t.add_switch("A", 5);
  const NodeId b = t.add_switch("B", 7);
  const NodeId c = t.add_switch("C", 11);
  t.add_link(a, b);  // A port 0, B port 0
  t.add_link(a, c);  // A port 1, C port 0
  EXPECT_EQ(t.port_count(a), 2u);
  EXPECT_EQ(t.neighbor(a, 0), b);
  EXPECT_EQ(t.neighbor(a, 1), c);
  EXPECT_EQ(t.port_to(a, c), 1u);
  EXPECT_EQ(t.port_to(c, a), 0u);
  EXPECT_FALSE(t.port_to(b, c).has_value());
  EXPECT_FALSE(t.neighbor(a, 9).has_value());
}

TEST(Topology, RejectsSelfLoopsAndParallelLinks) {
  Topology t;
  const NodeId a = t.add_switch("A", 5);
  const NodeId b = t.add_switch("B", 7);
  EXPECT_THROW(t.add_link(a, a), std::invalid_argument);
  t.add_link(a, b);
  EXPECT_THROW(t.add_link(b, a), std::invalid_argument);
}

TEST(Topology, LinkBetweenFindsEitherDirection) {
  Topology t = make_triangle();
  EXPECT_TRUE(t.link_between(t.at("A"), t.at("B")).has_value());
  EXPECT_TRUE(t.link_between(t.at("B"), t.at("A")).has_value());
  EXPECT_EQ(t.link_between(t.at("A"), t.at("B")),
            t.link_between(t.at("B"), t.at("A")));
}

TEST(Topology, FailureStateAffectsAvailability) {
  Topology t = make_triangle();
  const NodeId a = t.at("A");
  EXPECT_EQ(t.available_ports(a).size(), 2u);
  const LinkId failed = t.fail_link("A", "B");
  EXPECT_FALSE(t.link_up(failed));
  EXPECT_FALSE(t.port_available(a, 0));
  EXPECT_TRUE(t.port_available(a, 1));
  EXPECT_EQ(t.available_ports(a).size(), 1u);
  t.repair_all();
  EXPECT_TRUE(t.link_up(failed));
  EXPECT_EQ(t.available_ports(a).size(), 2u);
}

TEST(Topology, FailLinkOnNonAdjacentThrows) {
  Topology t;
  t.add_switch("A", 5);
  t.add_switch("B", 7);
  EXPECT_THROW(t.fail_link("A", "B"), std::invalid_argument);
}

TEST(Topology, NeighborsEnumeratesAllPorts) {
  Topology t = make_triangle();
  const NeighborView view = t.neighbors(t.at("B"));
  ASSERT_EQ(view.size(), 2u);
  const std::vector<std::pair<PortIndex, NodeId>> neighbors(view.begin(),
                                                            view.end());
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].first, 0u);
  EXPECT_EQ(neighbors[0].second, t.at("A"));
  EXPECT_EQ(neighbors[1].second, t.at("C"));
}

TEST(Topology, NodesOfKindAndSwitchIds) {
  Topology t = make_triangle();
  t.add_edge_node("E1");
  EXPECT_EQ(t.nodes_of_kind(NodeKind::kCoreSwitch).size(), 3u);
  EXPECT_EQ(t.nodes_of_kind(NodeKind::kEdgeNode).size(), 1u);
  EXPECT_EQ(t.all_switch_ids(), (std::vector<SwitchId>{5, 7, 11}));
}

TEST(Topology, BadHandlesThrow) {
  Topology t = make_triangle();
  EXPECT_THROW(t.kind(99), std::out_of_range);
  EXPECT_THROW(t.link(99), std::out_of_range);
  EXPECT_THROW(t.add_link(0, 99), std::out_of_range);
}

}  // namespace
}  // namespace kar::topo
