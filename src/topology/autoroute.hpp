// Shared route-derivation utilities for topology builders and generators.
//
// Every synthetic builder (line/grid/random) used to carry its own copy of
// the "find a core path between the two edge nodes" BFS; the topogen
// generators need the identical logic at 1000 switches. One implementation
// lives here; the builders, `src/topogen/` and the traffic compiler all
// route through it.
#pragma once

#include <string>
#include <vector>

#include "topology/graph.hpp"

namespace kar::topo {

/// Names a core switch after its KAR ID, matching the paper's labels.
[[nodiscard]] std::string switch_label(SwitchId id);

/// BFS shortest core path between the switches adjacent to two edge nodes:
/// the names of the core switches strictly between `src_edge` and
/// `dst_edge`, ingress to egress. Intermediate edge nodes do not forward.
/// Throws std::logic_error when the endpoints are not connected.
[[nodiscard]] std::vector<std::string> bfs_core_path(const Topology& topo,
                                                     NodeId src_edge,
                                                     NodeId dst_edge);

/// The full BFS tree of bfs_core_path's search from `src_edge`: each
/// node's parent, `src_edge` as its own parent and kInvalidNode for nodes
/// it does not reach. A node's parent is fixed when the search discovers
/// it, so one tree answers bfs_core_path for every destination: that is
/// how many flows from one source are routed with one search.
[[nodiscard]] std::vector<NodeId> bfs_parents(const Topology& topo,
                                              NodeId src_edge);

/// bfs_core_path(topo, src_edge, dst_edge), read from
/// `parents = bfs_parents(topo, src_edge)`. Throws std::invalid_argument
/// when `parents` is not rooted at `src_edge`.
[[nodiscard]] std::vector<std::string> core_path_from(
    const Topology& topo, const std::vector<NodeId>& parents, NodeId src_edge,
    NodeId dst_edge);

}  // namespace kar::topo
