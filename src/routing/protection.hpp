// Automatic driven-deflection protection planning (paper §2, §2.3).
//
// The paper hand-picks its protection sets; this planner generalizes the
// idea: every core switch off the primary path can be granted a residue
// pointing along its shortest path to the destination, turning the route ID
// into a destination-rooted logical tree ("a logical tree with its root at
// destination ... has been built"). Because the route-ID bit length grows
// with every added switch (Eq. 9), the planner adds switches in order of
// usefulness until a bit budget is exhausted — the paper's *partial
// protection* ("Instead of setting the alternative paths entirely, one can
// set part of them", §2.3).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "topology/graph.hpp"

namespace kar::routing {

/// Planning constraints.
struct PlannerOptions {
  /// Upper bound on the route-ID bit length (Eq. 9). Unlimited by default.
  std::size_t max_route_id_bits = static_cast<std::size_t>(-1);
  /// Upper bound on total switches in the route ID. Unlimited by default.
  std::size_t max_switches = static_cast<std::size_t>(-1);
  /// Only consider switches within this many hops of the primary path
  /// (1 = direct deflection candidates only). Unlimited by default.
  std::size_t max_distance_from_path = static_cast<std::size_t>(-1);
};

/// Plans protection assignments for `core_path` (ordered switch handles)
/// toward `dst_edge`. Returns (switch, next-hop) pairs, highest-value
/// first: switches nearer the primary path are added before distant ones,
/// and nearer-to-destination before farther, so truncation under a bit
/// budget keeps the most useful segments. Every returned assignment points
/// strictly "downhill" toward the destination, so driven deflection paths
/// are loop-free by construction.
[[nodiscard]] std::vector<std::pair<topo::NodeId, topo::NodeId>>
plan_driven_deflections(const topo::Topology& topo,
                        const std::vector<topo::NodeId>& core_path,
                        topo::NodeId dst_edge, const PlannerOptions& options = {});

/// The planner's hop distances to `dst_edge` on the intended topology
/// (link failures ignored), so they depend on the destination alone.
[[nodiscard]] std::vector<double> planner_distances(const topo::Topology& topo,
                                                    topo::NodeId dst_edge);

/// As above, with `to_dst` = planner_distances(topo, dst_edge) computed
/// once by a caller that plans many paths toward one destination.
[[nodiscard]] std::vector<std::pair<topo::NodeId, topo::NodeId>>
plan_driven_deflections(const topo::Topology& topo,
                        const std::vector<topo::NodeId>& core_path,
                        topo::NodeId dst_edge, const std::vector<double>& to_dst,
                        const PlannerOptions& options = {});

}  // namespace kar::routing
