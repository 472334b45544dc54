// The KAR network controller (paper §2: "the router component of network
// controller is in control of routing decisions").
//
// Responsibilities reproduced from the paper:
//   * pick a primary path (shortest path by default; pluggable metric);
//   * compose the route ID from the primary path plus driven-deflection
//     protection assignments (CRT encode, §2.2);
//   * re-encode the route for packets that arrive at the wrong edge node
//     (§2.1 final remark, "the controller recalculates the route ID based
//     on the best path from the edge node to the destination");
//   * during the evaluation, *ignore failure notifications* (§3: "the
//     controller ignores all failure notifications and keeps the same
//     route"), which is what forces recovery onto the data plane.
#pragma once

#include <optional>
#include <vector>

#include "routing/encoded_route.hpp"
#include "routing/paths.hpp"
#include "topology/graph.hpp"
#include "topology/scenario.hpp"

namespace kar::routing {

/// Stateless routing brain bound to one topology.
class Controller {
 public:
  /// The controller observes (but never mutates) the topology.
  explicit Controller(const topo::Topology& topology,
                      PathOptions path_options = {})
      : topo_(&topology), path_options_(path_options) {}

  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const PathOptions& path_options() const noexcept {
    return path_options_;
  }

  /// Encodes an explicit core path (switch node handles, ingress→egress)
  /// terminating at `dst_edge`, plus driven-deflection protection
  /// assignments given as (switch node, next-hop node) pairs.
  ///
  /// Throws std::invalid_argument when the path is not physically
  /// connected, a protection switch duplicates a path switch, a port index
  /// is not smaller than its switch ID, or the switch IDs are not pairwise
  /// coprime.
  [[nodiscard]] EncodedRoute encode_path(
      topo::NodeId src_edge, const std::vector<topo::NodeId>& core_path,
      topo::NodeId dst_edge,
      const std::vector<std::pair<topo::NodeId, topo::NodeId>>& protection = {})
      const;

  /// Resolves a scenario route (names + protection level) and encodes it.
  [[nodiscard]] EncodedRoute encode_scenario(const topo::ScenarioRoute& route,
                                             topo::ProtectionLevel level) const;

  /// Computes a shortest path between two edge nodes and encodes it with
  /// the given protection assignments. Returns nullopt when disconnected.
  [[nodiscard]] std::optional<EncodedRoute> route_between(
      topo::NodeId src_edge, topo::NodeId dst_edge,
      const std::vector<std::pair<topo::NodeId, topo::NodeId>>& protection = {})
      const;

  /// Re-encode service for a packet that surfaced at the wrong edge node:
  /// best path from `at_edge` to `dst_edge`, reusing the protection
  /// assignments of `original` where they do not conflict with the new
  /// primary path. Follows the paper's evaluation policy of ignoring
  /// failures unless the constructor was told otherwise.
  [[nodiscard]] std::optional<EncodedRoute> reencode_from(
      topo::NodeId at_edge, const EncodedRoute& original) const;

 private:
  const topo::Topology* topo_;
  PathOptions path_options_;
};

}  // namespace kar::routing
