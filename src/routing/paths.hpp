// Path computation for the KAR controller: Dijkstra shortest paths and
// Yen's k-shortest loopless paths over the core. The paper leaves the
// routing algorithm out of scope ("e.g. shortest path"); these are the
// standard choices a controller would use to pick primary and protection
// routes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/graph.hpp"

namespace kar::routing {

/// How link weights are derived for path computation.
enum class PathMetric : std::uint8_t {
  kHopCount,      ///< Every link costs 1 (the paper's "shortest path").
  kInverseRate,   ///< Cost 1e9 / rate_bps: prefers fat links.
  kDelay,         ///< Cost = propagation delay.
};

/// Options for path search.
struct PathOptions {
  PathMetric metric = PathMetric::kHopCount;
  /// When true (the paper's evaluation default), failed links are treated
  /// as usable — "the controller ignores all failure notifications".
  bool ignore_failures = true;
};

/// A path as an ordered node sequence (endpoints included) plus its cost.
struct Path {
  std::vector<topo::NodeId> nodes;
  double cost = 0.0;

  friend bool operator==(const Path&, const Path&) = default;
};

/// Throws std::logic_error for a PathMetric outside the enum.
[[noreturn]] void throw_bad_metric();

/// The weight of one link under a metric — the single cost function every
/// path routine here shares (exported so the incremental control plane's
/// dynamic SPTs price links identically to the full Dijkstra they mirror).
[[nodiscard]] inline double link_cost(const topo::Link& link, PathMetric metric) {
  switch (metric) {
    case PathMetric::kHopCount: return 1.0;
    case PathMetric::kInverseRate: return 1e9 / link.params.rate_bps;
    case PathMetric::kDelay: return link.params.delay_s;
  }
  throw_bad_metric();
}

/// Dijkstra from `src` to `dst`. Intermediate hops are restricted to core
/// switches (edge nodes do not forward). Returns nullopt when disconnected.
[[nodiscard]] std::optional<Path> shortest_path(const topo::Topology& topo,
                                                topo::NodeId src,
                                                topo::NodeId dst,
                                                const PathOptions& options = {});

/// Shortest-path distance (same rules) from every node to `dst`;
/// unreachable nodes get +infinity.
[[nodiscard]] std::vector<double> distances_to(const topo::Topology& topo,
                                               topo::NodeId dst,
                                               const PathOptions& options = {});

/// Yen's algorithm: up to `k` loopless shortest paths, ascending cost.
[[nodiscard]] std::vector<Path> k_shortest_paths(const topo::Topology& topo,
                                                 topo::NodeId src,
                                                 topo::NodeId dst, std::size_t k,
                                                 const PathOptions& options = {});

}  // namespace kar::routing
