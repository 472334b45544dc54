#include "routing/protection.hpp"

#include <algorithm>
#include <limits>

#include "routing/paths.hpp"
#include "rns/biguint.hpp"
#include "rns/crt.hpp"

namespace kar::routing {

namespace {

/// Hop distance from every node to the nearest node of `sources` (BFS over
/// core switches, ignoring link state — protection is planned on the
/// intended topology).
std::vector<std::size_t> hops_from_set(const topo::Topology& topo,
                                       const std::vector<topo::NodeId>& sources) {
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(topo.node_count(), kUnreached);
  std::vector<topo::NodeId> frontier;  // FIFO: visited in push order
  frontier.reserve(topo.node_count());
  for (const topo::NodeId s : sources) {
    dist[s] = 0;
    frontier.push_back(s);
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const topo::NodeId cur = frontier[head];
    for (const auto& [port, next] : topo.neighbors(cur)) {
      (void)port;
      if (topo.kind(next) != topo::NodeKind::kCoreSwitch) continue;
      if (dist[next] != kUnreached) continue;
      dist[next] = dist[cur] + 1;
      frontier.push_back(next);
    }
  }
  return dist;
}

}  // namespace

std::vector<double> planner_distances(const topo::Topology& topo,
                                      topo::NodeId dst_edge) {
  const PathOptions path_options{PathMetric::kHopCount, /*ignore_failures=*/true};
  return distances_to(topo, dst_edge, path_options);
}

std::vector<std::pair<topo::NodeId, topo::NodeId>> plan_driven_deflections(
    const topo::Topology& topo, const std::vector<topo::NodeId>& core_path,
    topo::NodeId dst_edge, const PlannerOptions& options) {
  return plan_driven_deflections(topo, core_path, dst_edge,
                                 planner_distances(topo, dst_edge), options);
}

std::vector<std::pair<topo::NodeId, topo::NodeId>> plan_driven_deflections(
    const topo::Topology& topo, const std::vector<topo::NodeId>& core_path,
    topo::NodeId dst_edge, const std::vector<double>& to_dst,
    const PlannerOptions& options) {
  // Exactly the path's own switches are at hop distance 0 from it.
  const std::vector<std::size_t> from_path = hops_from_set(topo, core_path);

  struct Candidate {
    topo::NodeId node;
    topo::NodeId next_hop;
    std::size_t path_distance;
    double dst_distance;
    topo::SwitchId switch_id;
  };
  std::vector<Candidate> candidates;
  for (topo::NodeId node = 0; node < topo.node_count(); ++node) {
    if (topo.kind(node) != topo::NodeKind::kCoreSwitch) continue;
    if (from_path[node] == 0) continue;  // on the path
    if (to_dst[node] == std::numeric_limits<double>::infinity()) continue;
    if (from_path[node] == std::numeric_limits<std::size_t>::max()) continue;
    if (from_path[node] > options.max_distance_from_path) continue;
    // Next hop: the neighbor strictly closer to the destination; ties are
    // broken toward smaller switch IDs for determinism.
    topo::NodeId best = topo::kInvalidNode;
    for (const auto& [port, next] : topo.neighbors(node)) {
      (void)port;
      if (next != dst_edge && topo.kind(next) != topo::NodeKind::kCoreSwitch) {
        continue;
      }
      if (to_dst[next] + 1.0 != to_dst[node]) continue;  // not downhill
      if (best == topo::kInvalidNode) {
        best = next;
        continue;
      }
      const bool next_is_switch = topo.kind(next) == topo::NodeKind::kCoreSwitch;
      const bool best_is_switch =
          best != dst_edge && topo.kind(best) == topo::NodeKind::kCoreSwitch;
      if (next_is_switch && best_is_switch &&
          topo.switch_id(next) < topo.switch_id(best)) {
        best = next;
      }
    }
    if (best == topo::kInvalidNode) continue;
    candidates.push_back(Candidate{node, best, from_path[node], to_dst[node],
                                   topo.switch_id(node)});
  }

  // Most useful first: nearest to the path, then nearest to the
  // destination, then smallest switch ID (cheapest bits) as tiebreak.
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (a.path_distance != b.path_distance) {
                return a.path_distance < b.path_distance;
              }
              if (a.dst_distance != b.dst_distance) {
                return a.dst_distance < b.dst_distance;
              }
              return a.switch_id < b.switch_id;
            });

  // Greedy add under the bit / count budget. Only a bit budget needs the
  // route-ID range product (an unlimited one admits every candidate).
  const bool bit_budget =
      options.max_route_id_bits != PlannerOptions{}.max_route_id_bits;
  rns::BigUint product(1);
  if (bit_budget) {
    for (const topo::NodeId n : core_path) product.mul_add(topo.switch_id(n), 0);
  }

  std::vector<std::pair<topo::NodeId, topo::NodeId>> plan;
  std::size_t total_switches = core_path.size();
  for (const Candidate& c : candidates) {
    if (total_switches >= options.max_switches) break;
    if (bit_budget) {
      rns::BigUint with = product;
      with.mul_add(c.switch_id, 0);
      if (rns::ceil_log2(with - rns::BigUint(1)) > options.max_route_id_bits) {
        continue;  // this switch is too expensive; a cheaper one may still fit
      }
      product = std::move(with);
    }
    plan.emplace_back(c.node, c.next_hop);
    ++total_switches;
  }
  return plan;
}

}  // namespace kar::routing
