#include "routing/paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

namespace kar::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shared Dijkstra core. When `banned_nodes`/`banned_links` are non-null the
/// respective elements are skipped (used by Yen's spur computation).
std::optional<Path> dijkstra(const topo::Topology& topo, topo::NodeId src,
                             topo::NodeId dst, const PathOptions& options,
                             const std::vector<bool>* banned_nodes,
                             const std::set<topo::LinkId>* banned_links) {
  const std::size_t n = topo.node_count();
  if (src >= n || dst >= n) throw std::out_of_range("dijkstra: bad endpoint");
  std::vector<double> dist(n, kInf);
  std::vector<topo::NodeId> parent(n, topo::kInvalidNode);
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, cur] = heap.top();
    heap.pop();
    if (d > dist[cur]) continue;
    if (cur == dst) break;
    // Edge nodes do not forward transit traffic.
    if (cur != src && topo.kind(cur) == topo::NodeKind::kEdgeNode) continue;
    for (const auto& [port, next] : topo.neighbors(cur)) {
      const topo::LinkId link_id = topo.link_at(cur, port);
      const topo::Link& link = topo.link(link_id);
      if (!options.ignore_failures && !link.up) continue;
      if (banned_links && banned_links->contains(link_id)) continue;
      if (banned_nodes && (*banned_nodes)[next] && next != dst) continue;
      const double nd = d + link_cost(link, options.metric);
      if (nd < dist[next]) {
        dist[next] = nd;
        parent[next] = cur;
        heap.emplace(nd, next);
      }
    }
  }
  if (dist[dst] == kInf) return std::nullopt;
  Path path;
  path.cost = dist[dst];
  for (topo::NodeId cur = dst; cur != topo::kInvalidNode; cur = parent[cur]) {
    path.nodes.push_back(cur);
    if (cur == src) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

}  // namespace

void throw_bad_metric() { throw std::logic_error("link_cost: bad metric"); }

std::optional<Path> shortest_path(const topo::Topology& topo, topo::NodeId src,
                                  topo::NodeId dst, const PathOptions& options) {
  return dijkstra(topo, src, dst, options, nullptr, nullptr);
}

std::vector<double> distances_to(const topo::Topology& topo, topo::NodeId dst,
                                 const PathOptions& options) {
  const std::size_t n = topo.node_count();
  std::vector<double> dist(n, kInf);
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[dst] = 0.0;
  heap.emplace(0.0, dst);
  while (!heap.empty()) {
    const auto [d, cur] = heap.top();
    heap.pop();
    if (d > dist[cur]) continue;
    // Traverse links in reverse; costs are symmetric.
    if (cur != dst && topo.kind(cur) == topo::NodeKind::kEdgeNode) continue;
    for (const auto& [port, next] : topo.neighbors(cur)) {
      const topo::Link& link = topo.link(topo.link_at(cur, port));
      if (!options.ignore_failures && !link.up) continue;
      const double nd = d + link_cost(link, options.metric);
      if (nd < dist[next]) {
        dist[next] = nd;
        heap.emplace(nd, next);
      }
    }
  }
  return dist;
}

std::vector<Path> k_shortest_paths(const topo::Topology& topo, topo::NodeId src,
                                   topo::NodeId dst, std::size_t k,
                                   const PathOptions& options) {
  std::vector<Path> result;
  if (k == 0) return result;
  const auto first = shortest_path(topo, src, dst, options);
  if (!first) return result;
  result.push_back(*first);

  // Candidate pool ordered by cost; lexicographic node order breaks ties
  // deterministically.
  auto cmp = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.nodes > b.nodes;
  };
  std::priority_queue<Path, std::vector<Path>, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) is a spur point.
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const topo::NodeId spur = prev.nodes[i];
      std::vector<topo::NodeId> root(prev.nodes.begin(),
                                     prev.nodes.begin() +
                                         static_cast<std::ptrdiff_t>(i + 1));
      // Ban links used by any accepted path sharing this root.
      std::set<topo::LinkId> banned_links;
      for (const Path& p : result) {
        if (p.nodes.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.nodes.begin())) {
          if (const auto l = topo.link_between(p.nodes[i], p.nodes[i + 1])) {
            banned_links.insert(*l);
          }
        }
      }
      // Ban root nodes (loopless requirement), except the spur itself.
      std::vector<bool> banned_nodes(topo.node_count(), false);
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev.nodes[j]] = true;

      const auto spur_path =
          dijkstra(topo, spur, dst, options, &banned_nodes, &banned_links);
      if (!spur_path) continue;
      Path total;
      total.nodes = root;
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin() + 1,
                         spur_path->nodes.end());
      // Recompute the root cost.
      double root_cost = 0.0;
      for (std::size_t j = 0; j + 1 < root.size(); ++j) {
        const auto l = topo.link_between(root[j], root[j + 1]);
        root_cost += link_cost(topo.link(*l), options.metric);
      }
      total.cost = root_cost + spur_path->cost;
      candidates.push(std::move(total));
    }
    // Pop the best new candidate not already accepted.
    bool accepted = false;
    while (!candidates.empty()) {
      Path best = candidates.top();
      candidates.pop();
      if (std::find(result.begin(), result.end(), best) == result.end()) {
        result.push_back(std::move(best));
        accepted = true;
        break;
      }
    }
    if (!accepted) break;  // candidate space exhausted
  }
  return result;
}

}  // namespace kar::routing
