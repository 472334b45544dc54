#include "topology/autoroute.hpp"

#include <algorithm>
#include <stdexcept>

namespace kar::topo {

namespace {

/// BFS from `src_edge` through core switches, stopping once `stop_at` is
/// dequeued (kInvalidNode: never, so the tree spans every reachable node).
/// A node's parent is fixed when it is discovered, so stopping early
/// leaves `stop_at`'s parent, and that of every node on its path, as the
/// full tree has them.
std::vector<NodeId> bfs_search(const Topology& topo, NodeId src_edge,
                               NodeId stop_at) {
  std::vector<NodeId> parent(topo.node_count(), kInvalidNode);
  // FIFO over one buffer: each node is enqueued at most once.
  std::vector<NodeId> frontier;
  frontier.reserve(topo.node_count());
  parent.at(src_edge) = src_edge;
  frontier.push_back(src_edge);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId cur = frontier[head];
    if (cur == stop_at) break;
    // Edge nodes other than the endpoints do not forward.
    if (cur != src_edge && topo.kind(cur) == NodeKind::kEdgeNode) continue;
    for (const auto& [port, next] : topo.neighbors(cur)) {
      (void)port;
      if (parent[next] == kInvalidNode) {
        parent[next] = cur;
        frontier.push_back(next);
      }
    }
  }
  return parent;
}

}  // namespace

std::string switch_label(SwitchId id) { return "SW" + std::to_string(id); }

std::vector<NodeId> bfs_parents(const Topology& topo, NodeId src_edge) {
  return bfs_search(topo, src_edge, kInvalidNode);
}

std::vector<std::string> core_path_from(const Topology& topo,
                                        const std::vector<NodeId>& parents,
                                        NodeId src_edge, NodeId dst_edge) {
  // Given another source's tree, the walk below would never end.
  if (parents.at(src_edge) != src_edge) {
    throw std::invalid_argument("core_path_from: parents is not a tree from " +
                                topo.name(src_edge));
  }
  if (parents.at(dst_edge) == kInvalidNode) {
    throw std::logic_error("bfs_core_path: endpoints not connected");
  }
  std::vector<std::string> path;
  for (NodeId cur = parents[dst_edge]; cur != src_edge; cur = parents[cur]) {
    path.push_back(topo.name(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::string> bfs_core_path(const Topology& topo, NodeId src_edge,
                                       NodeId dst_edge) {
  return core_path_from(topo, bfs_search(topo, src_edge, dst_edge), src_edge,
                        dst_edge);
}

}  // namespace kar::topo
