#include "ctrlplane/route_store.hpp"

#include <stdexcept>
#include <utility>

namespace kar::ctrlplane {

RouteStore::RouteStore(const topo::Topology& topology)
    : topo_(&topology),
      edge_ordinal_(topology.node_count(), kNone),
      link_index_(topology.link_count()),
      dst_postings_(topology.node_count()),
      scratch_deps_(topology.node_count()),
      scratch_path_nodes_(topology.node_count()) {
  for (const topo::NodeId edge :
       topology.nodes_of_kind(topo::NodeKind::kEdgeNode)) {
    edge_ordinal_[edge] = static_cast<std::uint32_t>(edge_count_++);
  }
  group_of_pair_.assign(edge_count_ * edge_count_, kNone);
}

RouteKey RouteStore::add(topo::NodeId src, topo::NodeId dst) {
  if (topo_->kind(src) != topo::NodeKind::kEdgeNode) {
    throw std::invalid_argument("RouteStore: source " + topo_->name(src) +
                                " is not an edge node");
  }
  if (topo_->kind(dst) != topo::NodeKind::kEdgeNode) {
    throw std::invalid_argument("RouteStore: destination " + topo_->name(dst) +
                                " is not an edge node");
  }
  const RouteKey key = routes_.size();
  GroupId& id =
      group_of_pair_[edge_ordinal_[src] * edge_count_ + edge_ordinal_[dst]];
  if (id == kNone) {
    id = static_cast<GroupId>(groups_.size());
    RouteGroup& group = groups_.emplace_back();
    group.src = src;
    group.dst = dst;
    group.deps = NodeMask(topo_->node_count());
    group.path_nodes = NodeMask(topo_->node_count());
    DstPostings& slab = dst_postings_[dst];
    if (slab.node.empty()) {
      destinations_.push_back(dst);
      slab.node.resize(topo_->node_count());
      slab.path.resize(topo_->node_count());
    }
    reindex(group, id);
  }
  RouteGroup& group = groups_[id];
  group.members.push_back(key);
  if (group.live) ++live_;
  routes_.push_back(StoredRoute{.group = id});
  return key;
}

void RouteStore::set_encoding(GroupId id,
                              const std::vector<topo::NodeId>& core_path,
                              const routing::EncodedRoute& route,
                              std::uint64_t version) {
  RouteGroup& group = groups_[id];
  if (!group.live) live_ += group.members.size();
  group.live = true;
  group.route = route;
  group.core_path = core_path;
  group.version = version;
  reindex(group, id);
}

void RouteStore::set_dead(GroupId id, std::uint64_t version) {
  RouteGroup& group = groups_[id];
  if (group.live) live_ -= group.members.size();
  group.live = false;
  group.route = routing::EncodedRoute{};
  group.core_path.clear();
  group.version = version;
  reindex(group, id);
}

void RouteStore::set_stamp(RouteKey key, std::uint64_t stamp,
                           bool admitted_dead) {
  routes_[key].stamp = stamp;
  routes_[key].admitted_dead = admitted_dead;
}

void RouteStore::set_withdrawn(RouteKey key, std::uint64_t version) {
  StoredRoute& entry = routes_[key];
  if (!entry.withdrawn) ++withdrawn_;
  entry.withdrawn = true;
  entry.admitted_dead = false;
  entry.stamp = version;
}

namespace {

bool uses_link(const RouteGroup& group, topo::LinkId link) {
  return std::binary_search(group.links.begin(), group.links.end(), link);
}

}  // namespace

std::size_t RouteStore::compact_postings() {
  std::size_t dropped = 0;
  const auto rewrite = [&](std::vector<GroupId>& posting, const auto& keep) {
    std::vector<GroupId> fresh;
    fresh.reserve(posting.size());
    for (const GroupId id : posting) {
      if (keep(groups_[id])) fresh.push_back(id);
    }
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    dropped += posting.size() - fresh.size();
    posting = std::move(fresh);
  };
  for (topo::LinkId link = 0; link < link_index_.size(); ++link) {
    rewrite(link_index_[link],
            [&](const RouteGroup& group) { return uses_link(group, link); });
  }
  for (const topo::NodeId dst : destinations_) {
    DstPostings& slab = dst_postings_[dst];
    for (topo::NodeId node = 0; node < slab.node.size(); ++node) {
      rewrite(slab.node[node],
              [&](const RouteGroup& group) { return group.deps.test(node); });
      rewrite(slab.path[node], [&](const RouteGroup& group) {
        return group.path_nodes.test(node);
      });
    }
  }
  return dropped;
}

void RouteStore::reindex(RouteGroup& group, GroupId id) {
  // The footprint (file comment); a dead group keeps only its source edge.
  // Path selection at a node reads the distances of *all* its neighbors
  // and its incident links, so the dependency set closes over the
  // neighborhoods of the source and every path node, and the link set is
  // the source uplink plus every assignment's egress link.
  NodeMask& deps = scratch_deps_;
  NodeMask& path_nodes = scratch_path_nodes_;
  std::vector<topo::LinkId>& links = scratch_links_;
  deps.clear();
  path_nodes.clear();
  links.clear();
  deps.set(group.src);
  path_nodes.set(group.src);
  if (group.live) {
    const auto depend_on_neighborhood = [&](topo::NodeId node) {
      deps.set(node);
      for (const auto& [port, next] : topo_->neighbors(node)) {
        (void)port;
        deps.set(next);
      }
    };
    depend_on_neighborhood(group.src);
    for (const topo::NodeId node : group.core_path) {
      depend_on_neighborhood(node);
      path_nodes.set(node);
    }
    if (const auto uplink = topo_->port_to(group.src, group.core_path.front())) {
      links.push_back(topo_->link_at(group.src, *uplink));
    }
    for (const routing::PortAssignment& a : group.route.assignments) {
      const topo::LinkId link = topo_->link_at(a.node, a.port);
      if (link != topo::kInvalidLink) links.push_back(link);
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
  }

  // Diff-append: a bit already set in the old mask means the group is
  // already in that posting (scans only drop a group once its bit clears),
  // so only newly set bits and newly referenced links need an append. This
  // keeps reinstall cost proportional to how much the footprint moved, not
  // to its size, and bounds posting growth under path flapping.
  const auto post = [id](std::vector<GroupId>& posting) {
    if (posting.empty() || posting.back() != id) posting.push_back(id);
  };
  DstPostings& slab = dst_postings_[group.dst];
  deps.for_each_not_in(group.deps,
                       [&](std::size_t node) { post(slab.node[node]); });
  path_nodes.for_each_not_in(group.path_nodes,
                             [&](std::size_t node) { post(slab.path[node]); });
  for (const topo::LinkId link : links) {
    if (!uses_link(group, link)) post(link_index_[link]);
  }
  std::swap(group.deps, deps);
  std::swap(group.path_nodes, path_nodes);
  std::swap(group.links, links);
}

namespace {

/// Shared posting scan: append groups passing `keep`, lazily compacting
/// the posting when more than half of it was stale.
template <typename Keep>
void scan_posting(std::vector<GroupId>& posting, const Keep& keep,
                  std::vector<GroupId>& out) {
  std::size_t kept = 0;
  for (const GroupId id : posting) {
    if (keep(id)) {
      out.push_back(id);
      ++kept;
    }
  }
  if (kept * 2 < posting.size()) {
    std::vector<GroupId> fresh(out.end() - static_cast<std::ptrdiff_t>(kept),
                               out.end());
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    posting = std::move(fresh);
  }
}

}  // namespace

void RouteStore::collect_link_dependents(topo::LinkId link,
                                         std::vector<GroupId>& out) const {
  scan_posting(
      link_index_[link],
      [&](GroupId id) { return uses_link(groups_[id], link); }, out);
}

void RouteStore::collect_node_dependents(topo::NodeId node, topo::NodeId dst,
                                         std::vector<GroupId>& out) const {
  DstPostings& slab = dst_postings_[dst];
  if (slab.node.empty()) return;
  scan_posting(
      slab.node[node], [&](GroupId id) { return groups_[id].deps.test(node); },
      out);
}

void RouteStore::collect_node_dependents(topo::NodeId node,
                                         std::vector<GroupId>& out) const {
  for (const topo::NodeId dst : destinations_) {
    collect_node_dependents(node, dst, out);
  }
}

void RouteStore::collect_path_dependents(topo::NodeId node, topo::NodeId dst,
                                         std::vector<GroupId>& out) const {
  DstPostings& slab = dst_postings_[dst];
  if (slab.path.empty()) return;
  scan_posting(
      slab.path[node],
      [&](GroupId id) { return groups_[id].path_nodes.test(node); }, out);
}

void RouteStore::collect_path_dependents(topo::NodeId node,
                                         std::vector<GroupId>& out) const {
  for (const topo::NodeId dst : destinations_) {
    collect_path_dependents(node, dst, out);
  }
}

}  // namespace kar::ctrlplane
