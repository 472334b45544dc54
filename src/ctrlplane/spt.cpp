#include "ctrlplane/spt.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace kar::ctrlplane {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using HeapItem = std::pair<double, topo::NodeId>;
using MinHeap = std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

}  // namespace

DynamicSpt::DynamicSpt(const topo::Topology& topology, topo::NodeId destination,
                       routing::PathMetric metric,
                       std::size_t fallback_threshold)
    : topo_(&topology),
      dst_(destination),
      metric_(metric),
      threshold_(fallback_threshold) {
  const std::size_t n = topo_->node_count();
  if (destination >= n) throw std::out_of_range("DynamicSpt: bad destination");
  dist_.assign(n, kInf);
  parent_.assign(n, topo::kInvalidNode);
  parent_link_.assign(n, topo::kInvalidLink);
  mark_.assign(n, 0);
  affected_flag_.assign(n, 0);
  old_dist_.assign(n, kInf);
  next_hop_memo_.assign(n, topo::kInvalidNode);
  next_hop_stamp_.assign(n, 0);
  memo_link_version_ = topo_->link_state_version();
  rebuild();
}

bool DynamicSpt::propagates(topo::NodeId node) const {
  // Mirrors routing::distances_to: edge nodes other than the destination
  // terminate the KAR domain and never relay relaxations.
  return node == dst_ || topo_->kind(node) == topo::NodeKind::kCoreSwitch;
}

void DynamicSpt::rebuild() {
  ++memo_stamp_;
  std::fill(dist_.begin(), dist_.end(), kInf);
  std::fill(parent_.begin(), parent_.end(), topo::kInvalidNode);
  std::fill(parent_link_.begin(), parent_link_.end(), topo::kInvalidLink);
  MinHeap heap;
  dist_[dst_] = 0.0;
  heap.emplace(0.0, dst_);
  while (!heap.empty()) {
    const auto [d, cur] = heap.top();
    heap.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const auto& [port, next] : topo_->neighbors(cur)) {
      const topo::LinkId link_id = topo_->link_at(cur, port);
      const topo::Link& link = topo_->link(link_id);
      if (!link.up) continue;
      const double nd = d + routing::link_cost(link, metric_);
      if (nd < dist_[next]) {
        dist_[next] = nd;
        parent_[next] = cur;
        parent_link_[next] = link_id;
        heap.emplace(nd, next);
      }
    }
  }
}

SptUpdateStats DynamicSpt::apply_link_event(topo::LinkId link, bool up,
                                            std::vector<topo::NodeId>& changed) {
  ++memo_stamp_;
  return up ? handle_insert(link, changed) : handle_delete(link, changed);
}

SptUpdateStats DynamicSpt::fallback_rebuild(std::vector<topo::NodeId>& changed) {
  old_dist_ = dist_;
  rebuild();
  for (topo::NodeId v = 0; v < dist_.size(); ++v) {
    if (dist_[v] != old_dist_[v]) changed.push_back(v);
  }
  return SptUpdateStats{dist_.size(), true};
}

SptUpdateStats DynamicSpt::handle_insert(topo::LinkId link,
                                         std::vector<topo::NodeId>& changed) {
  const topo::Link& l = topo_->link(link);
  // A coalesced epoch can replay a repair that a later (also pending)
  // failure already reverted; the topology holds the final say.
  if (!l.up) return SptUpdateStats{0, false};
  const double w = routing::link_cost(l, metric_);
  ++epoch_;
  std::vector<topo::NodeId> touched;
  MinHeap heap;

  const auto improve = [&](topo::NodeId node, topo::NodeId via,
                           topo::LinkId via_link, double nd) {
    if (nd >= dist_[node]) return;
    if (mark_[node] != epoch_) {
      mark_[node] = epoch_;
      old_dist_[node] = dist_[node];
      touched.push_back(node);
    }
    dist_[node] = nd;
    parent_[node] = via;
    parent_link_[node] = via_link;
    heap.emplace(nd, node);
  };

  // Seed: the new link can only lower a distance through an endpoint that
  // relays relaxations (the destination or a core switch).
  if (propagates(l.b.node) && dist_[l.b.node] < kInf) {
    improve(l.a.node, l.b.node, link, dist_[l.b.node] + w);
  }
  if (propagates(l.a.node) && dist_[l.a.node] < kInf) {
    improve(l.b.node, l.a.node, link, dist_[l.a.node] + w);
  }

  while (!heap.empty()) {
    const auto [d, cur] = heap.top();
    heap.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const auto& [port, next] : topo_->neighbors(cur)) {
      const topo::LinkId link_id = topo_->link_at(cur, port);
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      improve(next, cur, link_id, d + routing::link_cost(nl, metric_));
    }
  }

  // Every touched node strictly improved (improve() only fires on <).
  changed.insert(changed.end(), touched.begin(), touched.end());
  return SptUpdateStats{touched.size(), false};
}

SptUpdateStats DynamicSpt::handle_delete(topo::LinkId link,
                                         std::vector<topo::NodeId>& changed) {
  const topo::Link& l = topo_->link(link);
  // A non-tree link carries no settled distance: removing it changes
  // nothing (every shortest distance is realised along tree edges). The
  // tree child of a tree link is the endpoint whose parent link it is.
  topo::NodeId seed = topo::kInvalidNode;
  if (parent_link_[l.a.node] == link) {
    seed = l.a.node;
  } else if (parent_link_[l.b.node] == link) {
    seed = l.b.node;
  } else {
    return SptUpdateStats{0, false};
  }

  // Affected subtree A: nodes whose tree path to the root crosses `seed`,
  // classified by walking parent chains with epoch-stamped memoisation.
  ++epoch_;
  mark_[seed] = epoch_;
  affected_flag_[seed] = 1;
  if (dist_[dst_] == 0.0) {  // root is always classified out of A
    mark_[dst_] = epoch_;
    affected_flag_[dst_] = 0;
  }
  std::vector<topo::NodeId> affected{seed};
  std::vector<topo::NodeId> chain;
  const std::size_t n = topo_->node_count();
  for (topo::NodeId v = 0; v < n; ++v) {
    if (dist_[v] == kInf || mark_[v] == epoch_) continue;
    chain.clear();
    topo::NodeId cur = v;
    std::uint8_t verdict = 0;
    while (true) {
      if (mark_[cur] == epoch_) {
        verdict = affected_flag_[cur];
        break;
      }
      chain.push_back(cur);
      const topo::NodeId p = parent_[cur];
      if (p == topo::kInvalidNode) {  // reached the root
        verdict = 0;
        break;
      }
      cur = p;
    }
    for (const topo::NodeId node : chain) {
      mark_[node] = epoch_;
      affected_flag_[node] = verdict;
      if (verdict != 0) affected.push_back(node);
    }
  }

  if (affected.size() > threshold_) return fallback_rebuild(changed);

  const auto in_affected = [&](topo::NodeId node) {
    return mark_[node] == epoch_ && affected_flag_[node] != 0;
  };

  // Detach A, remembering old distances for the changed-set diff. Boundary
  // distances (outside A) are already exact: deletion cannot lower them,
  // and their tree paths avoid the dead link.
  for (const topo::NodeId v : affected) {
    old_dist_[v] = dist_[v];
    dist_[v] = kInf;
    parent_[v] = topo::kInvalidNode;
    parent_link_[v] = topo::kInvalidLink;
  }

  MinHeap heap;
  for (const topo::NodeId v : affected) {
    for (const auto& [port, next] : topo_->neighbors(v)) {
      const topo::LinkId link_id = topo_->link_at(v, port);
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      if (in_affected(next) || !propagates(next)) continue;
      if (dist_[next] == kInf) continue;
      const double cand = dist_[next] + routing::link_cost(nl, metric_);
      if (cand < dist_[v]) {
        dist_[v] = cand;
        parent_[v] = next;
        parent_link_[v] = link_id;
      }
    }
    if (dist_[v] < kInf) heap.emplace(dist_[v], v);
  }

  // Restricted Dijkstra: settle A from its boundary.
  while (!heap.empty()) {
    const auto [d, cur] = heap.top();
    heap.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const auto& [port, next] : topo_->neighbors(cur)) {
      if (!in_affected(next)) continue;
      const topo::LinkId link_id = topo_->link_at(cur, port);
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      const double cand = d + routing::link_cost(nl, metric_);
      if (cand < dist_[next]) {
        dist_[next] = cand;
        parent_[next] = cur;
        parent_link_[next] = link_id;
        heap.emplace(cand, next);
      }
    }
  }

  for (const topo::NodeId v : affected) {
    if (dist_[v] != old_dist_[v]) changed.push_back(v);
  }
  return SptUpdateStats{affected.size(), false};
}

topo::NodeId DynamicSpt::canonical_next_hop(topo::NodeId from) const {
  if (from == dst_) return topo::kInvalidNode;
  topo::NodeId best = topo::kInvalidNode;
  double best_cost = kInf;
  for (const auto& [port, next] : topo_->neighbors(from)) {
    // Intermediate hops must forward: only the destination itself or core
    // switches qualify as next hops.
    if (next != dst_ && topo_->kind(next) != topo::NodeKind::kCoreSwitch) continue;
    const topo::LinkId link_id = topo_->link_at(from, port);
    const topo::Link& link = topo_->link(link_id);
    if (!link.up) continue;
    if (dist_[next] == kInf) continue;
    const double cand = dist_[next] + routing::link_cost(link, metric_);
    if (cand < best_cost || (cand == best_cost && next < best)) {
      best_cost = cand;
      best = next;
    }
  }
  return best;
}

std::optional<std::vector<topo::NodeId>> DynamicSpt::canonical_path(
    topo::NodeId from) const {
  std::vector<topo::NodeId> nodes;
  if (!canonical_path(from, nodes)) return std::nullopt;
  return nodes;
}

bool DynamicSpt::canonical_path(topo::NodeId from,
                                std::vector<topo::NodeId>& nodes) const {
  nodes.assign(1, from);
  if (from == dst_) return true;
  if (dist_[from] == kInf) return false;
  topo::NodeId cur = from;
  while (cur != dst_) {
    const topo::NodeId next = canonical_next_hop(cur);
    if (next == topo::kInvalidNode) return false;
    nodes.push_back(next);
    cur = next;
    if (nodes.size() > topo_->node_count() + 1) {
      throw std::logic_error("DynamicSpt::canonical_path: walk did not reach " +
                             topo_->name(dst_) + " (inconsistent distances)");
    }
  }
  return true;
}

bool DynamicSpt::canonical_path_is(topo::NodeId from,
                                   const std::vector<topo::NodeId>& core) {
  if (dist_[from] == kInf) return false;
  if (memo_link_version_ != topo_->link_state_version()) {
    memo_link_version_ = topo_->link_state_version();
    ++memo_stamp_;
  }
  const auto next_hop = [this](topo::NodeId node) {
    if (next_hop_stamp_[node] != memo_stamp_) {
      next_hop_memo_[node] = canonical_next_hop(node);
      next_hop_stamp_[node] = memo_stamp_;
    }
    return next_hop_memo_[node];
  };
  // canonical_next_hop(dst_) is kInvalidNode, so a walk that reaches dst_
  // early (or starts there) never matches.
  topo::NodeId cur = from;
  for (const topo::NodeId expected : core) {
    if (next_hop(cur) != expected) return false;
    cur = expected;
  }
  return next_hop(cur) == dst_;
}

}  // namespace kar::ctrlplane
