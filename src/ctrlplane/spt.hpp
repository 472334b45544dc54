// Per-destination reverse shortest-path tree with incremental maintenance
// (Ramalingam–Reps-style dynamic SSSP, specialised to undirected KAR cores).
//
// The tree is rooted at one destination edge node and mirrors the exact
// semantics of routing::distances_to under the hop-count metric: every
// link costs 1 (the paper's "shortest path"), and edge nodes other than
// the destination never propagate relaxations (they terminate the KAR
// domain). On a link-down event only the *affected subtree* — the
// nodes whose tree path to the root crosses the dead link — is re-settled
// by a Dijkstra restricted to that subtree, seeded from its boundary; on a
// link-up event the new link's endpoints seed a relaxation cascade. When
// the affected subtree outgrows `fallback_threshold` the update falls back
// to a full rebuild (the classic dynamic-SSSP escape hatch: past a certain
// dirty-frontier size the incremental machinery costs more than Dijkstra).
//
// Path extraction is *canonical*, not tree-based: the next hop at u is the
// usable neighbor minimising cost(u,n) + d(n), ties broken toward the
// smaller NodeId. That makes the extracted path a pure function of the
// distance field and the link states — distances are unique whether they
// were maintained incrementally or rebuilt from scratch, so the engine and
// the full-recompute reference provably extract identical paths (the
// property tests/test_ctrlplane_differential.cpp checks end to end).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// Outcome of one incremental update.
struct SptUpdateStats {
  /// Nodes whose distance the update had to reconsider (the affected
  /// subtree on a delete; the improved set on an insert).
  std::size_t dirty = 0;
  /// True when the update gave up and rebuilt the whole tree.
  bool fallback = false;
};

class DynamicSpt {
 public:
  /// Builds the initial tree with a full Dijkstra over the topology's
  /// *current* link states. The topology must outlive the tree.
  DynamicSpt(const topo::Topology& topology, topo::NodeId destination,
             std::size_t fallback_threshold);

  [[nodiscard]] topo::NodeId destination() const noexcept { return dst_; }
  [[nodiscard]] double distance(topo::NodeId node) const { return dist_[node]; }
  [[nodiscard]] const std::vector<double>& distances() const noexcept {
    return dist_;
  }

  /// Full Dijkstra from scratch (also the fallback path).
  void rebuild();

  /// Applies one link state transition. The topology must already reflect
  /// the new state (call after set_link_up). Nodes whose distance changed
  /// are appended to `changed` (unordered, duplicate-free per call).
  SptUpdateStats apply_link_event(topo::LinkId link, bool up,
                                  std::vector<topo::NodeId>& changed);

  /// Canonical next hop from `from` toward the destination (see file
  /// comment); kInvalidNode when unreachable.
  [[nodiscard]] topo::NodeId canonical_next_hop(topo::NodeId from) const;

  /// Canonical node path `from -> ... -> destination` (endpoints included);
  /// nullopt when unreachable.
  [[nodiscard]] std::optional<std::vector<topo::NodeId>> canonical_path(
      topo::NodeId from) const;
  /// The same path written into `nodes` (replacing its contents, reusing
  /// its buffer); false when unreachable.
  bool canonical_path(topo::NodeId from, std::vector<topo::NodeId>& nodes) const;

  /// True iff canonical_path(from) is exactly `from`, `core`..., destination:
  /// the same walk, compared hop by hop in place, without building a path.
  /// Reads next hops through a memo (hence not const) that holds each
  /// node's canonical_next_hop until the tree is updated or the topology's
  /// link states change.
  [[nodiscard]] bool canonical_path_is(topo::NodeId from,
                                       const std::vector<topo::NodeId>& core);

 private:
  [[nodiscard]] bool propagates(topo::NodeId node) const;
  SptUpdateStats handle_insert(topo::LinkId link, std::vector<topo::NodeId>& changed);
  SptUpdateStats handle_delete(topo::LinkId link, std::vector<topo::NodeId>& changed);
  SptUpdateStats fallback_rebuild(std::vector<topo::NodeId>& changed);

  using HeapItem = std::pair<double, topo::NodeId>;

  const topo::Topology* topo_;
  topo::NodeId dst_;
  std::size_t threshold_;
  std::vector<double> dist_;
  /// Tree parent: the neighbor this node's settled distance came through
  /// (kInvalidNode at the root and unreachable nodes).
  std::vector<topo::NodeId> parent_;
  std::vector<topo::LinkId> parent_link_;
  // Scratch, reused across updates (epoch-stamped membership tests).
  std::vector<std::uint32_t> mark_;
  std::vector<std::uint8_t> affected_flag_;
  std::uint32_t epoch_ = 0;
  std::vector<double> old_dist_;
  /// The nodes an update reconsiders (insert: improved; delete: the
  /// affected subtree), a delete's parent-chain walk, and the Dijkstra
  /// heap every search drains to empty.
  std::vector<topo::NodeId> dirty_;
  std::vector<topo::NodeId> chain_;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  /// canonical_path_is's next-hop memo: an entry is valid while its stamp
  /// equals memo_stamp_, which every tree update and every topology
  /// link-state change (seen as a new link_state_version) advances.
  std::vector<topo::NodeId> next_hop_memo_;
  std::vector<std::uint64_t> next_hop_stamp_;
  std::uint64_t memo_stamp_ = 1;
  std::uint64_t memo_link_version_ = 0;
};

}  // namespace kar::ctrlplane
