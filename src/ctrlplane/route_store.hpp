// The control plane's route table: every encoded KAR route (primary path +
// driven-deflection protection + CRT route ID) plus the inverted indexes the
// incremental engine needs to answer "which routes can a link event touch?"
// without scanning the table.
//
// Routes sharing (src, dst) share one canonical path, hence one encoding,
// so state is stored once per such *endpoint group* (RouteGroup) and a
// route is only {group, tombstone, own version stamp}: a link epoch costs
// O(changed groups), whatever the group sizes (docs/ctrlplane.md).
//
// Index invariants (docs/ctrlplane.md) — every posting holds group ids:
//   * link index — a live group is reachable from every link its encoding
//     references: each primary-path hop, the source edge's uplink, and every
//     driven-deflection protection edge (assignment port -> link);
//   * dependency index — a group is reachable from every node whose distance
//     field or incident-link set its canonical path selection reads: the
//     source edge, every primary-path node, and all their neighbors (a dead
//     group keeps only its source edge, whose distance turning finite is the
//     only event that can revive it);
//   * path index — a group is reachable from every node where its canonical
//     next hop is chosen ({src} ∪ core path; {src} when dead): a link-up
//     event can flip an equal-cost tie at its endpoints without moving any
//     distance, and a distance *increase* (link failure) only matters to
//     groups whose chosen path runs through the worsened node — in both
//     cases only groups actually choosing there;
//   * node and path postings are bucketed by destination: the engine's
//     distance-change sweep runs per destination SPT, and a flat posting
//     would make every sweep scan (then discard) the other destinations'
//     groups — a |destinations|-fold overscan at scale. The buckets are
//     slabs owned by the destination (one posting vector per node);
//   * append order within a posting is not observable — every consumer
//     sorts or dedups;
//   * postings are append-only with lazy compaction: a lookup filters stale
//     entries against the group's current link set / dependency mask and
//     rewrites the posting list when more than half of it was stale.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "routing/encoded_route.hpp"
#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// Dense route handle: the i-th added route has key i.
using RouteKey = std::uint64_t;
/// Dense endpoint-group handle: the i-th distinct (src, dst) added has id i.
using GroupId = std::uint32_t;

/// Fixed-capacity bitset over NodeIds (the store sizes it to the topology).
class NodeMask {
 public:
  NodeMask() = default;
  explicit NodeMask(std::size_t bits) : words_((bits + 63) / 64) {}

  void set(std::size_t bit) { words_[bit >> 6] |= std::uint64_t{1} << (bit & 63); }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }
  [[nodiscard]] bool intersects(const NodeMask& other) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }
  void clear() { words_.assign(words_.size(), 0); }

  /// Calls `fn(bit)` for every bit set here but not in `other` (which must
  /// have the same capacity), ascending.
  template <typename Fn>
  void for_each_not_in(const NodeMask& other, Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t masked =
          words_[w] & (w < other.words_.size() ? ~other.words_[w]
                                               : ~std::uint64_t{0});
      for (std::uint64_t bits = masked; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Everything routes with the same (src, dst) share. `route` is meaningful
/// only while `live` is true; a dead group (no usable path) keeps its
/// endpoints and revives on repair.
struct RouteGroup {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  bool live = false;
  /// Update epoch that last changed liveness, path or encoding (0 = never).
  std::uint64_t version = 0;
  routing::EncodedRoute route;
  /// The primary core path (switch handles, ingress to egress) the current
  /// encoding was built from; empty when dead. Two encodings over the same
  /// (src, dst, core path) are identical, so this is the change detector.
  std::vector<topo::NodeId> core_path;
  /// Dependency node set (see file comment).
  NodeMask deps;
  /// Path membership: {src} ∪ core_path ({src} alone when dead). A strict
  /// subset of `deps` — the canonical next hop is *chosen at* these nodes,
  /// so only they read the state of their incident links.
  NodeMask path_nodes;
  /// Sorted link handles the current encoding references.
  std::vector<topo::LinkId> links;
  /// Keys of the group's routes, ascending (withdrawn ones included).
  std::vector<RouteKey> members;
};

/// One stored route: its group plus what is the route's own.
struct StoredRoute {
  GroupId group = 0;
  /// Tombstone: withdrawn by an operator and hidden from clients. Keys are
  /// dense and never reused, so the slot (and its group membership)
  /// remains; `withdrawn` is a pure visibility flag (docs/daemon.md).
  bool withdrawn = false;
  /// Admitted while its group was dead; cleared by a withdrawal.
  bool admitted_dead = false;
  /// Admission (or withdrawal) epoch; RouteStore::get() has the rule.
  std::uint64_t stamp = 0;
};

/// Read-only view of one route: the route's own fields joined with its
/// group's. The references point into the store and are invalidated by
/// the next add().
struct RouteView {
  RouteKey key;
  GroupId group;
  topo::NodeId src, dst;
  bool live, withdrawn;
  std::uint64_t version;
  const routing::EncodedRoute& route;
  const std::vector<topo::NodeId>& core_path;
};

/// Owns the routes, their groups and the inverted indexes. Mutation goes
/// through the engine: add() registers a route (creating its group dead on
/// first sight of the endpoints), set_encoding()/set_dead() swap in a
/// group's reconverged state and reindex it.
class RouteStore {
 public:
  /// The topology reference is used to derive dependency sets and link
  /// handles at (re)index time; it must outlive the store, and its node
  /// set must not change.
  explicit RouteStore(const topo::Topology& topology);

  /// Registers a route for (src, dst) in that pair's group, creating the
  /// group (dead) if the pair is new. Keys are dense and returned in
  /// insertion order; the route starts with stamp 0.
  RouteKey add(topo::NodeId src, topo::NodeId dst);

  [[nodiscard]] std::size_t size() const noexcept { return routes_.size(); }
  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] const StoredRoute& route(RouteKey key) const { return routes_[key]; }
  [[nodiscard]] const RouteGroup& group(GroupId id) const { return groups_[id]; }
  /// A route's reported version is the later of its own stamp and its
  /// group's change version — except that a route admitted into a dead
  /// group reports 0 until the group changes after its admission.
  [[nodiscard]] RouteView get(RouteKey key) const {
    const StoredRoute& r = routes_[key];
    const RouteGroup& g = groups_[r.group];
    const std::uint64_t version =
        r.admitted_dead ? (g.version > r.stamp ? g.version : 0)
                        : std::max(r.stamp, g.version);
    return RouteView{key,     r.group, g.src,   g.dst,      g.live,
                     r.withdrawn, version, g.route, g.core_path};
  }

  /// Routes currently live (their group has a usable path installed).
  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  /// Routes tombstoned by set_withdrawn().
  [[nodiscard]] std::size_t withdrawn_count() const noexcept { return withdrawn_; }

  /// Destination edges with at least one route, first-appearance order.
  [[nodiscard]] const std::vector<topo::NodeId>& destinations() const noexcept {
    return destinations_;
  }

  /// Installs a fresh encoding for group `id` (computed from `core_path`)
  /// and reindexes it. Both are copied into the group's existing buffers,
  /// so a warmed group reinstalls without allocating.
  void set_encoding(GroupId id, const std::vector<topo::NodeId>& core_path,
                    const routing::EncodedRoute& route, std::uint64_t version);

  /// Marks group `id` dead (no usable path) and shrinks its index
  /// footprint to the revive trigger (the source edge's distance).
  void set_dead(GroupId id, std::uint64_t version);

  /// Sets `key`'s own version stamp (see StoredRoute): the engine stamps
  /// an admission with its epoch, a snapshot restore replays the recorded
  /// stamp.
  void set_stamp(RouteKey key, std::uint64_t stamp, bool admitted_dead);

  /// Tombstones `key`: hides it from clients without touching its group.
  /// Callers reject double-withdrawal before reaching the store.
  void set_withdrawn(RouteKey key, std::uint64_t version);

  /// Eager sweep of every posting list: drops entries whose group no longer
  /// carries the indexed link/node in its current footprint (the same
  /// predicate the lazy per-lookup compaction applies), then sorts and
  /// dedups each rewritten list. Intended for idle windows between epochs
  /// (the daemon's background compaction); returns entries dropped.
  std::size_t compact_postings();

  /// Appends every group whose current encoding references `link`. May
  /// append a group more than once; callers dedup.
  void collect_link_dependents(topo::LinkId link, std::vector<GroupId>& out) const;

  /// Appends every group to `dst` whose dependency set contains `node`;
  /// the overload without `dst` spans every destination.
  void collect_node_dependents(topo::NodeId node, topo::NodeId dst,
                               std::vector<GroupId>& out) const;
  void collect_node_dependents(topo::NodeId node, std::vector<GroupId>& out) const;

  /// Appends every group (to `dst`, or to any destination) whose path
  /// membership set ({src} ∪ core path) contains `node`. Only these groups
  /// choose a next hop at `node`, so only they can be flipped by an
  /// equal-cost candidate appearing on one of `node`'s links without any
  /// distance moving (the link-up tie case) or by `node`'s own distance
  /// increasing (the link-failure case — a worsened candidate only
  /// matters where it was the one chosen).
  void collect_path_dependents(topo::NodeId node, topo::NodeId dst,
                               std::vector<GroupId>& out) const;
  void collect_path_dependents(topo::NodeId node, std::vector<GroupId>& out) const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void reindex(RouteGroup& group, GroupId id);

  /// Every node/path posting for groups to one destination, as a slab the
  /// destination owns (vectors indexed by NodeId), born in add().
  struct DstPostings {
    std::vector<std::vector<GroupId>> node;
    std::vector<std::vector<GroupId>> path;
  };

  const topo::Topology* topo_;
  std::vector<StoredRoute> routes_;
  std::vector<RouteGroup> groups_;
  std::vector<topo::NodeId> destinations_;
  /// Edge ordinal by NodeId (kNone for switches), and the dense
  /// (src ordinal, dst ordinal) -> group table.
  std::vector<std::uint32_t> edge_ordinal_;
  std::size_t edge_count_ = 0;
  std::vector<GroupId> group_of_pair_;
  // Postings by LinkId and per-destination slabs indexed by NodeId; lazily
  // compacted (see file comment).
  mutable std::vector<std::vector<GroupId>> link_index_;
  mutable std::vector<DstPostings> dst_postings_;
  std::size_t live_ = 0;
  std::size_t withdrawn_ = 0;
  /// reindex() builds a group's new footprint here and swaps it in, so the
  /// old footprint's buffers are reused by the next reindex.
  NodeMask scratch_deps_;
  NodeMask scratch_path_nodes_;
  std::vector<topo::LinkId> scratch_links_;
};

}  // namespace kar::ctrlplane
