// The reconvergence engine: the layer between the static routing::Controller
// and sim::Network that keeps a RouteStore consistent with a changing
// topology.
//
// On an event epoch it
//   1. advances every per-destination DynamicSpt through the epoch's link
//      changes, collecting the nodes whose distance moved;
//   2. assembles the affected candidate set from the store's indexes —
//      routes referencing an event link, routes choosing a next hop at a
//      *repaired* link's endpoints (the equal-cost tie-flip case), routes
//      whose path contains a node whose distance *increased* (failures),
//      and routes depending on a node whose distance *decreased*
//      (repairs — a decrease can steal an argmin anywhere next door);
//   3. re-extracts each candidate group's canonical path from its SPT —
//      the store keeps route state once per (src, dst) endpoint group,
//      since routes sharing endpoints share paths and encodings — and only
//      when the path actually differs re-encodes (primary + cached
//      driven-deflection protection, both memoised on the static topology)
//      and installs into the group once, stamped with the new epoch
//      version; every member reads it through its group.
// Every route outside the candidate set provably keeps its canonical path
// (docs/ctrlplane.md walks the superset argument), so skipping it is safe.
// The full-recompute reference in tests/support/full_recompute.hpp — fresh
// SPTs, every group, no memo — holds the engine to identical outputs in
// tests/test_ctrlplane_differential.cpp.
//
// Protection is planned on the *intended* topology (the planner ignores
// failures, mirroring the paper's controller), so a route's protection set
// is a pure function of (destination, primary core path) — the engine
// memoises it and never invalidates the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrlplane/hash_index.hpp"
#include "ctrlplane/route_store.hpp"
#include "ctrlplane/spt.hpp"
#include "obs/metrics.hpp"
#include "routing/controller.hpp"
#include "routing/protection.hpp"
#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// One link state transition inside an event epoch.
struct LinkChange {
  topo::LinkId link = topo::kInvalidLink;
  bool up = false;
};

/// Engine knobs.
struct EngineConfig {
  routing::PathMetric metric = routing::PathMetric::kHopCount;
  /// Plan driven-deflection protection for every primary path (memoised);
  /// false encodes bare primary paths.
  bool plan_protection = true;
  routing::PlannerOptions planner;
  /// Affected-subtree size beyond which a DynamicSpt delete falls back to
  /// a full Dijkstra rebuild. 0 = auto (node_count / 4, at least 8).
  std::size_t spt_fallback_threshold = 0;
};

/// Per-epoch accounting.
struct EpochStats {
  std::size_t events = 0;        ///< Link changes in the epoch.
  /// Affected-superset size examined this epoch, in endpoint groups.
  std::size_t candidates = 0;
  std::size_t reencoded = 0;     ///< Groups freshly encoded.
  std::size_t withdrawn = 0;     ///< Groups that went dead.
  std::size_t installed = 0;     ///< Routes admitted this epoch.
  std::size_t tombstoned = 0;    ///< Routes withdrawn by request (hidden).
  std::size_t spt_fallbacks = 0; ///< Dynamic-SPT full-rebuild escapes.
  std::size_t spt_dirty = 0;     ///< Sum of per-SPT dirty node counts.
  double wall_s = 0.0;
  /// Wall time per phase, together <= wall_s: SPT advance with the
  /// distance sweep, link sweep and candidate merge, group reconvergence,
  /// admissions and withdrawals.
  double spt_s = 0.0;
  double merge_s = 0.0;
  double reconverge_s = 0.0;
  double admission_s = 0.0;
};

/// Outcome of one apply(): the new table version and the changed groups.
struct EpochResult {
  std::uint64_t version = 0;
  /// Groups whose shared state (liveness, path, encoding) changed this
  /// epoch, ascending — re-encoded, died, or admitted live for the first
  /// time. Every member of a listed group changed with it; admissions into
  /// existing groups and tombstones are per-route and not listed.
  std::vector<GroupId> changed;
  EpochStats stats;
};

class ReconvergenceEngine {
 public:
  /// Both references must outlive the engine; the store must be driven
  /// exclusively through this engine.
  ReconvergenceEngine(const topo::Topology& topology, RouteStore& store,
                      EngineConfig config = {});

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const RouteStore& store() const noexcept { return *store_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Registers kar_ctrlplane_* metric families on `registry` and binds the
  /// engine's handles to them (reconvergence-latency histogram, per-phase
  /// cumulative-seconds gauges, affected / updated per-epoch histograms,
  /// event/re-encode/fallback counters, stored-route gauge).
  void attach_metrics(obs::MetricsRegistry& registry,
                      const obs::Labels& labels = {});

  /// Adds a route for (src, dst) and converges it against the current
  /// topology state. Throws std::invalid_argument when the endpoints are
  /// not edge nodes.
  RouteKey add_route(topo::NodeId src, topo::NodeId dst);

  /// Computes — without installing — the canonical encoding for (src, dst)
  /// on the current topology state (the daemon's `encode` verb). Returns
  /// false when no usable path exists. Shares the SPT and memo caches, so
  /// it must be serialized with apply() by the caller. Throws
  /// std::invalid_argument when the endpoints are not edge nodes.
  bool preview(topo::NodeId src, topo::NodeId dst,
               routing::EncodedRoute& route_out,
               std::vector<topo::NodeId>& core_out);

  /// Applies one event epoch (the link states in the topology must already
  /// reflect every change) and reconverges the store.
  EpochResult apply(const std::vector<LinkChange>& events);

  /// The admission-batching seam (docs/daemon.md): applies link events,
  /// route admissions and withdrawals as ONE atomically-versioned epoch —
  /// a coalesced burst costs a single version bump and a single SPT
  /// advance. Order within the epoch: events, then installs (an admission
  /// into an existing group only joins it, since the group already
  /// converged against the post-event SPTs; one opening a new group
  /// converges it; each key is appended to `installed_keys` when
  /// non-null), then withdrawals (tombstones — the keys must be valid and
  /// not yet withdrawn; installs from this same epoch may be withdrawn).
  /// Endpoints of every install must already be validated as edge nodes.
  EpochResult apply(
      const std::vector<LinkChange>& events,
      const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
      const std::vector<RouteKey>& withdraws,
      std::vector<RouteKey>* installed_keys = nullptr);

  /// Adopts the epoch version recorded in a snapshot so versions keep
  /// ascending across a restart. Call once, before any apply()/add_route(),
  /// on an engine whose store was just restored (docs/daemon.md).
  void restore_version(std::uint64_t version) noexcept { version_ = version; }

  /// Builds the per-destination SPT for every destination in the store
  /// against the topology's *current* link states. Required after a
  /// snapshot restore, before the first apply(): add_route() normally
  /// creates each SPT at install time, so restored destinations have none,
  /// and an SPT created lazily inside apply() would be born on the
  /// post-event topology and miss that epoch's distance deltas — dead
  /// routes would never revive on repair (docs/daemon.md).
  void warm_spts();

  /// Running totals across every epoch so far (wall time included).
  [[nodiscard]] const EpochStats& totals() const noexcept { return totals_; }

 private:
  /// A memoised protection plan and the encoding it was first used in,
  /// whose primary assignments spell the plan's core path.
  struct PlanEntry {
    std::uint32_t encoding = 0;
    std::vector<std::pair<topo::NodeId, topo::NodeId>> plan;
  };

  /// Everything the engine keeps per destination: the dynamic SPT plus
  /// the protection and encoding memos (both keyed with the destination
  /// implicit). Neither memo stores its key path: a hit is verified
  /// against a memoised route's own primary assignments.
  struct DstState {
    std::unique_ptr<DynamicSpt> spt;
    /// Encoding memo: hash of (src, core path) -> position in `encodings`.
    /// On the static topology structure the encoding is a pure function of
    /// (src, dst, core path), so it is never invalidated: churn that flips
    /// a pair between a handful of alternate paths pays the CRT solve once
    /// per path.
    std::vector<routing::EncodedRoute> encodings;
    HashIndex encoding_index;
    /// Protection memo: hash of the core path -> position in `plans`
    /// (a pure function of the intended topology; never invalidated).
    std::vector<PlanEntry> plans;
    HashIndex plan_index;
    /// The planner's hop distances to the destination on the intended
    /// topology, computed on the first protection-memo miss.
    std::vector<double> planner_distances;
  };

  [[nodiscard]] std::size_t threshold() const;
  /// Finds or creates the destination's state.
  DstState& dst_state(topo::NodeId dst);
  /// Canonical core path for (src, dst) from the destination's SPT; false
  /// when no usable path exists (a route needs src + >= 1 switch + dst).
  bool extract_core(DstState& state, topo::NodeId src,
                    std::vector<topo::NodeId>& core);
  /// Finds or builds the memoised encoding of (src, dst, core).
  const routing::EncodedRoute& lookup_encoding(
      DstState& state, topo::NodeId src, topo::NodeId dst,
      const std::vector<topo::NodeId>& core);
  /// Decides and installs once for endpoint group `id`: extract its
  /// canonical path, and on a change re-encode or withdraw it.
  void reconverge_group(GroupId id, std::vector<GroupId>& changed,
                        EpochStats& stats);
  /// Registers one route and stamps it with the current version; a route
  /// opening a new group converges that group first.
  RouteKey admit(topo::NodeId src, topo::NodeId dst,
                 std::vector<GroupId>& changed, EpochStats& stats);
  const topo::Topology* topo_;
  RouteStore* store_;
  EngineConfig config_;
  routing::Controller controller_;
  std::unordered_map<topo::NodeId, std::unique_ptr<DstState>> dsts_;
  std::uint64_t version_ = 0;
  EpochStats totals_;
  /// Scratch reused across epochs: apply()'s candidate groups and
  /// per-event changed nodes, and a changed group's canonical path and
  /// core path.
  std::vector<GroupId> candidates_;
  std::vector<topo::NodeId> changed_nodes_;
  std::vector<topo::NodeId> path_scratch_;
  std::vector<topo::NodeId> core_scratch_;
  // Metric handles (inert until attach_metrics).
  obs::Counter events_total_;
  obs::Counter epochs_total_;
  obs::Counter reencodes_total_;
  obs::Counter withdrawals_total_;
  obs::Counter fallbacks_total_;
  obs::Gauge routes_gauge_;
  obs::Histogram reconvergence_seconds_;
  obs::Histogram affected_routes_;
  obs::Histogram updated_routes_;
  /// kar_ctrlplane_phase_seconds: totals() per EpochStats phase.
  obs::Gauge phase_spt_;
  obs::Gauge phase_merge_;
  obs::Gauge phase_reconverge_;
  obs::Gauge phase_admission_;
};

}  // namespace kar::ctrlplane
