#include "ctrlplane/engine.hpp"

#include <algorithm>
#include <chrono>

#include "obs/profile.hpp"
#include "routing/protection.hpp"

namespace kar::ctrlplane {

ReconvergenceEngine::ReconvergenceEngine(const topo::Topology& topology,
                                         RouteStore& store)
    : topo_(&topology),
      store_(&store),
      fallback_threshold_(std::max<std::size_t>(topology.node_count() / 4, 8)),
      controller_(topology) {}

ReconvergenceEngine::DstState& ReconvergenceEngine::dst_state(
    topo::NodeId dst) {
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) {
    it = dsts_.emplace(dst, std::make_unique<DstState>()).first;
  }
  DstState& state = *it->second;
  if (!state.spt) {
    state.spt = std::make_unique<DynamicSpt>(*topo_, dst, fallback_threshold_);
  }
  return state;
}

void ReconvergenceEngine::attach_metrics(obs::MetricsRegistry& registry,
                                         const obs::Labels& labels) {
  events_total_ = registry.counter("kar_ctrlplane_events_total",
                                   "Link state changes processed", labels);
  epochs_total_ = registry.counter("kar_ctrlplane_epochs_total",
                                   "Reconvergence epochs applied", labels);
  reencodes_total_ = registry.counter("kar_ctrlplane_reencodes_total",
                                      "Endpoint groups freshly encoded",
                                      labels);
  withdrawals_total_ = registry.counter(
      "kar_ctrlplane_withdrawals_total",
      "Endpoint groups withdrawn (no usable path)", labels);
  fallbacks_total_ =
      registry.counter("kar_ctrlplane_spt_fallbacks_total",
                       "Dynamic-SPT full-rebuild fallbacks", labels);
  routes_gauge_ =
      registry.gauge("kar_ctrlplane_routes", "Routes in the store", labels);
  reconvergence_seconds_ = registry.histogram(
      "kar_ctrlplane_reconvergence_seconds",
      "Wall time per reconvergence epoch",
      {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0},
      labels);
  const auto phase = [&](const char* name) {
    obs::Labels phase_labels = labels;
    phase_labels.emplace_back("phase", name);
    return registry.gauge("kar_ctrlplane_phase_seconds",
                          "Cumulative engine wall time per epoch phase",
                          phase_labels);
  };
  phase_spt_ = phase("spt");
  phase_merge_ = phase("merge");
  phase_reconverge_ = phase("reconverge");
  phase_admission_ = phase("admission");
  affected_routes_ = registry.histogram(
      "kar_ctrlplane_affected_routes",
      "Candidate endpoint groups examined per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
  updated_routes_ = registry.histogram(
      "kar_ctrlplane_updated_routes", "Endpoint groups changed per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
}

bool ReconvergenceEngine::extract_core(DstState& state, topo::NodeId src,
                                       std::vector<topo::NodeId>& core) {
  std::vector<topo::NodeId>& path = path_scratch_;
  // A usable route needs src + at least one core switch + dst.
  if (!state.spt->canonical_path(src, path) || path.size() < 3) return false;
  core.assign(path.begin() + 1, path.end() - 1);
  return true;
}

namespace {

std::uint64_t hash_path(const std::vector<topo::NodeId>& core) {
  std::uint64_t hash = core.size();
  for (const topo::NodeId node : core) hash = hash_mix(hash, node);
  return hash;
}

/// True iff `route`'s primary assignments are exactly `core`.
bool primary_is(const routing::EncodedRoute& route,
                const std::vector<topo::NodeId>& core) {
  if (route.primary_count != core.size()) return false;
  for (std::size_t i = 0; i < core.size(); ++i) {
    if (route.assignments[i].node != core[i]) return false;
  }
  return true;
}

}  // namespace

const routing::EncodedRoute& ReconvergenceEngine::lookup_encoding(
    DstState& state, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& core) {
  const std::uint64_t path_hash = hash_path(core);
  const std::uint64_t key = hash_mix(path_hash, src);
  const std::uint32_t hit =
      state.encoding_index.find(key, [&](std::uint32_t at) {
        const routing::EncodedRoute& route = state.encodings[at];
        return route.src_edge == src && primary_is(route, core);
      });
  if (hit != HashIndex::kNone) return state.encodings[hit];

  // Miss: plan protection (memoised per core path; the planner works on the
  // intended topology) and run the CRT.
  const auto at = static_cast<std::uint32_t>(state.encodings.size());
  const std::uint32_t known =
      state.plan_index.find(path_hash, [&](std::uint32_t p) {
        return primary_is(state.encodings[state.plans[p].encoding], core);
      });
  if (known != HashIndex::kNone) {
    state.encodings.push_back(
        controller_.encode_path(src, core, dst, state.plans[known].plan));
  } else {
    if (state.planner_distances.empty()) {
      state.planner_distances = routing::planner_distances(*topo_, dst);
    }
    std::vector<std::pair<topo::NodeId, topo::NodeId>> plan =
        routing::plan_driven_deflections(*topo_, core, dst,
                                         state.planner_distances);
    state.encodings.push_back(controller_.encode_path(src, core, dst, plan));
    state.plan_index.insert(path_hash,
                            static_cast<std::uint32_t>(state.plans.size()));
    state.plans.push_back(PlanEntry{at, std::move(plan)});
  }
  state.encoding_index.insert(key, at);
  return state.encodings[at];
}

void ReconvergenceEngine::reconverge_group(GroupId id,
                                           std::vector<GroupId>& changed,
                                           EpochStats& stats) {
  const RouteGroup& group = store_->group(id);
  DstState& state = dst_state(group.dst);
  // The common case, checked in place: the canonical path held.
  if (group.live && state.spt->canonical_path_is(group.src, group.core_path)) {
    return;
  }
  std::vector<topo::NodeId>& core = core_scratch_;
  if (!extract_core(state, group.src, core)) {
    if (group.live) {
      store_->set_dead(id, version_);
      changed.push_back(id);
      ++stats.withdrawn;
    }
    return;
  }
  store_->set_encoding(id, core,
                       lookup_encoding(state, group.src, group.dst, core),
                       version_);
  changed.push_back(id);
  ++stats.reencoded;
}

RouteKey ReconvergenceEngine::admit(topo::NodeId src, topo::NodeId dst,
                                    std::vector<GroupId>& changed,
                                    EpochStats& stats) {
  const RouteKey key = store_->add(src, dst);
  const GroupId id = store_->route(key).group;
  if (store_->group(id).members.size() == 1) {
    reconverge_group(id, changed, stats);
  }
  store_->set_stamp(key, version_, !store_->group(id).live);
  return key;
}

bool ReconvergenceEngine::preview(topo::NodeId src, topo::NodeId dst,
                                  routing::EncodedRoute& route_out,
                                  std::vector<topo::NodeId>& core_out) {
  if (topo_->kind(src) != topo::NodeKind::kEdgeNode) {
    throw std::invalid_argument("preview: source " + topo_->name(src) +
                                " is not an edge node");
  }
  if (topo_->kind(dst) != topo::NodeKind::kEdgeNode) {
    throw std::invalid_argument("preview: destination " + topo_->name(dst) +
                                " is not an edge node");
  }
  DstState& state = dst_state(dst);
  if (!extract_core(state, src, core_out)) return false;
  route_out = lookup_encoding(state, src, dst, core_out);
  return true;
}

void ReconvergenceEngine::warm_spts() {
  // One Dijkstra per destination, serially. Restoring a 1M-route rnp28
  // snapshot (30 destinations; 4-core box, RelWithDebInfo) spends ~0.35 ms
  // here against ~0.1 s in daemon::restore_store; spreading the builds
  // over a 4-thread pool took ~0.6 ms.
  for (const topo::NodeId dst : store_->destinations()) (void)dst_state(dst);
}

RouteKey ReconvergenceEngine::add_route(topo::NodeId src, topo::NodeId dst) {
  std::vector<GroupId> changed;
  EpochStats scratch;
  const RouteKey key = admit(src, dst, changed, scratch);
  routes_gauge_.set(static_cast<double>(store_->size()));
  return key;
}

EpochResult ReconvergenceEngine::apply(const std::vector<LinkChange>& events) {
  return apply(events, {}, {}, nullptr);
}

EpochResult ReconvergenceEngine::apply(
    const std::vector<LinkChange>& events,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
    const std::vector<RouteKey>& withdraws,
    std::vector<RouteKey>* installed_keys) {
  EpochResult result;
  EpochStats& stats = result.stats;
  {
    obs::SpanTimer timer(&stats.wall_s);
    ++version_;
    result.version = version_;
    stats.events = events.size();
    // Phase clock: lap(x) charges the time since the previous lap to x.
    auto mark = std::chrono::steady_clock::now();
    const auto lap = [&mark](double& phase_s) {
      const auto now = std::chrono::steady_clock::now();
      phase_s += std::chrono::duration<double>(now - mark).count();
      mark = now;
    };

    // Advance each destination's SPT through the epoch event by event,
    // collecting groups (to that destination) that depend on a moved
    // distance. The event direction bounds the sweep: a repair only
    // *decreases* distances, and a decrease at node n can steal the argmin
    // at any neighbor of n — so it takes the full neighborhood dependency
    // index. A failure only *increases* distances, and a worsened
    // candidate can only matter where it was the one chosen — so only
    // groups whose path contains the node need the path index. (Masks are
    // indexed against each group's epoch-start path; the first event that
    // changes a group's path sees those masks still valid, which is enough
    // for the superset argument — see docs/ctrlplane.md.)
    // Scratch kept across epochs, so a warmed epoch whose candidates all
    // hold their paths allocates nothing per candidate.
    std::vector<GroupId>& candidates = candidates_;
    std::vector<topo::NodeId>& changed_nodes = changed_nodes_;
    candidates.clear();
    for (const topo::NodeId dst : store_->destinations()) {
      DynamicSpt& spt = *dst_state(dst).spt;
      for (const LinkChange& event : events) {
        changed_nodes.clear();
        const SptUpdateStats s =
            spt.apply_link_event(event.link, event.up, changed_nodes);
        stats.spt_dirty += s.dirty;
        if (s.fallback) ++stats.spt_fallbacks;
        std::sort(changed_nodes.begin(), changed_nodes.end());
        changed_nodes.erase(
            std::unique(changed_nodes.begin(), changed_nodes.end()),
            changed_nodes.end());
        for (const topo::NodeId node : changed_nodes) {
          if (event.up) {
            store_->collect_node_dependents(node, dst, candidates);
          } else {
            store_->collect_path_dependents(node, dst, candidates);
          }
        }
      }
    }
    lap(stats.spt_s);
    // Groups whose encoding references an event link; for link-up events
    // additionally every group choosing a next hop at an endpoint — a
    // repaired link can appear as a new equal-cost candidate there and
    // flip the tie-break without moving any distance. (A link-down needs
    // no endpoint sweep: removing a candidate only changes an argmin if it
    // *was* the argmin, i.e. the link was on the chosen path and is in the
    // link index.) Then sort + unique into one ascending group list.
    for (const LinkChange& event : events) {
      store_->collect_link_dependents(event.link, candidates);
      if (event.up) {
        const topo::Link& link = topo_->link(event.link);
        store_->collect_path_dependents(link.a.node, candidates);
        store_->collect_path_dependents(link.b.node, candidates);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    stats.candidates = candidates.size();
    lap(stats.merge_s);
    // Reconverge once per endpoint group: extract its core, memo-encode,
    // install or withdraw.
    for (const GroupId id : candidates) {
      reconverge_group(id, result.changed, stats);
    }
    lap(stats.reconverge_s);

    // Admissions converge against the post-event SPTs, under this epoch's
    // version; withdrawals last, so a key installed above can be
    // tombstoned in the same epoch.
    for (const auto& [src, dst] : installs) {
      const RouteKey key = admit(src, dst, result.changed, stats);
      if (installed_keys != nullptr) installed_keys->push_back(key);
      ++stats.installed;
    }
    for (const RouteKey key : withdraws) {
      store_->set_withdrawn(key, version_);
      ++stats.tombstoned;
    }
    std::sort(result.changed.begin(), result.changed.end());
    lap(stats.admission_s);
  }

  totals_.events += stats.events;
  totals_.candidates += stats.candidates;
  totals_.reencoded += stats.reencoded;
  totals_.withdrawn += stats.withdrawn;
  totals_.installed += stats.installed;
  totals_.tombstoned += stats.tombstoned;
  totals_.spt_fallbacks += stats.spt_fallbacks;
  totals_.spt_dirty += stats.spt_dirty;
  totals_.wall_s += stats.wall_s;
  totals_.spt_s += stats.spt_s;
  totals_.merge_s += stats.merge_s;
  totals_.reconverge_s += stats.reconverge_s;
  totals_.admission_s += stats.admission_s;

  events_total_.inc(stats.events);
  epochs_total_.inc();
  reencodes_total_.inc(stats.reencoded);
  withdrawals_total_.inc(stats.withdrawn);
  fallbacks_total_.inc(stats.spt_fallbacks);
  routes_gauge_.set(static_cast<double>(store_->size()));
  reconvergence_seconds_.observe(stats.wall_s);
  phase_spt_.set(totals_.spt_s);
  phase_merge_.set(totals_.merge_s);
  phase_reconverge_.set(totals_.reconverge_s);
  phase_admission_.set(totals_.admission_s);
  affected_routes_.observe(static_cast<double>(stats.candidates));
  updated_routes_.observe(static_cast<double>(result.changed.size()));
  return result;
}

}  // namespace kar::ctrlplane
