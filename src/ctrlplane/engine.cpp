#include "ctrlplane/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "obs/profile.hpp"
#include "runner/fork_join.hpp"

namespace kar::ctrlplane {

ReconvergenceEngine::ReconvergenceEngine(const topo::Topology& topology,
                                         RouteStore& store, EngineConfig config)
    : topo_(&topology),
      store_(&store),
      config_(config),
      controller_(topology) {}

std::size_t ReconvergenceEngine::threshold() const {
  if (config_.spt_fallback_threshold != 0) return config_.spt_fallback_threshold;
  return std::max<std::size_t>(topo_->node_count() / 4, 8);
}

std::size_t ReconvergenceEngine::shard_count() const {
  if (config_.shards == 0) return runner::ThreadPool::default_threads();
  return std::max<std::size_t>(config_.shards, 1);
}

ReconvergenceEngine::DstState& ReconvergenceEngine::dst_state(
    topo::NodeId dst) {
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) {
    it = dsts_.emplace(dst, std::make_unique<DstState>()).first;
  }
  DstState& state = *it->second;
  if (!state.spt) {
    state.spt =
        std::make_unique<DynamicSpt>(*topo_, dst, config_.metric, threshold());
  }
  return state;
}

runner::ThreadPool& ReconvergenceEngine::pool(std::size_t shards) {
  // Shard 0 runs on the applying thread, so the pool backs shards - 1.
  if (!pool_ || pool_->size() < shards - 1) {
    pool_ = std::make_unique<runner::ThreadPool>(shards - 1);
  }
  return *pool_;
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
  phase_replay_ = phase("replay");
  phase_admission_ = phase("admission");
  affected_routes_ = registry.histogram(
      "kar_ctrlplane_affected_routes",
      "Candidate endpoint groups examined per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
  updated_routes_ = registry.histogram(
      "kar_ctrlplane_updated_routes", "Endpoint groups changed per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
}

const std::vector<std::pair<topo::NodeId, topo::NodeId>>&
ReconvergenceEngine::protection_for(DstState& state, topo::NodeId dst,
                                    const std::vector<topo::NodeId>& core_path) {
  static const std::vector<std::pair<topo::NodeId, topo::NodeId>> kNone;
  if (!config_.plan_protection) return kNone;
  auto it = state.protection.find(core_path);
  if (it == state.protection.end()) {
    it = state.protection
             .emplace(core_path,
                      routing::plan_driven_deflections(*topo_, core_path, dst,
                                                       config_.planner))
             .first;
  }
  return it->second;
}

bool ReconvergenceEngine::extract_core(DstState& state, topo::NodeId src,
                                       std::vector<topo::NodeId>& core) {
  const auto path = state.spt->canonical_path(src);
  // A usable route needs src + at least one core switch + dst.
  if (!path.has_value() || path->size() < 3) return false;
  core.assign(path->begin() + 1, path->end() - 1);
  return true;
}

const routing::EncodedRoute& ReconvergenceEngine::lookup_encoding(
    DstState& state, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& core) {
  auto cache_key = std::make_pair(src, core);
  auto it = state.encodings.find(cache_key);
  if (it == state.encodings.end()) {
    it = state.encodings
             .emplace(std::move(cache_key),
                      controller_.encode_path(src, core, dst,
                                              protection_for(state, dst, core)))
             .first;
  }
  return it->second;
}

void ReconvergenceEngine::reconverge_group(GroupId id,
                                           std::vector<GroupId>& changed,
                                           EpochStats& stats, ShardLog* log) {
  const RouteGroup& group = store_->group(id);
  DstState& state = dst_state(group.dst);
  std::vector<topo::NodeId> core;
  if (!extract_core(state, group.src, core)) {
    if (group.live) {
      store_->set_dead(id, version_, log);
      changed.push_back(id);
      ++stats.withdrawn;
    }
    return;
  }
  if (group.live && core == group.core_path) return;  // canonical path held
  routing::EncodedRoute encoded =
      config_.mode == EngineMode::kIncremental
          ? lookup_encoding(state, group.src, group.dst, core)
          : controller_.encode_path(group.src, core, group.dst,
                                    protection_for(state, group.dst, core));
  store_->set_encoding(id, std::move(core), std::move(encoded), version_, log);
  changed.push_back(id);
  ++stats.reencoded;
}

RouteKey ReconvergenceEngine::admit(topo::NodeId src, topo::NodeId dst,
                                    std::vector<GroupId>& changed,
                                    EpochStats& stats) {
  const RouteKey key = store_->add(src, dst);
  const GroupId id = store_->route(key).group;
  if (store_->group(id).members.size() == 1) {
    reconverge_group(id, changed, stats, nullptr);
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
  route_out = config_.mode == EngineMode::kIncremental
                  ? lookup_encoding(state, src, dst, core_out)
                  : controller_.encode_path(src, core_out, dst,
                                            protection_for(state, dst, core_out));
  return true;
}

void ReconvergenceEngine::warm_spts() {
  // Register every destination's state serially, then build the missing
  // SPTs — each an independent Dijkstra over the shared const topology —
  // across the shard pool. After a 1M-route snapshot restore this is the
  // dominant startup cost, and it parallelises embarrassingly.
  std::vector<std::pair<topo::NodeId, DstState*>> missing;
  for (const topo::NodeId dst : store_->destinations()) {
    std::unique_ptr<DstState>& slot = dsts_[dst];
    if (!slot) slot = std::make_unique<DstState>();
    if (!slot->spt) missing.emplace_back(dst, slot.get());
  }
  if (missing.empty()) return;
  const std::size_t shards = std::min(shard_count(), missing.size());
  const auto build = [&](std::size_t shard) {
    for (std::size_t i = shard; i < missing.size(); i += shards) {
      const auto& [dst, state] = missing[i];
      state->spt = std::make_unique<DynamicSpt>(*topo_, dst, config_.metric,
                                                threshold());
    }
  };
  if (shards <= 1) {
    build(0);
  } else {
    runner::fork_join(pool(shards), shards, build);
  }
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
    obs::SpanTimer timer(&stats.wall_s, trace_, "ctrlplane.apply");
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

    if (config_.mode == EngineMode::kFullRecompute) {
      for (const topo::NodeId dst : store_->destinations()) {
        dst_state(dst).spt->rebuild();
      }
      lap(stats.spt_s);
      stats.candidates = store_->group_count();
      for (GroupId id = 0; id < store_->group_count(); ++id) {
        reconverge_group(id, result.changed, stats, nullptr);
      }
      lap(stats.reconverge_s);
    } else {
      std::vector<GroupId> merged;
      const auto& dsts = store_->destinations();
      const std::size_t shards =
          std::max<std::size_t>(1, std::min(shard_count(), dsts.size()));
      // Serial preamble: every destination gets its state (SPT + memos)
      // before any fork — forked phases look states up but never create
      // them, so the map is frozen while workers read it.
      for (const topo::NodeId dst : dsts) (void)dst_state(dst);

      /// Per-shard working set; shard s owns destinations s, s+shards, ...
      /// in first-appearance order.
      struct ShardScratch {
        std::vector<topo::NodeId> changed_nodes;
        std::vector<GroupId> swept;       // phase A candidates
        std::vector<GroupId> candidates;  // phase C input
        std::vector<GroupId> changed;
        EpochStats stats;
        ShardLog log;
      };
      std::vector<ShardScratch> shard_scratch(shards);
      const auto forked = [&](const std::function<void(std::size_t)>& body) {
        if (shards == 1) {
          body(0);
        } else {
          runner::fork_join(pool(shards), shards, body);
        }
      };

      // Phase A (forked): advance each owned destination's SPT through the
      // epoch event by event, collecting groups (to that destination) that
      // depend on a moved distance. The event direction bounds the sweep:
      // a repair only *decreases* distances, and a decrease at node n can
      // steal the argmin at any neighbor of n — so it takes the full
      // neighborhood dependency index. A failure only *increases*
      // distances, and a worsened candidate can only matter where it was
      // the one chosen — so only groups whose path contains the node need
      // the path index. (Masks are indexed against each group's
      // epoch-start path; the first event that changes a group's path sees
      // those masks still valid, which is enough for the superset argument
      // — see docs/ctrlplane.md.) Every structure touched — the SPT, the
      // destination's posting slabs, the indexed groups' masks — belongs
      // to the shard's own destinations.
      if (!events.empty()) {
        forked([&](std::size_t shard) {
          ShardScratch& sc = shard_scratch[shard];
          for (std::size_t i = shard; i < dsts.size(); i += shards) {
            const topo::NodeId dst = dsts[i];
            DynamicSpt& spt = *dsts_.find(dst)->second->spt;
            for (const LinkChange& event : events) {
              sc.changed_nodes.clear();
              const SptUpdateStats s =
                  spt.apply_link_event(event.link, event.up, sc.changed_nodes);
              sc.stats.spt_dirty += s.dirty;
              if (s.fallback) ++sc.stats.spt_fallbacks;
              std::sort(sc.changed_nodes.begin(), sc.changed_nodes.end());
              sc.changed_nodes.erase(
                  std::unique(sc.changed_nodes.begin(), sc.changed_nodes.end()),
                  sc.changed_nodes.end());
              for (const topo::NodeId node : sc.changed_nodes) {
                if (event.up) {
                  store_->collect_node_dependents(node, dst, sc.swept);
                } else {
                  store_->collect_path_dependents(node, dst, sc.swept);
                }
              }
            }
          }
        });
      }
      lap(stats.spt_s);
      // Phase B (serial): groups whose encoding references an event link;
      // for link-up events additionally every group choosing a next hop at
      // an endpoint — a repaired link can appear as a new equal-cost
      // candidate there and flip the tie-break without moving any
      // distance. (A link-down needs no endpoint sweep: removing a
      // candidate only changes an argmin if it *was* the argmin, i.e. the
      // link was on the chosen path and is in the link index.) Then merge
      // every shard's phase-A candidates and canonicalise: sort + unique
      // makes the group list identical at every shard width.
      for (const LinkChange& event : events) {
        store_->collect_link_dependents(event.link, merged);
        if (event.up) {
          const topo::Link& link = topo_->link(event.link);
          store_->collect_path_dependents(link.a.node, merged);
          store_->collect_path_dependents(link.b.node, merged);
        }
      }
      for (const ShardScratch& sc : shard_scratch) {
        merged.insert(merged.end(), sc.swept.begin(),
                              sc.swept.end());
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(
          std::unique(merged.begin(), merged.end()),
          merged.end());
      stats.candidates = merged.size();
      // Route each candidate group to the shard owning its destination.
      if (shards == 1) {
        shard_scratch[0].candidates.swap(merged);
      } else {
        std::vector<std::uint32_t> owner(topo_->node_count(), 0);
        for (std::size_t i = 0; i < dsts.size(); ++i) {
          owner[dsts[i]] = static_cast<std::uint32_t>(i % shards);
        }
        for (const GroupId id : merged) {
          shard_scratch[owner[store_->group(id).dst]].candidates.push_back(id);
        }
      }
      lap(stats.merge_s);
      // Phase C (forked): reconverge once per endpoint group — the
      // decision (extract core, memo-encode, install or withdraw) reads
      // only the group's own SPT, memos and state, all owned by this
      // shard; side effects on cross-shard structures are buffered in the
      // shard's log.
      forked([&](std::size_t shard) {
        ShardScratch& sc = shard_scratch[shard];
        for (const GroupId id : sc.candidates) {
          reconverge_group(id, sc.changed, sc.stats, &sc.log);
        }
      });
      lap(stats.reconverge_s);
      // Serial epilogue: replay the shard logs and merge results in shard
      // order (the changed list is canonicalised by the sort below).
      for (ShardScratch& sc : shard_scratch) {
        store_->apply_shard_log(sc.log);
        result.changed.insert(result.changed.end(), sc.changed.begin(),
                              sc.changed.end());
        stats.reencoded += sc.stats.reencoded;
        stats.withdrawn += sc.stats.withdrawn;
        stats.spt_dirty += sc.stats.spt_dirty;
        stats.spt_fallbacks += sc.stats.spt_fallbacks;
      }
      lap(stats.replay_s);
    }

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
  totals_.replay_s += stats.replay_s;
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
  phase_replay_.set(totals_.replay_s);
  phase_admission_.set(totals_.admission_s);
  affected_routes_.observe(static_cast<double>(stats.candidates));
  updated_routes_.observe(static_cast<double>(result.changed.size()));
  return result;
}

std::vector<TraceHop> forwarding_trace(const topo::Topology& topology,
                                       const routing::EncodedRoute& route,
                                       std::size_t max_hops) {
  std::vector<TraceHop> trace;
  if (route.assignments.empty() || route.primary_count == 0) return trace;
  const topo::NodeId first = route.assignments.front().node;
  const auto uplink = topology.port_to(route.src_edge, first);
  if (!uplink.has_value()) return trace;
  trace.push_back(TraceHop{route.src_edge, *uplink});
  topo::NodeId cur = first;
  while (trace.size() <= max_hops &&
         topology.kind(cur) == topo::NodeKind::kCoreSwitch) {
    const topo::SwitchId id = topology.switch_id(cur);
    const auto port =
        static_cast<topo::PortIndex>(route.route_id.mod_u64(id));
    trace.push_back(TraceHop{cur, port});
    const auto next = topology.neighbor(cur, port);
    if (!next.has_value()) break;
    cur = *next;
  }
  return trace;
}

}  // namespace kar::ctrlplane
