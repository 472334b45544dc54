#include "support/full_recompute.hpp"

#include <algorithm>
#include <chrono>

#include "routing/protection.hpp"

namespace kar::testsupport {

using ctrlplane::EpochResult;
using ctrlplane::EpochStats;
using ctrlplane::GroupId;
using ctrlplane::RouteKey;

FullRecomputeReference::FullRecomputeReference(const topo::Topology& topology,
                                               ctrlplane::RouteStore& store,
                                               ctrlplane::EngineConfig config)
    : topo_(&topology), store_(&store), config_(config), controller_(topology) {}

const ctrlplane::DynamicSpt& FullRecomputeReference::spt(topo::NodeId dst) {
  std::unique_ptr<ctrlplane::DynamicSpt>& slot = spts_[dst];
  if (!slot) {
    slot = std::make_unique<ctrlplane::DynamicSpt>(
        *topo_, dst, config_.metric, config_.spt_fallback_threshold);
  }
  return *slot;
}

void FullRecomputeReference::reconverge(GroupId id,
                                        std::vector<GroupId>& changed,
                                        EpochStats& stats) {
  const ctrlplane::RouteGroup& group = store_->group(id);
  const auto path = spt(group.dst).canonical_path(group.src);
  // A usable route needs src + at least one core switch + dst.
  if (!path.has_value() || path->size() < 3) {
    if (group.live) {
      store_->set_dead(id, version_);
      changed.push_back(id);
      ++stats.withdrawn;
    }
    return;
  }
  std::vector<topo::NodeId> core(path->begin() + 1, path->end() - 1);
  if (group.live && core == group.core_path) return;
  const auto protection =
      config_.plan_protection
          ? routing::plan_driven_deflections(*topo_, core, group.dst,
                                             config_.planner)
          : std::vector<std::pair<topo::NodeId, topo::NodeId>>{};
  routing::EncodedRoute encoded =
      controller_.encode_path(group.src, core, group.dst, protection);
  store_->set_encoding(id, core, encoded, version_);
  changed.push_back(id);
  ++stats.reencoded;
}

RouteKey FullRecomputeReference::admit(topo::NodeId src, topo::NodeId dst,
                                       std::vector<GroupId>& changed,
                                       EpochStats& stats) {
  const RouteKey key = store_->add(src, dst);
  const GroupId id = store_->route(key).group;
  if (store_->group(id).members.size() == 1) reconverge(id, changed, stats);
  store_->set_stamp(key, version_, !store_->group(id).live);
  return key;
}

RouteKey FullRecomputeReference::add_route(topo::NodeId src, topo::NodeId dst) {
  std::vector<GroupId> changed;
  EpochStats scratch;
  return admit(src, dst, changed, scratch);
}

EpochResult FullRecomputeReference::apply(
    const std::vector<ctrlplane::LinkChange>& events) {
  return apply(events, {}, {}, nullptr);
}

EpochResult FullRecomputeReference::apply(
    const std::vector<ctrlplane::LinkChange>& events,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
    const std::vector<RouteKey>& withdraws,
    std::vector<RouteKey>* installed_keys) {
  const auto start = std::chrono::steady_clock::now();
  EpochResult result;
  EpochStats& stats = result.stats;
  result.version = ++version_;
  stats.events = events.size();
  spts_.clear();
  stats.candidates = store_->group_count();
  for (GroupId id = 0; id < store_->group_count(); ++id) {
    reconverge(id, result.changed, stats);
  }
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
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
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

}  // namespace kar::testsupport
