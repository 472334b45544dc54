#include "sim/reactive_controller.hpp"

#include <algorithm>
#include <utility>

namespace kar::sim {

namespace {

// Bare shortest-path encodings, hop metric: route_between with no
// protection assignments.
ctrlplane::EngineConfig reaction_engine_config() {
  ctrlplane::EngineConfig config;
  config.plan_protection = false;
  return config;
}

}  // namespace

ReactiveController::ReactiveController(Network& network, double reaction_delay_s)
    : net_(&network),
      delay_(reaction_delay_s),
      store_(network.topology()),
      engine_(network.topology(), store_, reaction_engine_config()) {
  reaction_timer_ =
      net_->events().add_timer(EventKind::kLinkState, [this] { react(); });
  net_->set_link_state_hook(
      [this](topo::LinkId link, bool up) { on_link_event(link, up); });
}

ReactiveController::~ReactiveController() {
  net_->set_link_state_hook(nullptr);
  net_->events().remove_timer(reaction_timer_);
}

void ReactiveController::watch_flow(topo::NodeId src_edge, topo::NodeId dst_edge,
                                    RouteUpdateHandler on_update) {
  // Flow index == route key (both dense registration orders). The initial
  // encoding converges against the current topology; handlers only fire on
  // reactions.
  (void)engine_.add_route(src_edge, dst_edge);
  flows_.push_back(WatchedFlow{src_edge, dst_edge, std::move(on_update)});
}

void ReactiveController::on_link_event(topo::LinkId link, bool up) {
  pending_events_.push_back(ctrlplane::LinkChange{link, up});
  // A burst of simultaneous link events produces one reaction after the
  // delay (the controller batches what it learned).
  net_->events().arm_timer_at(reaction_timer_, net_->now() + delay_);
}

void ReactiveController::react() {
  ++reactions_;
  std::vector<ctrlplane::LinkChange> events = std::move(pending_events_);
  pending_events_.clear();
  const ctrlplane::EpochResult epoch = engine_.apply(events);
  // The engine reports changed endpoint groups; every member route (flow)
  // changed with its group. Keys ascend, as flows expect.
  std::vector<ctrlplane::RouteKey> updated;
  for (const ctrlplane::GroupId id : epoch.changed) {
    const auto& members = store_.group(id).members;
    updated.insert(updated.end(), members.begin(), members.end());
  }
  std::sort(updated.begin(), updated.end());
  recomputes_ += updated.size();
  // Only flows whose route actually changed (and still exists) hear about
  // it — the affected-set contract.
  for (const ctrlplane::RouteKey key : updated) {
    const ctrlplane::RouteView entry = store_.get(key);
    if (!entry.live) continue;
    const WatchedFlow& flow = flows_[key];
    if (flow.on_update) flow.on_update(entry.route);
  }
}

}  // namespace kar::sim
