// The "traditional approach" to failure reaction (paper §1): the data
// plane notifies the controller, the controller — after a notification +
// recomputation delay — recomputes failure-avoiding routes and pushes the
// fresh route IDs to the ingress edges. KAR's whole point is making this
// path unnecessary for liveness; implementing it turns the paper's
// motivation into a measurable baseline (bench/controller_reaction).
//
// The reaction path runs on ctrlplane::ReconvergenceEngine: link events
// reconverge only the affected route set, and only flows whose route
// actually changed see their update callback with the new encoding.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"

namespace kar::sim {

/// Watches link-state changes on a Network and, after a configurable
/// reaction delay, reconverges registered flows' routes on the surviving
/// topology and hands them to per-flow update callbacks.
class ReactiveController {
 public:
  /// `reaction_delay_s` models notification transport + controller
  /// processing + rule installation (the window in which in-flight traffic
  /// is lost when no data-plane protection exists).
  ReactiveController(Network& network, double reaction_delay_s);

  ~ReactiveController();

  ReactiveController(const ReactiveController&) = delete;
  ReactiveController& operator=(const ReactiveController&) = delete;

  using RouteUpdateHandler = std::function<void(const routing::EncodedRoute&)>;

  /// Registers a flow to keep routed: on every link event, a new shortest
  /// path from `src_edge` to `dst_edge` avoiding failed links is encoded
  /// and passed to `on_update` (not called when no route exists, nor when
  /// the flow's route is untouched by the event).
  void watch_flow(topo::NodeId src_edge, topo::NodeId dst_edge,
                  RouteUpdateHandler on_update);

  [[nodiscard]] std::uint64_t reactions() const noexcept { return reactions_; }
  [[nodiscard]] double reaction_delay_s() const noexcept { return delay_; }
  /// Routes the engine changed across all reactions (affected routes
  /// only, not every watched flow).
  [[nodiscard]] std::uint64_t route_recomputes() const noexcept {
    return recomputes_;
  }

 private:
  void on_link_event(topo::LinkId link, bool up);
  void react();

  struct WatchedFlow {
    topo::NodeId src;
    topo::NodeId dst;
    RouteUpdateHandler on_update;
  };

  Network* net_;
  double delay_;
  std::vector<WatchedFlow> flows_;
  /// The engine over the network's topology. Flow i is route key i (both
  /// are dense registration orders).
  ctrlplane::RouteStore store_;
  ctrlplane::ReconvergenceEngine engine_;
  std::vector<ctrlplane::LinkChange> pending_events_;
  std::uint64_t reactions_ = 0;
  std::uint64_t recomputes_ = 0;
  /// Fires react() one delay after the latest link event: re-armed by each
  /// event, so a burst of them coalesces into one reaction.
  EventQueue::TimerId reaction_timer_ = 0;
};

}  // namespace kar::sim
