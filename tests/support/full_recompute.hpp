// Full-recompute reference for ctrlplane::ReconvergenceEngine: the control
// plane's differential oracle.
//
// It drives a RouteStore through the engine's interface (add_route and both
// apply overloads) in the most obvious way. On every epoch it builds each
// destination's DynamicSpt fresh from the topology's current link states,
// walks every endpoint group, extracts its canonical path, and — when the
// path moved — encodes it from scratch with routing::Controller::encode_path
// and routing::plan_driven_deflections. There is no memo, no candidate set
// and no index lookup, and the store is written only through its public
// mutators. Versions, changed-group lists, stamps and the order of events,
// admissions and withdrawals follow the engine's contract
// (ctrlplane/engine.hpp), so tests/test_ctrlplane_differential.cpp compares
// the two epoch by epoch. forwarding_trace() walks an encoding the way a
// healthy data plane would, so two tables can be compared hop by hop.
//
// Test infrastructure, but bench/churn_convergence times it as the baseline
// of its --min-speedup gate, so it builds without gtest and without the
// tests/ tree (target kar_ctrlplane_reference).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "ctrlplane/spt.hpp"
#include "routing/controller.hpp"
#include "topology/graph.hpp"

namespace kar::testsupport {

class FullRecomputeReference {
 public:
  /// Both references must outlive the reference engine; the store must be
  /// driven only through it. `config` is read as the engine reads it.
  FullRecomputeReference(const topo::Topology& topology,
                         ctrlplane::RouteStore& store,
                         ctrlplane::EngineConfig config = {});

  /// ReconvergenceEngine::add_route.
  ctrlplane::RouteKey add_route(topo::NodeId src, topo::NodeId dst);

  /// ReconvergenceEngine::apply: one epoch of link changes (the topology
  /// must already reflect them). Every group counts as a candidate.
  ctrlplane::EpochResult apply(const std::vector<ctrlplane::LinkChange>& events);

  /// ReconvergenceEngine::apply with admissions and withdrawals: events,
  /// then installs, then withdrawals, as one versioned epoch.
  ctrlplane::EpochResult apply(
      const std::vector<ctrlplane::LinkChange>& events,
      const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
      const std::vector<ctrlplane::RouteKey>& withdraws,
      std::vector<ctrlplane::RouteKey>* installed_keys = nullptr);

 private:
  /// The destination's SPT for this epoch, built on first use.
  const ctrlplane::DynamicSpt& spt(topo::NodeId dst);
  void reconverge(ctrlplane::GroupId id, std::vector<ctrlplane::GroupId>& changed,
                  ctrlplane::EpochStats& stats);
  ctrlplane::RouteKey admit(topo::NodeId src, topo::NodeId dst,
                            std::vector<ctrlplane::GroupId>& changed,
                            ctrlplane::EpochStats& stats);

  const topo::Topology* topo_;
  ctrlplane::RouteStore* store_;
  ctrlplane::EngineConfig config_;
  routing::Controller controller_;
  std::uint64_t version_ = 0;
  /// SPTs built since the current epoch began; apply() drops them all.
  std::unordered_map<topo::NodeId, std::unique_ptr<ctrlplane::DynamicSpt>>
      spts_;
};

/// One hop of a pure modulo walk over an encoded route.
struct TraceHop {
  topo::NodeId node = topo::kInvalidNode;
  topo::PortIndex port = 0;

  friend bool operator==(const TraceHop&, const TraceHop&) = default;
};

/// The control-plane semantics of an encoding: starting at the source
/// edge's uplink, apply route_id mod switch_id at every core switch,
/// ignoring link state and deflection. Stops on reaching an edge node, a
/// dead end, or after `max_hops`. Used by the differential suites to prove
/// two route tables forward identically.
[[nodiscard]] std::vector<TraceHop> forwarding_trace(
    const topo::Topology& topology, const routing::EncodedRoute& route,
    std::size_t max_hops = 64);

}  // namespace kar::testsupport
