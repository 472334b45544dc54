// NetworkObserver: turns the simulator's per-packet trace events and link
// state transitions into metrics and trace records.
//
// The observer is a passive sink: it owns no hooks itself. Callers forward
// sim::TraceEvent / link transitions into on_trace()/on_link_state(),
// composing freely with other consumers of the network's single trace hook
// (e.g. faultgen::InvariantChecker). install() is a convenience for the
// common case where the observer is the only consumer.
//
// Metric families (all prefixed kar_, tagged with the constant labels
// passed at construction):
//   kar_packets_injected_total / kar_packets_delivered_total
//   kar_hops_total
//   kar_deflections_total{switch="..."}   (per core switch)
//   kar_reencodes_total / kar_bounces_total
//   kar_drops_total{reason="..."}
//   kar_link_transitions_total{state="down"|"up"}
//   kar_delivery_latency_seconds / kar_delivery_hops   (histograms)
//   kar_dataplane_residue_cache_{hits,misses,evictions}_total
//     (registered here, incremented inline by the forwarding fast path —
//      see docs/performance.md)
//
// Trace records (when a TraceRecorder is attached):
//   kDeflection "deflect"  — per deflection, with out/in port and the KAR
//                            residue route_id mod switch_id at that switch;
//   kPacket     "drop"     — with the drop reason;
//   kController "reencode"/"bounce" — edge recovery actions;
//   kLink       "link-down"/"link-up" — topology transitions.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"

namespace kar::obs {

/// Sinks and knobs for a NetworkObserver. Both sinks are optional; a null
/// registry disables metrics, a null recorder disables trace records.
struct NetworkObserverOptions {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  Labels labels;            ///< Constant labels, e.g. {{"technique", "nip"}}.
  std::uint32_t tid = 0;    ///< Thread id stamped on trace records.
};

class NetworkObserver {
 public:
  /// The network must outlive the observer; metric handles for every core
  /// switch and drop reason are created eagerly here so the hot path does
  /// no registry lookups.
  NetworkObserver(sim::Network& network, NetworkObserverOptions options);

  /// Feeds one packet trace event (call from the network's trace hook).
  void on_trace(const sim::TraceEvent& event);

  /// Feeds one link transition (call from the network's link-state hook).
  void on_link_state(topo::LinkId link, bool up);

  /// Installs both hooks directly on the network. Only valid when no other
  /// consumer needs them; otherwise compose manually.
  void install();

 private:
  sim::Network* net_;
  TraceRecorder* trace_;
  std::uint32_t tid_;

  Counter injected_;
  Counter delivered_;
  Counter hops_;
  Counter reencodes_;
  Counter bounces_;
  Counter link_down_;
  Counter link_up_;
  Histogram delivery_latency_;
  Histogram delivery_hops_;
  std::unordered_map<topo::NodeId, Counter> deflections_by_switch_;
  std::unordered_map<std::uint8_t, Counter> drops_by_reason_;
};

}  // namespace kar::obs
