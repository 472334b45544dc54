// Runtime invariant checking for the KAR simulation loop.
//
// The checker consumes the per-packet trace stream of a sim::Network and
// asserts, while the simulation runs, the safety properties the paper's
// resilience claims rest on:
//
//   * hop budget    — no packet takes more than max_hops switch hops
//                     without being dropped with kTtlExceeded;
//   * NIP contract  — Not-the-Input-Port never forwards a packet back out
//                     the port it arrived on (Algorithm 1);
//   * port liveness — no switch forwards out a port whose failure has been
//                     detected (AVP/NIP deflect instead; kNone drops);
//   * residue match — every non-deflected hop follows the CRT-decoded
//                     residue, route_id mod switch_id (Eq. 3), computed
//                     naively; a deflection, or a kNone drop, happens only
//                     where that residue names no usable port (Hot-Potato
//                     walks exempt). So a passing run is the run the naive
//                     residue would have produced;
//   * lifecycle     — each injected packet has at most one terminal event
//                     (deliver or drop), and none after it;
//   * monotonicity  — trace timestamps never run backwards;
//   * conservation  — at end of run: injected == delivered + dropped +
//                     in-flight, cross-checked against NetworkCounters.
//
// Violations are recorded (never thrown) with the timestamp, packet and a
// human-readable detail line, so a campaign can report them alongside the
// run seed and a shrunk failure schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace kar::faultgen {

/// One detected invariant violation.
struct Violation {
  enum class Kind : std::uint8_t {
    kHopBudgetExceeded,
    kNipReturnedInputPort,
    kForwardOnDownPort,
    kResidueMismatch,
    kLifecycle,
    kTimeNonMonotonic,
    kConservation,
  };
  Kind kind;
  double time = 0.0;
  std::uint64_t packet_id = 0;  ///< 0 when not packet-specific.
  std::string detail;
};

[[nodiscard]] std::string_view to_string(Violation::Kind kind);

/// Checker knobs. Defaults mirror the network's own configuration; the
/// mutation override exists so tests can prove the checker actually fires
/// (set a hop budget below the real one and watch it detect the "bug").
struct InvariantConfig {
  /// Hop budget packets must respect (normally NetworkConfig::max_hops).
  std::uint32_t max_hops = 4096;
  /// Technique the core runs; enables the NIP contract check.
  dataplane::DeflectionTechnique technique =
      dataplane::DeflectionTechnique::kNotInputPort;
  /// False for the failover-FIB baseline, whose hops ignore the route ID.
  bool check_residue = true;
  /// Mutation hook: overrides max_hops for the check only. Used by the
  /// self-tests to verify detection and shrinking end to end.
  std::optional<std::uint32_t> hop_budget_override;
  /// Record at most this many violations (campaigns shrink on the first).
  std::size_t max_recorded = 64;
};

/// Streaming invariant checker; attach with
/// `network.set_trace_hook([&](const sim::TraceEvent& e) { checker.observe(e); })`.
class InvariantChecker {
 public:
  /// `network` must outlive the checker; its topology is consulted for
  /// switch IDs and detected link state.
  InvariantChecker(const sim::Network& network, InvariantConfig config);

  /// Consumes one trace event (invoked from the simulation loop).
  void observe(const sim::TraceEvent& event);

  /// Back to a new checker's state for the next run on the same network:
  /// no counts, no violations and no packet state (storage kept).
  void reset() noexcept;

  /// End-of-run checks. `queue_drained` says the event queue ran dry, in
  /// which case in-flight must be zero. Idempotent per run.
  void finish(bool queue_drained);

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }

  /// Packets injected but not yet delivered or dropped.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  void record(Violation::Kind kind, double time, std::uint64_t packet_id,
              std::string detail);
  struct PacketState {
    std::uint32_t hops = 0;
    bool in_flight = false;
    /// Hot-Potato: set on the packet's first deflected hop, cleared when
    /// an edge re-encodes it (a bounce keeps the walk going).
    bool walking = false;
  };

  /// The state of an in-flight packet, or nullptr.
  PacketState* live(std::uint64_t packet_id);

  /// Checks one hop of the in-flight packet whose state is `state`.
  void check_hop(const sim::TraceEvent& event, PacketState& state);

  /// Holds a core-switch hop or drop to the naive residue: a `followed`
  /// hop must take the residue port, anything else must find it unusable
  /// (out of range, detected down, or the input port under NIP).
  void check_residue(const sim::TraceEvent& event, bool followed);

  const sim::Network* net_;
  InvariantConfig config_;
  std::uint32_t hop_budget_;
  std::vector<Violation> violations_;
  /// Indexed by packet id: sim::Network numbers its packets 1, 2, ...
  std::vector<PacketState> packets_;
  std::size_t in_flight_ = 0;
  double last_time_ = 0.0;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace kar::faultgen
