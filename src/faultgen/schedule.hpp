// Seeded, reproducible link-failure schedules for adversarial campaigns.
//
// A schedule is a flat, time-sorted list of link fail/repair events that a
// campaign replays against a sim::Network. Four generator families cover
// the failure processes the resilience literature evaluates against
// (Chiesa et al., arXiv:1409.0034; Huang et al., arXiv:1603.01708):
//
//   * kRandomUpDown   — each eligible link independently fails at random
//                       times and stays down for a random holding time;
//   * kSrlgGroups     — shared-risk link groups: random sets of links fail
//                       (and repair) together, modelling fiber cuts;
//   * kFlapping       — a few links oscillate up/down on a short period,
//                       the worst case for detection-delay race conditions;
//   * kKFailureSweep  — k distinct links fail at staged times and never
//                       repair (the static-failover stress of Table 2's
//                       "multiple link failures" claim).
//
// Every generator is a pure function of (topology, config, rng) so a
// campaign seed fully determines the schedule — the property the
// violation reports and the schedule shrinker rely on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace kar::faultgen {

/// One timed link state change.
struct LinkEvent {
  double time = 0.0;
  topo::LinkId link = topo::kInvalidLink;
  bool fail = true;  ///< true = link goes down, false = link comes back up.

  friend bool operator==(const LinkEvent&, const LinkEvent&) = default;
};

/// A reproducible failure schedule: time-sorted link events.
struct FailureSchedule {
  std::vector<LinkEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }

  /// Human-readable, name-based rendering ("t=0.0125 fail SW7-SW11"), one
  /// event per line — the replayable form printed with violation reports.
  [[nodiscard]] std::string describe(const topo::Topology& topo) const;
};

/// Generator families (see file comment).
enum class ScheduleKind : std::uint8_t {
  kRandomUpDown,
  kSrlgGroups,
  kFlapping,
  kKFailureSweep,
};

[[nodiscard]] std::string_view to_string(ScheduleKind kind);
/// Parses "updown" / "srlg" / "flap" / "sweep".
[[nodiscard]] ScheduleKind schedule_kind_from_string(std::string_view name);

/// Knobs for every generator family; unused fields are ignored.
struct ScheduleConfig {
  ScheduleKind kind = ScheduleKind::kRandomUpDown;
  /// Schedule horizon: all events land in [0, horizon_s).
  double horizon_s = 0.5;
  /// kRandomUpDown: per-link probability of at least one failure episode.
  double per_link_failure_probability = 0.5;
  /// kRandomUpDown / kSrlgGroups: mean down time before the repair fires
  /// (exponentially distributed; a repair past the horizon is dropped,
  /// leaving the link down for the rest of the run).
  double mean_downtime_s = 0.1;
  /// kSrlgGroups: number of groups and links per group.
  std::size_t group_count = 2;
  std::size_t group_size = 2;
  /// kFlapping: number of flapping links and the half-period of the flap.
  std::size_t flapping_links = 1;
  double flap_half_period_s = 0.01;
  /// kKFailureSweep: number of staged permanent failures.
  std::size_t k_failures = 2;
  /// When false (default) edge-node uplinks never fail: failing the only
  /// ingress/egress port tells us nothing about deflection. When true all
  /// links are eligible.
  bool include_edge_links = false;
};

/// Links eligible for failure under `config` (insertion order).
[[nodiscard]] std::vector<topo::LinkId> eligible_links(
    const topo::Topology& topo, const ScheduleConfig& config);

/// Working storage generate_schedule reuses from call to call: a caller
/// that keeps one (a campaign world) allocates only the returned schedule.
struct ScheduleScratch {
  std::vector<topo::LinkId> sample;  ///< Sampled links (SRLG, flap, sweep).
  std::vector<LinkEvent> events;     ///< The events in generation order.
  /// (time, generation index) of each event: sorting it orders the events
  /// as a stable sort by time would, without a merge buffer.
  std::vector<std::pair<double, std::uint32_t>> order;
};

/// Generates a schedule; deterministic in (topology, config, rng state).
[[nodiscard]] FailureSchedule generate_schedule(const topo::Topology& topo,
                                                const ScheduleConfig& config,
                                                common::Rng& rng);

/// The same schedule over `links`, which must be eligible_links(topo,
/// config), using `scratch`'s storage.
[[nodiscard]] FailureSchedule generate_schedule(
    const std::vector<topo::LinkId>& links, const ScheduleConfig& config,
    common::Rng& rng, ScheduleScratch& scratch);

}  // namespace kar::faultgen
