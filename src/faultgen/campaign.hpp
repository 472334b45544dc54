// Fault-injection campaign engine: drives sim::Network through thousands
// of seeded, reproducible failure schedules with the runtime invariant
// checker attached, and reports every violation with its campaign seed and
// a greedily shrunk, replayable failure schedule.
//
// A campaign is (scenario × technique × protection × schedule family) run
// `runs` times; run i derives its own seed from the campaign seed, and that
// run seed alone determines the topology, the traffic and the failure
// schedule — so a reported seed replays the exact violating run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/edge.hpp"
#include "dataplane/switch.hpp"
#include "faultgen/invariants.hpp"
#include "faultgen/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "stats/summary.hpp"
#include "topology/scenario.hpp"

namespace kar::faultgen {

/// Everything one campaign needs; fully value-typed for reproducibility.
struct CampaignConfig {
  /// Scenario family: "fig1", "fig2" (the 15-node experimental network),
  /// "rnp28", "fig8", "grid" (3x4), or "line" (5 switches).
  std::string topology = "fig1";
  dataplane::DeflectionTechnique technique =
      dataplane::DeflectionTechnique::kNotInputPort;
  topo::ProtectionLevel protection = topo::ProtectionLevel::kPartial;
  dataplane::WrongEdgePolicy wrong_edge_policy =
      dataplane::WrongEdgePolicy::kReencode;
  ScheduleConfig schedule;
  std::size_t runs = 100;
  std::size_t packets_per_run = 20;
  /// <= 0 derives an interval that spreads packets over 60% of the horizon,
  /// so the failure schedule interleaves with live traffic.
  double inject_interval_s = 0.0;
  std::uint64_t seed = 1;
  std::uint32_t max_hops = 256;
  double failure_detection_delay_s = 0.0;
  /// Shrink the failure schedule of violating runs (greedy event removal).
  bool shrink = true;
  /// Replay budget for the shrinker.
  std::size_t max_shrink_replays = 200;
  /// Mutation passthrough to InvariantConfig (self-test support).
  std::optional<std::uint32_t> hop_budget_override;
  /// Event-count guard per run against pathological schedules.
  std::size_t max_events_per_run = 5'000'000;

  // --- Observability (src/obs/) ---------------------------------------
  /// Build a per-run MetricsRegistry (NetworkObserver) and carry its
  /// snapshot on RunResult; snapshots fold into CampaignResult::metrics in
  /// run-index order, so they are deterministic at any jobs count.
  bool collect_metrics = false;
  /// Record packet/link trace events for the first `trace_runs` runs into a
  /// bounded ring (`trace_ring_capacity` records per traced run).
  std::size_t trace_runs = 0;
  std::size_t trace_ring_capacity = 8192;
  /// Collect per-phase wall time and the event-kind breakdown. Wall times
  /// are non-deterministic by nature and excluded from canonical
  /// aggregates.
  bool profile = false;
};

/// Wall-time profile of one run (or the merge of many): the three
/// setup/event-loop/teardown phases plus the per-event-kind breakdown
/// measured inside sim::EventQueue.
struct RunProfile {
  obs::PhaseProfile phases;
  sim::EventLoopProfile events;

  void merge(const RunProfile& other) noexcept {
    phases.merge(other.phases);
    events.merge(other.events);
  }
  [[nodiscard]] bool empty() const noexcept { return phases.empty(); }
};

/// Outcome of one simulated run.
struct RunResult {
  std::uint64_t run_seed = 0;
  FailureSchedule schedule;
  sim::NetworkCounters counters;
  std::vector<Violation> violations;
  bool queue_drained = true;
  std::uint64_t delivered_hops = 0;  ///< Sum of hop counts over delivered packets.
  /// Observability payloads; empty unless the matching config knobs are on.
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceRecord> trace;
  RunProfile profile;
};

/// A violating run, post-shrinking: everything needed to replay it.
struct ViolationReport {
  std::uint64_t run_seed = 0;
  Violation first;
  std::size_t total_violations = 0;
  FailureSchedule original;
  FailureSchedule shrunk;
  /// Name-based rendering of `shrunk` (replayable without LinkId mapping).
  std::string shrunk_description;
};

/// Aggregate campaign outcome.
struct CampaignResult {
  std::size_t runs = 0;
  std::size_t schedule_events = 0;
  sim::NetworkCounters totals;
  stats::Summary delivery_rate;        ///< Per-run delivered / injected.
  stats::Summary hops_per_delivered;   ///< Per-run mean hops of delivered packets.
  std::vector<ViolationReport> reports;
  /// Fold of per-run metrics snapshots, in run-index order (deterministic).
  obs::MetricsSnapshot metrics;
  /// Concatenated trace records of the traced runs; TraceRecord::tid is
  /// rewritten to the run index.
  std::vector<obs::TraceRecord> trace;
  /// Merged wall-time profile (non-deterministic; reporting only).
  RunProfile profile;

  [[nodiscard]] bool ok() const noexcept { return reports.empty(); }
};

/// Builds the scenario a campaign runs on. Throws std::invalid_argument
/// for an unknown topology name.
[[nodiscard]] topo::Scenario make_campaign_scenario(const std::string& name);

/// What every run of one campaign shares, because its seed does not decide
/// it: the scenario topology, the controller, the encoded scenario route,
/// the network, the invariant checker and the observer labels. A run resets
/// the world to the state a freshly built one has and then regenerates what
/// its seed decides (schedule, link events, injector, random streams, and
/// the hooks bound to its RunResult). A world belongs to one worker and is
/// never shared; between runs it may still hold the last run's hooks and
/// unfired events, which the next reset drops unrun.
class CampaignWorld {
 public:
  /// Builds the world; throws std::invalid_argument for an unknown
  /// topology (see make_campaign_scenario).
  explicit CampaignWorld(const CampaignConfig& config);
  // The network points into the scenario and the controller.
  CampaignWorld(const CampaignWorld&) = delete;
  CampaignWorld& operator=(const CampaignWorld&) = delete;

 private:
  friend class CampaignEngine;

  /// Back to the freshly built state, the network's random stream seeded
  /// from `run_seed`.
  void reset(std::uint64_t run_seed);

  topo::Scenario scenario_;
  routing::Controller controller_;
  routing::EncodedRoute route_;
  sim::Network net_;
  InvariantChecker checker_;
  obs::Labels labels_;
  /// The links the schedule generator may fail, and its working storage.
  std::vector<topo::LinkId> eligible_links_;
  ScheduleScratch schedule_scratch_;
};

/// A worker's world for one engine: empty until the worker's first run
/// builds it, and emptied by a run that is cancelled or throws, so the
/// next run starts from a fresh one.
using WorldSlot = std::unique_ptr<CampaignWorld>;

/// The engine. Stateless between calls except for the config; the worlds
/// its runs reuse live in the callers' WorldSlots.
class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignConfig config);

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// Runs the whole campaign: `runs` seeded scenarios on one world,
  /// shrinking and reporting every violating run.
  [[nodiscard]] CampaignResult run() const;

  /// One seeded run on the world in `world`, which it builds when the slot
  /// is empty and otherwise resets. When `override_schedule` is set it
  /// replaces the generated schedule (the shrinker's replay path); traffic
  /// and network randomness still derive from `run_seed`. `cancel`, when
  /// set, is a cooperative stop flag polled between event-queue slices (the
  /// runner's per-run timeout): a cancelled run returns early with
  /// `queue_drained == false` and partial counters. A cancelled or throwing
  /// run leaves the slot empty. The result equals a fresh-world run's,
  /// field for field.
  ///
  /// Thread safety: const; the only state a run touches is its world, so
  /// concurrent calls on distinct slots are safe — the property the
  /// parallel runner relies on (one slot per worker).
  ///
  /// `traced` opts this run into trace recording (the caller decides by run
  /// index; shrinker replays never trace).
  [[nodiscard]] RunResult run_one(
      WorldSlot& world, std::uint64_t run_seed,
      const FailureSchedule* override_schedule = nullptr,
      const std::atomic<bool>* cancel = nullptr, bool traced = false) const;

  /// The same run on a fresh world of its own.
  [[nodiscard]] RunResult run_one(
      std::uint64_t run_seed,
      const FailureSchedule* override_schedule = nullptr,
      const std::atomic<bool>* cancel = nullptr, bool traced = false) const;

  /// Greedy schedule shrinking: repeatedly drops events whose removal
  /// keeps the run violating, until a fixpoint (or the replay budget). The
  /// replays share one world.
  [[nodiscard]] FailureSchedule shrink_schedule(
      std::uint64_t run_seed, const FailureSchedule& failing) const;

  /// The seed of run `index` (derived from the campaign seed).
  [[nodiscard]] std::uint64_t run_seed_at(std::size_t index) const noexcept;

 private:
  CampaignConfig config_;
};

/// Order-sensitive fold of RunResults into a CampaignResult: the single
/// aggregation path shared by CampaignEngine::run() and the parallel
/// runner (src/runner/campaign_runner.hpp). Feeding runs in run-index
/// order yields bit-identical aggregates regardless of how (or on how many
/// threads) the runs were produced — floating-point accumulation order is
/// fixed here, nowhere else.
class CampaignAccumulator {
 public:
  explicit CampaignAccumulator(const CampaignEngine& engine);

  /// Folds one run in; for violating runs this shrinks the schedule via
  /// the engine (serial replays on the calling thread).
  void add(const RunResult& run);

  /// Finalizes the summaries and surrenders the result.
  [[nodiscard]] CampaignResult take();

 private:
  const CampaignEngine* engine_;
  CampaignResult result_;
  std::vector<double> delivery_rates_;
  std::vector<double> mean_hops_;
};

}  // namespace kar::faultgen
