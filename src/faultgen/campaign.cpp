#include "faultgen/campaign.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "obs/instrument.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace kar::faultgen {

using dataplane::Packet;

topo::Scenario make_campaign_scenario(const std::string& name) {
  if (topogen::is_gen_spec(name)) return topogen::make_from_spec(name);
  if (name == "fig1") return topo::make_fig1_network();
  if (name == "fig2" || name == "exp15") return topo::make_experimental15();
  if (name == "rnp28") return topo::make_rnp28();
  if (name == "fig8") return topo::make_fig8_redundant();
  if (name == "grid") return topo::make_grid(3, 4);
  if (name == "line") return topo::make_line(5);
  throw std::invalid_argument(
      "make_campaign_scenario: unknown topology " + name +
      "; named topologies: fig1, fig2 (or exp15), rnp28, fig8, grid, line\n" +
      topogen::spec_grammar_help());
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  if (config_.runs == 0) {
    throw std::invalid_argument("CampaignEngine: runs must be positive");
  }
}

namespace {

sim::NetworkConfig network_config(const CampaignConfig& config) {
  sim::NetworkConfig net_config;
  net_config.technique = config.technique;
  net_config.wrong_edge_policy = config.wrong_edge_policy;
  net_config.max_hops = config.max_hops;
  net_config.failure_detection_delay_s = config.failure_detection_delay_s;
  return net_config;
}

InvariantConfig invariant_config(const CampaignConfig& config) {
  InvariantConfig inv_config;
  inv_config.max_hops = config.max_hops;
  inv_config.technique = config.technique;
  inv_config.check_residue = true;
  inv_config.hop_budget_override = config.hop_budget_override;
  return inv_config;
}

/// The run's traffic source: packet i leaves the route's source edge at
/// i * interval with a payload drawn from `rng`. It keeps one pending
/// injection and schedules the next when the current one fires. The run's
/// block of seqs is reserved at construction, so each injection keeps the
/// (time, seq) key it would have had if all were queued at setup, and
/// payloads are drawn in the same order. The pending event refers to the
/// injector, which must outlive the run's event loop.
class Injector {
 public:
  Injector(sim::Network& net, const routing::EncodedRoute& route,
           common::Rng rng, double interval, std::size_t count)
      : net_(net),
        route_(route),
        rng_(rng),
        interval_(interval),
        count_(count),
        first_seq_(net.events().reserve_seqs(count)) {
    schedule_next();
  }
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

 private:
  void schedule_next() {
    if (next_ == count_) return;
    payload_ = 64 + rng_.below(1137);  // 64..1200 B
    net_.events().schedule_at_seq(static_cast<double>(next_) * interval_,
                                  first_seq_ + next_, sim::EventKind::kGeneric,
                                  [this] { fire(); });
  }
  void fire() {
    Packet p;
    p.transport = dataplane::Datagram{static_cast<std::uint64_t>(next_)};
    net_.edge_at(route_.src_edge).stamp(p, route_, payload_);
    ++next_;
    schedule_next();
    net_.inject(route_.src_edge, std::move(p));
  }

  sim::Network& net_;
  const routing::EncodedRoute& route_;
  common::Rng rng_;
  double interval_;
  std::size_t count_;
  std::uint64_t first_seq_;
  std::size_t next_ = 0;     ///< Index of the pending injection.
  std::size_t payload_ = 0;  ///< Its payload bytes.
};

}  // namespace

std::uint64_t CampaignEngine::run_seed_at(std::size_t index) const noexcept {
  return common::derive_seed(config_.seed, index);
}

CampaignWorld::CampaignWorld(const CampaignConfig& config)
    : scenario_(make_campaign_scenario(config.topology)),
      controller_(scenario_.topology),
      // Routes are encoded before any failure, and the controller keeps
      // them (the paper's evaluation policy): recovery is the data plane's
      // job.
      route_(controller_.encode_scenario(scenario_.route, config.protection)),
      net_(scenario_.topology, controller_, network_config(config)),
      checker_(net_, invariant_config(config)),
      labels_{{"technique", std::string(dataplane::to_string(config.technique))},
              {"topology", config.topology}},
      eligible_links_(eligible_links(scenario_.topology, config.schedule)) {}

void CampaignWorld::reset(std::uint64_t run_seed) {
  net_.reset(run_seed);
  checker_.reset();
}

RunResult CampaignEngine::run_one(std::uint64_t run_seed,
                                  const FailureSchedule* override_schedule,
                                  const std::atomic<bool>* cancel,
                                  bool traced) const {
  WorldSlot world;
  return run_one(world, run_seed, override_schedule, cancel, traced);
}

RunResult CampaignEngine::run_one(WorldSlot& slot, std::uint64_t run_seed,
                                  const FailureSchedule* override_schedule,
                                  const std::atomic<bool>* cancel,
                                  bool traced) const {
  RunResult result;
  result.run_seed = run_seed;
  obs::SpanTimer setup_timer(
      config_.profile
          ? &result.profile.phases.wall_s[static_cast<std::size_t>(
                obs::Phase::kSetup)]
          : nullptr);

  // The world leaves its slot for the run and goes back only when the run
  // ends uncancelled, so a cancelled or throwing run leaves the slot empty.
  WorldSlot world = std::move(slot);
  if (world == nullptr) world = std::make_unique<CampaignWorld>(config_);
  world->reset(run_seed);
  sim::Network& net = world->net_;
  InvariantChecker& checker = world->checker_;
  const routing::EncodedRoute& route = world->route_;

  // Observability: per-run registry + a bounded trace ring for traced runs
  // only. The observer composes with the invariant checker on the single
  // trace hook; neither consumes randomness nor alters event order, so
  // determinism is untouched.
  obs::MetricsRegistry registry(config_.collect_metrics);
  std::optional<obs::TraceRecorder> recorder;
  if (traced) recorder.emplace(config_.trace_ring_capacity);
  std::optional<obs::NetworkObserver> observer;
  if (config_.collect_metrics || traced) {
    obs::NetworkObserverOptions observer_options;
    observer_options.metrics = config_.collect_metrics ? &registry : nullptr;
    observer_options.trace = recorder.has_value() ? &*recorder : nullptr;
    observer_options.labels = world->labels_;
    observer.emplace(net, std::move(observer_options));
    net.set_link_state_hook([&observer](topo::LinkId link, bool up) {
      observer->on_link_state(link, up);
    });
  }
  net.set_trace_hook([&checker, &observer](const sim::TraceEvent& e) {
    checker.observe(e);
    if (observer.has_value()) observer->on_trace(e);
  });
  sim::EventLoopProfile* event_profile =
      config_.profile ? &result.profile.events : nullptr;
  net.events().set_profile(event_profile);

  if (override_schedule != nullptr) {
    result.schedule = *override_schedule;
  } else {
    common::Rng schedule_rng(run_seed ^ 0x5eedfa171c5c11edULL);
    result.schedule =
        generate_schedule(world->eligible_links_, config_.schedule,
                          schedule_rng, world->schedule_scratch_);
  }
  for (const LinkEvent& event : result.schedule.events) {
    // Captures no more than std::function stores inline: no allocation.
    net.events().schedule_at(
        event.time, [&net, link = event.link, fail = event.fail] {
          if (fail) {
            net.fail_link_now(link);
          } else {
            net.repair_link_now(link);
          }
        });
  }

  net.set_delivery_handler(route.dst_edge, [&result](const Packet& p) {
    result.delivered_hops += p.hop_count;
  });

  const double interval =
      config_.inject_interval_s > 0.0
          ? config_.inject_interval_s
          : 0.6 * config_.schedule.horizon_s /
                static_cast<double>(std::max<std::size_t>(config_.packets_per_run, 1));
  Injector injector(net, route, common::Rng(run_seed ^ 0x7aff1c0de5eed000ULL),
                    interval, config_.packets_per_run);

  setup_timer.stop();

  // Run in bounded slices, polling the cooperative cancel flag between
  // them: slicing does not change event order, so a never-cancelled run is
  // identical to one monolithic run_all().
  {
    obs::SpanTimer loop_timer(
        config_.profile
            ? &result.profile.phases.wall_s[static_cast<std::size_t>(
                  obs::Phase::kEventLoop)]
            : nullptr);
    constexpr std::size_t kEventSlice = 65'536;
    std::size_t processed = 0;
    while (!net.events().empty() && processed < config_.max_events_per_run) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
      processed += net.events().run_all(
          std::min(kEventSlice, config_.max_events_per_run - processed));
    }
  }

  obs::SpanTimer teardown_timer(
      config_.profile
          ? &result.profile.phases.wall_s[static_cast<std::size_t>(
                obs::Phase::kTeardown)]
          : nullptr);
  net.events().set_profile(nullptr);
  result.queue_drained = net.events().empty();
  checker.finish(result.queue_drained);
  result.counters = net.counters();
  result.violations = checker.violations();
  if (config_.profile) result.profile.phases.runs = 1;
  if (config_.collect_metrics) result.metrics = registry.snapshot();
  if (recorder.has_value()) result.trace = recorder->snapshot();
  if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) {
    slot = std::move(world);
  }
  return result;
}

FailureSchedule CampaignEngine::shrink_schedule(
    std::uint64_t run_seed, const FailureSchedule& failing) const {
  FailureSchedule current = failing;
  WorldSlot world;
  std::size_t replays = 0;
  bool improved = true;
  while (improved && replays < config_.max_shrink_replays) {
    improved = false;
    for (std::size_t i = 0; i < current.events.size(); ++i) {
      FailureSchedule candidate;
      candidate.events.reserve(current.events.size() - 1);
      for (std::size_t j = 0; j < current.events.size(); ++j) {
        if (j != i) candidate.events.push_back(current.events[j]);
      }
      ++replays;
      const RunResult replay = run_one(world, run_seed, &candidate);
      if (!replay.violations.empty()) {
        current = std::move(candidate);
        improved = true;
        break;  // restart the scan over the smaller schedule
      }
      if (replays >= config_.max_shrink_replays) break;
    }
  }
  return current;
}

CampaignResult CampaignEngine::run() const {
  CampaignAccumulator accumulator(*this);
  WorldSlot world;
  for (std::size_t i = 0; i < config_.runs; ++i) {
    accumulator.add(run_one(world, run_seed_at(i), nullptr, nullptr,
                            /*traced=*/i < config_.trace_runs));
  }
  return accumulator.take();
}

CampaignAccumulator::CampaignAccumulator(const CampaignEngine& engine)
    : engine_(&engine) {
  delivery_rates_.reserve(engine.config().runs);
  mean_hops_.reserve(engine.config().runs);
}

void CampaignAccumulator::add(const RunResult& run) {
  const CampaignConfig& config = engine_->config();
  const auto run_index = static_cast<std::uint32_t>(result_.runs);
  ++result_.runs;
  result_.schedule_events += run.schedule.size();
  // Observability folds: add() is called in run-index order (the runner's
  // reorder buffer guarantees it), so these are as deterministic as the
  // counter totals above.
  if (!run.metrics.empty()) result_.metrics.merge(run.metrics);
  if (!run.trace.empty()) {
    for (obs::TraceRecord record : run.trace) {
      record.tid = run_index;
      result_.trace.push_back(std::move(record));
    }
  }
  if (!run.profile.empty()) result_.profile.merge(run.profile);
  result_.totals.injected += run.counters.injected;
  result_.totals.delivered += run.counters.delivered;
  result_.totals.delivered_bytes += run.counters.delivered_bytes;
  result_.totals.hops += run.counters.hops;
  result_.totals.deflections += run.counters.deflections;
  result_.totals.reencodes += run.counters.reencodes;
  result_.totals.bounces += run.counters.bounces;
  result_.totals.drop_no_viable_port += run.counters.drop_no_viable_port;
  result_.totals.drop_link_failed += run.counters.drop_link_failed;
  result_.totals.drop_queue_overflow += run.counters.drop_queue_overflow;
  result_.totals.drop_ttl += run.counters.drop_ttl;
  result_.totals.drop_aqm_early += run.counters.drop_aqm_early;
  if (run.counters.injected > 0) {
    delivery_rates_.push_back(static_cast<double>(run.counters.delivered) /
                              static_cast<double>(run.counters.injected));
  }
  if (run.counters.delivered > 0) {
    mean_hops_.push_back(static_cast<double>(run.delivered_hops) /
                         static_cast<double>(run.counters.delivered));
  }
  if (!run.violations.empty()) {
    ViolationReport report;
    report.run_seed = run.run_seed;
    report.first = run.violations.front();
    report.total_violations = run.violations.size();
    report.original = run.schedule;
    report.shrunk = config.shrink
                        ? engine_->shrink_schedule(run.run_seed, run.schedule)
                        : run.schedule;
    const topo::Scenario scenario = make_campaign_scenario(config.topology);
    report.shrunk_description = report.shrunk.describe(scenario.topology);
    result_.reports.push_back(std::move(report));
  }
}

CampaignResult CampaignAccumulator::take() {
  result_.delivery_rate = stats::summarize(delivery_rates_);
  result_.hops_per_delivered = stats::summarize(mean_hops_);
  return std::move(result_);
}

}  // namespace kar::faultgen
