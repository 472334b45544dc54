// Campaign world reuse: a run on a world reset from earlier runs must equal,
// field for field, the same run on a freshly built world — across every
// campaign topology, technique and schedule family, in shuffled seed order,
// with runs truncated mid-flight, on the runner's pool workers, and after a
// cancelled or throwing run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "faultgen/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "support/testsupport.hpp"

namespace kar::faultgen {
namespace {

using dataplane::DeflectionTechnique;

constexpr DeflectionTechnique kTechniques[] = {
    DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
    DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort};
constexpr ScheduleKind kSchedules[] = {
    ScheduleKind::kRandomUpDown, ScheduleKind::kSrlgGroups,
    ScheduleKind::kFlapping, ScheduleKind::kKFailureSweep};

void expect_same_run(const RunResult& fresh, const RunResult& reused,
                     const std::string& context) {
  SCOPED_TRACE(context + " seed " + std::to_string(fresh.run_seed));
  EXPECT_EQ(reused.run_seed, fresh.run_seed);
  EXPECT_EQ(reused.schedule.events, fresh.schedule.events);
  const sim::NetworkCounters& a = fresh.counters;
  const sim::NetworkCounters& b = reused.counters;
  EXPECT_EQ(b.injected, a.injected);
  EXPECT_EQ(b.delivered, a.delivered);
  EXPECT_EQ(b.delivered_bytes, a.delivered_bytes);
  EXPECT_EQ(b.hops, a.hops);
  EXPECT_EQ(b.deflections, a.deflections);
  EXPECT_EQ(b.reencodes, a.reencodes);
  EXPECT_EQ(b.bounces, a.bounces);
  EXPECT_EQ(b.drop_no_viable_port, a.drop_no_viable_port);
  EXPECT_EQ(b.drop_link_failed, a.drop_link_failed);
  EXPECT_EQ(b.drop_queue_overflow, a.drop_queue_overflow);
  EXPECT_EQ(b.drop_ttl, a.drop_ttl);
  EXPECT_EQ(b.drop_aqm_early, a.drop_aqm_early);
  EXPECT_EQ(reused.delivered_hops, fresh.delivered_hops);
  EXPECT_EQ(reused.queue_drained, fresh.queue_drained);
  ASSERT_EQ(reused.violations.size(), fresh.violations.size());
  for (std::size_t i = 0; i < fresh.violations.size(); ++i) {
    EXPECT_EQ(reused.violations[i].kind, fresh.violations[i].kind);
    EXPECT_EQ(reused.violations[i].time, fresh.violations[i].time);
    EXPECT_EQ(reused.violations[i].packet_id, fresh.violations[i].packet_id);
    EXPECT_EQ(reused.violations[i].detail, fresh.violations[i].detail);
  }
  EXPECT_EQ(reused.metrics.json(), fresh.metrics.json());
  EXPECT_EQ(reused.trace, fresh.trace);
}

/// How many of the compared runs violated an invariant or stopped with
/// events still queued, and how many residue-cache lookups they made.
struct Tally {
  std::size_t violating = 0;
  std::size_t undrained = 0;
  std::uint64_t residue_cache_lookups = 0;
};

/// The sum of a counter family's series in a run's metrics.
std::uint64_t counter_total(const obs::MetricsSnapshot& metrics,
                            const std::string& family) {
  std::uint64_t total = 0;
  const auto it = metrics.families.find(family);
  if (it == metrics.families.end()) return total;
  for (const auto& entry : it->second.series) total += entry.second.count;
  return total;
}

/// Runs `runs` seeds of `config` on one world in a shuffled order and each
/// on a fresh world, and compares them.
Tally expect_reuse_matches_fresh(const CampaignConfig& config,
                                 common::Rng& rng, const std::string& context) {
  Tally tally;
  const CampaignEngine engine(config);
  std::vector<std::size_t> order(config.runs);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  WorldSlot world;
  for (const std::size_t i : order) {
    const std::uint64_t seed = engine.run_seed_at(i);
    const bool traced = i == 0;
    const RunResult reused =
        engine.run_one(world, seed, nullptr, nullptr, traced);
    EXPECT_TRUE(world != nullptr) << context << ": a finished run kept no world";
    const RunResult fresh = engine.run_one(seed, nullptr, nullptr, traced);
    expect_same_run(fresh, reused, context);
    if (!fresh.violations.empty()) ++tally.violating;
    if (!fresh.queue_drained) ++tally.undrained;
    tally.residue_cache_lookups +=
        counter_total(fresh.metrics, "kar_dataplane_residue_cache_hits_total") +
        counter_total(fresh.metrics, "kar_dataplane_residue_cache_misses_total");
  }
  return tally;
}

TEST(CampaignWorld, ReusedRunsEqualFreshRunsOnEveryTopologyTechniqueAndSchedule) {
  auto rng = testsupport::make_rng(27, "CampaignWorld.ReusedRunsEqualFresh");
  for (const char* topology :
       {"fig1", "fig2", "rnp28", "fig8", "grid", "line", "gen:fat-tree:k=4"}) {
    for (const auto technique : kTechniques) {
      for (std::size_t k = 0; k < std::size(kSchedules); ++k) {
        CampaignConfig config;
        config.topology = topology;
        config.technique = technique;
        config.schedule.kind = kSchedules[k];
        config.runs = 5;
        config.packets_per_run = 15;
        config.seed = 1000 + k;
        config.collect_metrics = true;
        // Delayed detection adds link-state events that outlive a failure.
        config.failure_detection_delay_s = k % 2 == 0 ? 0.0 : 0.01;
        (void)expect_reuse_matches_fresh(
            config, rng,
            std::string(topology) + "/" +
                std::string(dataplane::to_string(technique)) + "/" +
                std::string(to_string(kSchedules[k])));
      }
    }
  }
}

TEST(CampaignWorld, ReuseKeepsViolationsCachesAndTruncatedRuns) {
  auto rng = testsupport::make_rng(28, "CampaignWorld.ReuseKeepsViolationsCaches");
  // The planted hop-budget bug of Campaign.MutatedInvariantIsDetected...:
  // reused runs must report the same violations.
  CampaignConfig mutated;
  mutated.topology = "fig1";
  mutated.hop_budget_override = 3;
  mutated.schedule.per_link_failure_probability = 0.8;
  mutated.runs = 12;
  mutated.collect_metrics = true;
  EXPECT_GT(expect_reuse_matches_fresh(mutated, rng, "fig1 hop budget 3")
                .violating,
            0u);

  // Internet2 at scale 9 with full protection encodes a 133-bit route. It
  // is past BigUint's 128 inline bits, so the switches' residue caches run
  // (narrower routes reduce directly), and their hit/miss counts reach the
  // metrics: a cache the reset left warm would show as extra hits.
  CampaignConfig wide;
  wide.topology = "gen:internet2:scale=9";
  wide.protection = topo::ProtectionLevel::kFull;
  wide.runs = 8;
  wide.collect_metrics = true;
  EXPECT_GT(expect_reuse_matches_fresh(wide, rng, "internet2 wide route")
                .residue_cache_lookups,
            0u);

  // An event cap stops every run with packets queued and in flight, so each
  // reset starts from a dirty world.
  CampaignConfig truncated;
  truncated.topology = "rnp28";
  truncated.technique = DeflectionTechnique::kHotPotato;
  truncated.schedule.kind = ScheduleKind::kFlapping;
  truncated.failure_detection_delay_s = 0.01;
  truncated.packets_per_run = 60;
  truncated.max_events_per_run = 150;
  truncated.runs = 8;
  EXPECT_EQ(
      expect_reuse_matches_fresh(truncated, rng, "rnp28 capped at 150 events")
          .undrained,
      truncated.runs);
}

/// A JSONL run record without its wall time, the one field that varies.
std::string without_wall_time(std::string record) {
  const std::size_t at = record.find("\"wall_ms\":");
  if (at != std::string::npos) {
    record.erase(at, record.find(',', at) + 1 - at);
  }
  return record;
}

TEST(CampaignWorld, PoolWorkersKeepOneWorldEachAndMatchFreshRuns) {
  // Three pool workers, each reusing its own world across the runs it
  // happens to take: every run's record must equal a fresh-world run's.
  CampaignConfig config;
  config.topology = "rnp28";
  // Hot-Potato walks draw from the network RNG, and most links fail.
  config.technique = DeflectionTechnique::kHotPotato;
  config.schedule.per_link_failure_probability = 0.8;
  config.failure_detection_delay_s = 0.03;
  config.runs = 48;
  config.packets_per_run = 30;
  config.collect_metrics = true;
  const CampaignEngine engine(config);
  std::ostringstream sink;
  runner::JsonlWriter jsonl(sink);
  runner::CampaignJobOptions options;
  options.runner.jobs = 3;
  options.jsonl = &jsonl;
  (void)runner::run_campaign(engine, options);
  const auto lines = common::split(sink.str(), '\n', false);
  ASSERT_EQ(lines.size(), config.runs);
  for (std::size_t i = 0; i < config.runs; ++i) {
    const RunResult fresh = engine.run_one(engine.run_seed_at(i));
    runner::RunStatus status;
    status.index = i;
    status.ok = true;
    EXPECT_EQ(without_wall_time(lines[i]),
              without_wall_time(runner::campaign_run_record(engine, &fresh,
                                                            status)))
        << "run " << i;
  }
}

TEST(CampaignWorld, CancelledRunDiscardsTheWorld) {
  CampaignConfig config;
  config.topology = "fig2";
  config.runs = 3;
  const CampaignEngine engine(config);
  WorldSlot world;
  (void)engine.run_one(world, engine.run_seed_at(0));
  ASSERT_TRUE(world != nullptr);
  const std::atomic<bool> cancelled{true};
  const RunResult stopped =
      engine.run_one(world, engine.run_seed_at(1), nullptr, &cancelled);
  EXPECT_FALSE(stopped.queue_drained);
  EXPECT_TRUE(world == nullptr);
  const std::uint64_t seed = engine.run_seed_at(2);
  expect_same_run(engine.run_one(seed), engine.run_one(world, seed),
                  "after a cancelled run");
  EXPECT_TRUE(world != nullptr);
}

TEST(CampaignWorld, ThrowingRunDiscardsTheWorld) {
  CampaignConfig config;
  config.topology = "fig2";
  config.runs = 3;
  const CampaignEngine engine(config);
  WorldSlot world;
  (void)engine.run_one(world, engine.run_seed_at(0));
  ASSERT_TRUE(world != nullptr);
  // The second event names a link fig2 lacks: the run throws from inside
  // its event loop, with packets in flight and a link down.
  const RunResult probe = engine.run_one(engine.run_seed_at(1));
  ASSERT_FALSE(probe.schedule.empty());
  FailureSchedule bad;
  bad.events = {probe.schedule.events.front(),
                LinkEvent{probe.schedule.events.front().time + 0.01,
                          topo::LinkId{100000}, true}};
  EXPECT_THROW((void)engine.run_one(world, engine.run_seed_at(1), &bad),
               std::out_of_range);
  EXPECT_TRUE(world == nullptr);
  const std::uint64_t seed = engine.run_seed_at(2);
  expect_same_run(engine.run_one(seed), engine.run_one(world, seed),
                  "after a throwing run");
  EXPECT_TRUE(world != nullptr);
}

TEST(CampaignWorld, UnknownTopologyThrowsOnEveryRunAndKeepsNoWorld) {
  CampaignConfig config;
  config.topology = "nosuch";
  config.runs = 2;
  const CampaignEngine engine(config);  // lazy: builds nothing
  WorldSlot world;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_THROW((void)engine.run_one(world, engine.run_seed_at(i)),
                 std::invalid_argument);
    EXPECT_TRUE(world == nullptr);
  }
}

}  // namespace
}  // namespace kar::faultgen
