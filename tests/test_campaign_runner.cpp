// The determinism contract of the parallel campaign runner: a campaign's
// aggregates are bit-identical whether its runs execute serially
// (CampaignEngine::run or --jobs=1) or on parallel workers, JSONL
// records land one per run in run-index order, and a run that throws is
// isolated instead of killing the campaign.
#include "runner/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "support/testsupport.hpp"

namespace kar::runner {
namespace {

faultgen::CampaignConfig small_campaign(std::size_t runs, std::uint64_t seed) {
  faultgen::CampaignConfig config;
  config.topology = "fig1";
  config.technique = dataplane::DeflectionTechnique::kNotInputPort;
  config.schedule.kind = faultgen::ScheduleKind::kRandomUpDown;
  config.runs = runs;
  config.packets_per_run = 10;
  config.seed = seed;
  return config;
}

TEST(CampaignRunner, RunSeedsComeFromDeriveSeed) {
  const faultgen::CampaignEngine engine(small_campaign(4, 77));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.run_seed_at(i), common::derive_seed(77, i));
  }
}

// The acceptance-criterion test: byte-identical aggregates for a
// 64-scenario campaign at -j1 vs -j8 (and vs the engine's own serial
// path). The canonical rendering is hexfloat — equal strings iff equal
// doubles, bit for bit.
TEST(CampaignRunner, AggregatesAreBitIdenticalAcrossJobCounts) {
  const faultgen::CampaignEngine engine(
      small_campaign(64, testsupport::seed_or(4242)));
  const std::string reference = canonical_aggregates(engine.run());
  ASSERT_FALSE(reference.empty());

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    CampaignJobOptions options;
    options.runner.jobs = jobs;
    CampaignJobStats stats;
    const faultgen::CampaignResult result =
        run_campaign(engine, options, &stats);
    EXPECT_EQ(canonical_aggregates(result), reference) << "jobs=" << jobs;
    EXPECT_EQ(stats.jobs, jobs);
    EXPECT_EQ(stats.errored, 0u);
    EXPECT_EQ(stats.timed_out, 0u);
    EXPECT_EQ(stats.per_run_wall_s.size(), 64u);
  }
}

TEST(CampaignRunner, DifferentSeedsProduceDifferentCanonicalAggregates) {
  const faultgen::CampaignEngine a(small_campaign(16, 1));
  const faultgen::CampaignEngine b(small_campaign(16, 2));
  EXPECT_NE(canonical_aggregates(a.run()), canonical_aggregates(b.run()));
}

TEST(CampaignRunner, WritesOneJsonlRecordPerRunInIndexOrder) {
  const faultgen::CampaignEngine engine(small_campaign(8, 99));
  std::ostringstream sink;
  JsonlWriter jsonl(sink);
  CampaignJobOptions options;
  options.runner.jobs = 4;
  options.jsonl = &jsonl;
  const faultgen::CampaignResult result = run_campaign(engine, options);
  EXPECT_EQ(result.runs, 8u);
  ASSERT_EQ(jsonl.lines_written(), 8u);

  const auto lines = common::split(sink.str(), '\n', false);
  ASSERT_EQ(lines.size(), 8u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    unsigned long long run_index = 0;
    unsigned long long seed = 0;
    ASSERT_EQ(std::sscanf(lines[i].c_str(), "{\"run\":%llu,\"seed\":%llu,",
                          &run_index, &seed),
              2)
        << lines[i];
    EXPECT_EQ(run_index, i) << "records out of order";
    EXPECT_EQ(seed, engine.run_seed_at(i));
    EXPECT_NE(lines[i].find("\"topology\":\"fig1\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"verdict\":\"ok\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"injected\":10"), std::string::npos);
  }
}

// The observability extension of the determinism contract: with metrics
// collection on, the per-run snapshots embedded in the JSONL records and
// the campaign-level fold are byte-identical whether the runs execute
// serially or on an 8-worker pool. Only wall_ms (real time) may differ.
TEST(CampaignRunner, MetricsFoldAndJsonlAreBitIdenticalAcrossJobCounts) {
  faultgen::CampaignConfig config =
      small_campaign(24, testsupport::seed_or(505));
  config.collect_metrics = true;
  const faultgen::CampaignEngine engine(config);

  const std::string reference = canonical_aggregates(engine.run());
  ASSERT_NE(reference.find("metrics="), std::string::npos)
      << "collect_metrics did not reach the canonical aggregates";
  ASSERT_NE(reference.find("kar_packets_injected_total"), std::string::npos);

  const auto scrub_wall_ms = [](const std::string& text) {
    // wall_ms is real elapsed time — the only field allowed to differ.
    static const std::regex wall("\"wall_ms\":[^,}]*");
    return std::regex_replace(text, wall, "\"wall_ms\":0");
  };

  std::string jsonl_reference;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    std::ostringstream sink;
    JsonlWriter jsonl(sink);
    CampaignJobOptions options;
    options.runner.jobs = jobs;
    options.jsonl = &jsonl;
    const faultgen::CampaignResult result = run_campaign(engine, options);
    EXPECT_EQ(canonical_aggregates(result), reference) << "jobs=" << jobs;

    ASSERT_EQ(jsonl.lines_written(), 24u);
    const auto lines = common::split(sink.str(), '\n', false);
    for (const std::string& line : lines) {
      EXPECT_NE(line.find("\"metrics\":{"), std::string::npos)
          << "record without embedded metrics snapshot: " << line;
      EXPECT_NE(line.find("technique=\\\"nip\\\""), std::string::npos) << line;
    }
    const std::string scrubbed = scrub_wall_ms(sink.str());
    if (jobs == 1) {
      jsonl_reference = scrubbed;
    } else {
      EXPECT_EQ(scrubbed, jsonl_reference)
          << "JSONL records (metrics included) differ between job counts";
    }
  }
}

// Campaigns that do not opt in pay nothing: no metrics key anywhere.
TEST(CampaignRunner, MetricsAreAbsentUnlessRequested) {
  const faultgen::CampaignEngine engine(small_campaign(4, 7));
  std::ostringstream sink;
  JsonlWriter jsonl(sink);
  CampaignJobOptions options;
  options.jsonl = &jsonl;
  const faultgen::CampaignResult result = run_campaign(engine, options);
  EXPECT_TRUE(result.metrics.empty());
  EXPECT_EQ(canonical_aggregates(result).find("metrics="), std::string::npos);
  EXPECT_EQ(sink.str().find("\"metrics\""), std::string::npos);
}

TEST(CampaignRunner, IsolatesRunsThatThrow) {
  // An unknown topology makes every run_one throw (the engine constructor
  // itself does not resolve the topology): the campaign must survive with
  // every run reported as errored rather than crash or hang.
  faultgen::CampaignConfig config = small_campaign(6, 5);
  config.topology = "no-such-topology";
  const faultgen::CampaignEngine engine(config);
  std::ostringstream sink;
  JsonlWriter jsonl(sink);
  CampaignJobOptions options;
  options.runner.jobs = 2;
  options.jsonl = &jsonl;
  CampaignJobStats stats;
  const faultgen::CampaignResult result = run_campaign(engine, options, &stats);
  EXPECT_EQ(result.runs, 0u);  // nothing aggregated
  EXPECT_EQ(stats.errored, 6u);
  EXPECT_EQ(jsonl.lines_written(), 6u);
  const auto lines = common::split(sink.str(), '\n', false);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"verdict\":\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("no-such-topology"), std::string::npos) << line;
  }
}

TEST(CampaignRunner, ParallelRunStillDetectsPlantedViolations) {
  // The mutation self-test from test_faultgen, through the parallel path:
  // a hop budget below the NIP recovery path must still be caught, with
  // the violating run's seed preserved in the report and the JSONL verdict.
  faultgen::CampaignConfig config = small_campaign(30, 1234);
  config.hop_budget_override = 3;
  config.schedule.per_link_failure_probability = 0.8;
  config.packets_per_run = 20;
  const faultgen::CampaignEngine engine(config);

  const faultgen::CampaignResult serial = engine.run();
  ASSERT_FALSE(serial.ok()) << "planted hop-budget bug was not detected";

  std::ostringstream sink;
  JsonlWriter jsonl(sink);
  CampaignJobOptions options;
  options.runner.jobs = 4;
  options.jsonl = &jsonl;
  const faultgen::CampaignResult parallel = run_campaign(engine, options);
  EXPECT_EQ(canonical_aggregates(parallel), canonical_aggregates(serial));
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.reports.front().run_seed, serial.reports.front().run_seed);
  EXPECT_NE(sink.str().find("\"verdict\":\"violation\""), std::string::npos);
  EXPECT_NE(sink.str().find("\"first_violation\":"), std::string::npos);
}

// The rnp28 grid of the campaign_rnp28 benchmark (hot-potato, any-valid-
// port and not-input-port deflection x the four schedule families, 200
// packets per run; fewer runs per cell), pinned to a golden capture made
// without the wrong-edge re-encode memo and with every injection queued at
// setup. Both mechanisms claim to be exact; any drift in a counter or a
// hexfloat summary fails here. Regenerate (only for an intended change)
// with KAR_UPDATE_GOLDEN=1 ./build/tests/test_campaign_runner.
TEST(CampaignRunner, Rnp28GridAggregatesMatchTheGoldenCapture) {
  const std::string golden =
      KAR_TESTS_SOURCE_DIR "/golden/campaign_rnp28_grid.txt";
  std::string actual;
  for (const auto technique : {dataplane::DeflectionTechnique::kHotPotato,
                               dataplane::DeflectionTechnique::kAnyValidPort,
                               dataplane::DeflectionTechnique::kNotInputPort}) {
    std::uint64_t reencodes = 0;
    for (const auto schedule : {faultgen::ScheduleKind::kRandomUpDown,
                                faultgen::ScheduleKind::kSrlgGroups,
                                faultgen::ScheduleKind::kFlapping,
                                faultgen::ScheduleKind::kKFailureSweep}) {
      faultgen::CampaignConfig config;
      config.topology = "rnp28";
      config.technique = technique;
      config.schedule.kind = schedule;
      config.runs = 20;
      config.packets_per_run = 200;
      config.seed = 5;
      const faultgen::CampaignEngine engine(config);
      actual += "# " + std::string(dataplane::to_string(technique)) + " " +
                std::string(faultgen::to_string(schedule)) + "\n";
      const faultgen::CampaignResult result = run_campaign(engine, {});
      reencodes += result.totals.reencodes;
      actual += canonical_aggregates(result);
    }
    // Each technique's row must exercise the re-encode path it pins.
    ASSERT_GT(reencodes, 0u) << dataplane::to_string(technique);
  }

  if (std::getenv("KAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden;
    out << actual;
    GTEST_SKIP() << "golden file regenerated; review the diff";
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace kar::runner
