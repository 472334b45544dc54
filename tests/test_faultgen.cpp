// Fault-injection campaign engine: schedule generators, the runtime
// invariant checker (including the mutation self-test that proves a broken
// invariant is detected and reported with its seed and a shrunk schedule),
// and end-to-end smoke campaigns.
#include "faultgen/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "faultgen/invariants.hpp"
#include "faultgen/schedule.hpp"
#include "routing/controller.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar::faultgen {
namespace {

using dataplane::DeflectionTechnique;
using sim::TraceEvent;

// ---------------------------------------------------------------------------
// Schedule generators.
// ---------------------------------------------------------------------------

TEST(Schedule, GeneratorsAreDeterministicInTheSeed) {
  const topo::Scenario s = topo::make_experimental15();
  for (const auto kind :
       {ScheduleKind::kRandomUpDown, ScheduleKind::kSrlgGroups,
        ScheduleKind::kFlapping, ScheduleKind::kKFailureSweep}) {
    ScheduleConfig config;
    config.kind = kind;
    common::Rng a(42);
    common::Rng b(42);
    common::Rng c(43);
    const auto first = generate_schedule(s.topology, config, a);
    const auto second = generate_schedule(s.topology, config, b);
    const auto other = generate_schedule(s.topology, config, c);
    EXPECT_EQ(first.events, second.events) << to_string(kind);
    EXPECT_NE(first.events, other.events) << to_string(kind);
  }
}

TEST(Schedule, EventsSortedWithinHorizonAndSkipEdgeLinks) {
  const topo::Scenario s = topo::make_experimental15();
  auto rng = testsupport::make_rng(7, "Schedule.EventsSorted");
  for (const auto kind :
       {ScheduleKind::kRandomUpDown, ScheduleKind::kSrlgGroups,
        ScheduleKind::kFlapping, ScheduleKind::kKFailureSweep}) {
    ScheduleConfig config;
    config.kind = kind;
    const auto schedule = generate_schedule(s.topology, config, rng);
    ASSERT_FALSE(schedule.empty()) << to_string(kind);
    double last = 0.0;
    for (const LinkEvent& event : schedule.events) {
      EXPECT_GE(event.time, last);
      EXPECT_LT(event.time, config.horizon_s);
      last = event.time;
      const topo::Link& link = s.topology.link(event.link);
      EXPECT_EQ(s.topology.kind(link.a.node), topo::NodeKind::kCoreSwitch);
      EXPECT_EQ(s.topology.kind(link.b.node), topo::NodeKind::kCoreSwitch);
    }
  }
}

TEST(Schedule, SrlgGroupsFailTogether) {
  const topo::Scenario s = topo::make_rnp28();
  ScheduleConfig config;
  config.kind = ScheduleKind::kSrlgGroups;
  config.group_count = 3;
  config.group_size = 3;
  auto rng = testsupport::make_rng(11, "Schedule.Srlg");
  const auto schedule = generate_schedule(s.topology, config, rng);
  // Group members share their fail timestamp: count links per fail time.
  std::map<double, std::size_t> fails_at;
  for (const LinkEvent& event : schedule.events) {
    if (event.fail) ++fails_at[event.time];
  }
  ASSERT_EQ(fails_at.size(), config.group_count);
  for (const auto& [time, count] : fails_at) {
    EXPECT_EQ(count, config.group_size) << "at t=" << time;
  }
}

TEST(Schedule, FlappingAlternatesPerLink) {
  const topo::Scenario s = topo::make_fig1_network();
  ScheduleConfig config;
  config.kind = ScheduleKind::kFlapping;
  config.flapping_links = 1;
  config.flap_half_period_s = 0.05;
  config.horizon_s = 0.5;
  auto rng = testsupport::make_rng(3, "Schedule.Flap");
  const auto schedule = generate_schedule(s.topology, config, rng);
  ASSERT_GE(schedule.size(), 8u);
  bool expect_fail = true;
  for (const LinkEvent& event : schedule.events) {
    EXPECT_EQ(event.link, schedule.events.front().link);
    EXPECT_EQ(event.fail, expect_fail);
    expect_fail = !expect_fail;
  }
}

TEST(Schedule, SweepFailsKDistinctLinksWithoutRepair) {
  const topo::Scenario s = topo::make_experimental15();
  ScheduleConfig config;
  config.kind = ScheduleKind::kKFailureSweep;
  config.k_failures = 4;
  auto rng = testsupport::make_rng(5, "Schedule.Sweep");
  const auto schedule = generate_schedule(s.topology, config, rng);
  ASSERT_EQ(schedule.size(), 4u);
  std::set<topo::LinkId> links;
  for (const LinkEvent& event : schedule.events) {
    EXPECT_TRUE(event.fail);
    links.insert(event.link);
  }
  EXPECT_EQ(links.size(), 4u);
}

TEST(Schedule, DescribeUsesNodeNames) {
  const topo::Scenario s = topo::make_fig1_network();
  FailureSchedule schedule;
  schedule.events.push_back(
      {0.25, *s.topology.link_between(s.topology.at("SW7"), s.topology.at("SW11")),
       true});
  EXPECT_EQ(schedule.describe(s.topology), "t=0.25 fail SW7-SW11\n");
}

// ---------------------------------------------------------------------------
// Invariant checker on crafted event streams.
// ---------------------------------------------------------------------------

struct CheckerFixture : public ::testing::Test {
  CheckerFixture()
      : scenario(topo::make_fig1_network()),
        controller(scenario.topology),
        net(scenario.topology, controller, {}) {}

  InvariantChecker make_checker(InvariantConfig config = {}) {
    return InvariantChecker(net, config);
  }

  static TraceEvent event(TraceEvent::Kind kind, double time,
                          std::uint64_t packet_id, topo::NodeId node) {
    return TraceEvent{kind, time, packet_id, node, 0, false,
                      dataplane::DropReason::kNoViablePort, 0, nullptr};
  }

  topo::Scenario scenario;
  routing::Controller controller;
  sim::Network net;
};

TEST_F(CheckerFixture, CleanLifecyclePasses) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW4"));
  hop.out_port = 0;  // SW4 port 0 -> SW7: the residue of route 44 (44 mod 4)
  hop.in_port = 1;
  dataplane::Packet packet;
  packet.kar.route_id = rns::BigUint(44);
  hop.packet = &packet;
  checker.observe(hop);
  checker.observe(event(TraceEvent::Kind::kDeliver, 0.2, 1, scenario.topology.at("D")));
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.in_flight(), 0u);
}

TEST_F(CheckerFixture, NipReturnToInputPortIsFlagged) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW4"));
  hop.out_port = 1;
  hop.in_port = 1;  // forwarded straight back: forbidden under NIP
  hop.deflected = true;
  checker.observe(hop);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().kind,
            Violation::Kind::kNipReturnedInputPort);
}

TEST_F(CheckerFixture, ResidueMismatchIsFlagged) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  dataplane::Packet packet;
  packet.kar.route_id = rns::BigUint(44);  // 44 mod 4 == 0, not port 1
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW4"));
  hop.out_port = 1;
  hop.in_port = 0;
  hop.deflected = false;  // claims to follow the residue
  hop.packet = &packet;
  checker.observe(hop);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kResidueMismatch);
}

// The other half of the residue check: a switch may leave its residue
// only when that residue names no usable port. Fig. 1's SW7 (ID 7) has
// ports 0 -> SW4, 1 -> SW5, 2 -> SW11; route 8 decodes to port 1 there,
// route 13 to port 6, which does not exist.
TEST_F(CheckerFixture, DeflectionOffAUsableResidueIsFlagged) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  dataplane::Packet packet;
  packet.kar.route_id = rns::BigUint(8);  // 8 mod 7 == 1: SW5, up
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW7"));
  hop.out_port = 2;
  hop.in_port = 0;
  hop.deflected = true;
  hop.packet = &packet;
  checker.observe(hop);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kResidueMismatch);

  // The same deflection is legal once the residue port is detected down.
  scenario.topology.fail_link("SW7", "SW5");
  auto legal = make_checker();
  legal.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  legal.observe(hop);
  EXPECT_TRUE(legal.ok());
}

TEST_F(CheckerFixture, NoneDropOnAUsableResidueIsFlagged) {
  InvariantConfig config;
  config.technique = DeflectionTechnique::kNone;
  auto checker = make_checker(config);
  dataplane::Packet usable;
  usable.kar.route_id = rns::BigUint(8);  // 8 mod 7 == 1: SW5, up
  dataplane::Packet out_of_range;
  out_of_range.kar.route_id = rns::BigUint(13);  // 13 mod 7 == 6: no port
  for (const std::uint64_t id : {1, 2}) {
    checker.observe(
        event(TraceEvent::Kind::kInject, 0.0, id, scenario.topology.at("S")));
  }
  auto drop = event(TraceEvent::Kind::kDrop, 0.1, 1, scenario.topology.at("SW7"));
  drop.packet = &out_of_range;
  checker.observe(drop);
  EXPECT_TRUE(checker.ok());
  drop.packet_id = 2;
  drop.packet = &usable;
  checker.observe(drop);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kResidueMismatch);
  EXPECT_EQ(checker.violations().front().packet_id, 2u);
}

TEST_F(CheckerFixture, HotPotatoWalkIsExemptUntilReencode) {
  InvariantConfig config;
  config.technique = DeflectionTechnique::kHotPotato;
  auto checker = make_checker(config);
  const topo::NodeId sw4 = scenario.topology.at("SW4");
  const topo::NodeId sw7 = scenario.topology.at("SW7");
  const topo::NodeId d = scenario.topology.at("D");
  dataplane::Packet packet;
  packet.kar.route_id = rns::BigUint(13);  // SW7: port 6 (none); SW4: port 1 (S)
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  // The first deflection starts the walk; the residue was unusable.
  auto first = event(TraceEvent::Kind::kHop, 0.1, 1, sw7);
  first.out_port = 0;
  first.in_port = 2;
  first.deflected = true;
  first.packet = &packet;
  checker.observe(first);
  // On the walk the usable residue at SW4 is ignored, also after a bounce.
  auto walk = event(TraceEvent::Kind::kHop, 0.2, 1, sw4);
  walk.out_port = 0;
  walk.in_port = 0;
  walk.deflected = true;
  walk.packet = &packet;
  checker.observe(walk);
  checker.observe(event(TraceEvent::Kind::kBounce, 0.3, 1, d));
  walk.time = 0.4;
  checker.observe(walk);
  EXPECT_TRUE(checker.ok());
  // A re-encode ends the walk: the same deflection is now a violation.
  checker.observe(event(TraceEvent::Kind::kReencode, 0.5, 1, d));
  walk.time = 0.6;
  checker.observe(walk);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kResidueMismatch);
}

TEST_F(CheckerFixture, NipDeflectionOffAResidueThatIsTheInputPortPasses) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  dataplane::Packet packet;
  packet.kar.route_id = rns::BigUint(8);  // 8 mod 7 == 1: SW5, up
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW7"));
  hop.out_port = 2;
  hop.in_port = 1;  // arrived from SW5: Algorithm 1 must not send it back
  hop.deflected = true;
  hop.packet = &packet;
  checker.observe(hop);
  EXPECT_TRUE(checker.ok());
}

TEST_F(CheckerFixture, ForwardOnDetectedDownPortIsFlagged) {
  scenario.topology.fail_link("SW7", "SW11");
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  auto hop = event(TraceEvent::Kind::kHop, 0.1, 1, scenario.topology.at("SW7"));
  hop.out_port = 2;  // SW7 port 2 -> SW11, which is detected-down
  hop.in_port = 0;
  hop.deflected = true;
  checker.observe(hop);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kForwardOnDownPort);
}

TEST_F(CheckerFixture, TimeRunningBackwardsIsFlagged) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.5, 1, scenario.topology.at("S")));
  checker.observe(event(TraceEvent::Kind::kDeliver, 0.4, 1, scenario.topology.at("D")));
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kTimeNonMonotonic);
}

TEST_F(CheckerFixture, DoubleTerminalIsFlagged) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  checker.observe(event(TraceEvent::Kind::kDeliver, 0.1, 1, scenario.topology.at("D")));
  checker.observe(event(TraceEvent::Kind::kDeliver, 0.2, 1, scenario.topology.at("D")));
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().kind, Violation::Kind::kLifecycle);
}

TEST_F(CheckerFixture, EachLifecycleViolationIsRecorded) {
  auto checker = make_checker();
  const topo::NodeId s = scenario.topology.at("S");
  const topo::NodeId d = scenario.topology.at("D");
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, s));
  checker.observe(event(TraceEvent::Kind::kInject, 0.1, 1, s));  // duplicate
  // A hop and an edge event for packets never injected, one beyond every
  // id seen so far.
  checker.observe(event(TraceEvent::Kind::kHop, 0.2, 7, scenario.topology.at("SW4")));
  checker.observe(event(TraceEvent::Kind::kBounce, 0.2, 7, d));
  checker.observe(event(TraceEvent::Kind::kDeliver, 0.3, 1, d));
  checker.observe(event(TraceEvent::Kind::kDrop, 0.4, 1, d));  // second terminal
  EXPECT_EQ(checker.in_flight(), 0u);
  // A packet delivered once may be injected again under the same id.
  checker.observe(event(TraceEvent::Kind::kInject, 0.5, 1, s));
  EXPECT_EQ(checker.in_flight(), 1u);

  const std::vector<Violation>& v = checker.violations();
  ASSERT_EQ(v.size(), 4u);
  const std::pair<std::uint64_t, const char*> expected[] = {
      {1, "packet injected twice"},
      {7, "hop for a packet that is not in flight"},
      {7, "edge event for a packet that is not in flight"},
      {1, "terminal event for a packet that is not in flight"}};
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i].kind, Violation::Kind::kLifecycle) << i;
    EXPECT_EQ(v[i].packet_id, expected[i].first) << i;
    EXPECT_EQ(v[i].detail, expected[i].second) << i;
  }
}

TEST_F(CheckerFixture, VanishedPacketFailsConservation) {
  auto checker = make_checker();
  checker.observe(event(TraceEvent::Kind::kInject, 0.0, 1, scenario.topology.at("S")));
  checker.finish(/*queue_drained=*/true);
  ASSERT_FALSE(checker.ok());
  const bool found = std::any_of(
      checker.violations().begin(), checker.violations().end(),
      [](const Violation& v) { return v.kind == Violation::Kind::kConservation; });
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// End-to-end: live simulation through the checker.
// ---------------------------------------------------------------------------

TEST(Campaign, LiveRunUnderFailuresSatisfiesAllInvariants) {
  CampaignConfig config;
  config.topology = "fig1";
  config.technique = DeflectionTechnique::kNotInputPort;
  config.runs = 1;
  config.packets_per_run = 30;
  config.seed = testsupport::seed_or(99);
  const CampaignEngine engine(config);
  const RunResult run = engine.run_one(engine.run_seed_at(0));
  EXPECT_TRUE(run.violations.empty());
  EXPECT_TRUE(run.queue_drained);
  EXPECT_EQ(run.counters.injected,
            run.counters.delivered + run.counters.total_drops());
}

TEST(Campaign, AllScheduleKindsRunCleanOnFig2) {
  for (const auto kind :
       {ScheduleKind::kRandomUpDown, ScheduleKind::kSrlgGroups,
        ScheduleKind::kFlapping, ScheduleKind::kKFailureSweep}) {
    CampaignConfig config;
    config.topology = "fig2";
    config.schedule.kind = kind;
    config.runs = 5;
    config.packets_per_run = 10;
    config.seed = testsupport::seed_or(17);
    CampaignEngine engine(config);
    const CampaignResult result = engine.run();
    EXPECT_TRUE(result.ok()) << to_string(kind);
    EXPECT_EQ(result.runs, 5u);
    EXPECT_EQ(result.totals.injected, 50u);
  }
}

TEST(Campaign, RunsAreReproducibleFromTheRunSeed) {
  CampaignConfig config;
  config.topology = "fig2";
  config.technique = DeflectionTechnique::kHotPotato;
  config.runs = 1;
  config.packets_per_run = 25;
  config.seed = testsupport::seed_or(5);
  const CampaignEngine engine(config);
  const std::uint64_t seed = engine.run_seed_at(0);
  const RunResult a = engine.run_one(seed);
  const RunResult b = engine.run_one(seed);
  EXPECT_EQ(a.schedule.events, b.schedule.events);
  EXPECT_EQ(a.counters.delivered, b.counters.delivered);
  EXPECT_EQ(a.counters.hops, b.counters.hops);
  EXPECT_EQ(a.delivered_hops, b.delivered_hops);
}

// The acceptance mutation check: deliberately tighten the hop budget below
// what the NIP recovery path needs. The checker must detect it, the report
// must carry the run seed, and greedy shrinking must reduce the schedule
// to a still-violating core that replays.
TEST(Campaign, MutatedInvariantIsDetectedWithSeedAndShrunkSchedule) {
  CampaignConfig config;
  config.topology = "fig1";
  config.technique = DeflectionTechnique::kNotInputPort;
  config.protection = topo::ProtectionLevel::kPartial;
  // Recovery via SW5 takes 4 hops; the primary path only 3. A budget of 3
  // is the planted bug: it only trips when a failure forces deflection.
  config.hop_budget_override = 3;
  config.schedule.kind = ScheduleKind::kRandomUpDown;
  config.schedule.per_link_failure_probability = 0.8;
  config.runs = 30;
  config.packets_per_run = 20;
  config.seed = testsupport::seed_or(1234);
  CampaignEngine engine(config);
  const CampaignResult result = engine.run();

  ASSERT_FALSE(result.ok()) << "planted hop-budget bug was not detected";
  const ViolationReport& report = result.reports.front();
  EXPECT_EQ(report.first.kind, Violation::Kind::kHopBudgetExceeded);
  EXPECT_NE(report.run_seed, 0u);
  EXPECT_FALSE(report.shrunk.empty());
  EXPECT_LE(report.shrunk.size(), report.original.size());
  EXPECT_NE(report.shrunk_description.find("fail"), std::string::npos);

  // The shrunk schedule must still reproduce the violation from the seed...
  const RunResult replay = engine.run_one(report.run_seed, &report.shrunk);
  EXPECT_FALSE(replay.violations.empty());
  // ...and be 1-minimal: removing any remaining event loses it.
  for (std::size_t i = 0; i < report.shrunk.size(); ++i) {
    FailureSchedule smaller;
    for (std::size_t j = 0; j < report.shrunk.size(); ++j) {
      if (j != i) smaller.events.push_back(report.shrunk.events[j]);
    }
    const RunResult gone = engine.run_one(report.run_seed, &smaller);
    EXPECT_TRUE(gone.violations.empty())
        << "shrunk schedule is not minimal: event " << i << " is removable";
  }
}

TEST(Campaign, UnknownTopologyThrows) {
  EXPECT_THROW(make_campaign_scenario("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace kar::faultgen
