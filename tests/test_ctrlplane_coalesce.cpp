// Cross-epoch link coalescing (ctrlplane/coalesce.hpp): unit semantics of
// the LinkCoalescer window, and the flap-storm differential that makes
// the bounded-staleness claim concrete — replaying a storm through
// coalescing windows must land on the exact table (and forwarding
// behavior) of per-event serial application, in far fewer epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/coalesce.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "faultgen/schedule.hpp"
#include "support/full_recompute.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::EngineConfig;
using ctrlplane::LinkChange;
using ctrlplane::LinkCoalescer;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;

TEST(LinkCoalescer, EvenFlapNetsToNothing) {
  LinkCoalescer c;
  EXPECT_TRUE(c.empty());
  c.note(3, /*up=*/false, /*present=*/true);   // down...
  c.note(3, /*up=*/true, /*present=*/false);   // ...and back up
  EXPECT_EQ(c.pending(), 1u);
  const auto net = c.drain();
  EXPECT_TRUE(net.empty());
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.stats().noted, 2u);
  EXPECT_EQ(c.stats().emitted, 0u);
  EXPECT_EQ(c.stats().absorbed, 2u);
  EXPECT_EQ(c.stats().drains, 1u);
}

TEST(LinkCoalescer, OddFlapEmitsExactlyOne) {
  LinkCoalescer c;
  c.note(7, false, true);
  c.note(7, true, false);
  c.note(7, false, true);  // down, up, down — odd, net down
  const auto net = c.drain();
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].link, 7u);
  EXPECT_FALSE(net[0].up);
  EXPECT_EQ(c.stats().noted, 3u);
  EXPECT_EQ(c.stats().emitted, 1u);
  EXPECT_EQ(c.stats().absorbed, 2u);
}

TEST(LinkCoalescer, AlreadyInStateTransitionIsAbsorbed) {
  // A "down" for a link that is already down is raw churn with no net
  // change — it must count as absorbed, not emitted (the daemon's
  // kar_daemon_coalesced_events_total counts exactly these plus flaps).
  LinkCoalescer c;
  c.note(5, /*up=*/false, /*present=*/false);
  const auto net = c.drain();
  EXPECT_TRUE(net.empty());
  EXPECT_EQ(c.stats().noted, 1u);
  EXPECT_EQ(c.stats().absorbed, 1u);
}

TEST(LinkCoalescer, EmitsInFirstNoteOrder) {
  LinkCoalescer c;
  c.note(9, false, true);
  c.note(2, false, true);
  c.note(9, true, false);
  c.note(2, false, false);  // repeat notes must not reorder the emission
  c.note(9, false, true);
  c.note(4, false, true);
  const auto net = c.drain();
  ASSERT_EQ(net.size(), 3u);
  EXPECT_EQ(net[0].link, 9u);
  EXPECT_EQ(net[1].link, 2u);
  EXPECT_EQ(net[2].link, 4u);
}

TEST(LinkCoalescer, FinalStateAnswersHeldTransitions) {
  LinkCoalescer c;
  EXPECT_TRUE(c.final_state(11, /*fallback=*/true));
  EXPECT_FALSE(c.final_state(11, /*fallback=*/false));
  c.note(11, false, true);
  EXPECT_FALSE(c.final_state(11, /*fallback=*/true));  // held down wins
  c.note(11, true, false);
  EXPECT_TRUE(c.final_state(11, /*fallback=*/false));
  (void)c.drain();
  EXPECT_TRUE(c.final_state(11, /*fallback=*/true));  // window reset
}

TEST(LinkCoalescer, BaselineIsFirstNoteStateAcrossWindows) {
  LinkCoalescer c;
  c.note(1, false, true);
  auto net = c.drain();
  ASSERT_EQ(net.size(), 1u);
  EXPECT_FALSE(net[0].up);
  // Next window: the link is now really down; an up-down pair nets away.
  c.note(1, true, false);
  c.note(1, false, true /* stale `present` must be ignored: not first */);
  net = c.drain();
  EXPECT_TRUE(net.empty());
  EXPECT_EQ(c.stats().noted, 3u);
  EXPECT_EQ(c.stats().emitted, 1u);
  EXPECT_EQ(c.stats().absorbed, 2u);
  EXPECT_EQ(c.stats().drains, 2u);
}

TEST(LinkCoalescer, EmptyDrainDoesNotCountAsWindow) {
  LinkCoalescer c;
  EXPECT_TRUE(c.drain().empty());
  EXPECT_EQ(c.stats().drains, 0u);
}

TEST(LinkCoalescer, AccountingInvariantHoldsUnderRandomChurn) {
  LinkCoalescer c;
  common::Rng rng = testsupport::make_rng(0xc0a1e5ce, "CoalescerInvariant");
  std::vector<bool> real(16, true);
  for (int window = 0; window < 200; ++window) {
    const std::size_t notes = 1 + rng.below(8);
    for (std::size_t i = 0; i < notes; ++i) {
      const auto link = static_cast<topo::LinkId>(rng.below(real.size()));
      const bool up = rng.below(2) == 0;
      c.note(link, up, real[link]);
    }
    for (const LinkChange& change : c.drain()) real[change.link] = change.up;
    ASSERT_EQ(c.stats().noted, c.stats().emitted + c.stats().absorbed);
  }
  EXPECT_GT(c.stats().absorbed, 0u);
}

// ---------------------------------------------------------------------------
// Flap-storm differential: serial per-event application vs the coalescing
// window, as the daemon flusher and churn_convergence drive it.

topo::Scenario make_scenario(const std::string& name) {
  return name == "fig2" ? topo::make_experimental15() : topo::make_rnp28();
}

struct StormRun {
  RouteStore store;
  std::size_t epochs = 0;
  explicit StormRun(const topo::Topology& t) : store(t) {}
};

// Replays `schedule` into a fresh engine; window_s == 0 applies one epoch
// per event timestamp, window_s > 0 batches through a LinkCoalescer.
void run_storm(topo::Scenario& s, const faultgen::FailureSchedule& schedule,
               std::uint64_t seed, double window_s, bool plan_protection,
               StormRun& run) {
  topo::Topology& t = s.topology;
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  EngineConfig config;
  config.plan_protection = plan_protection;
  ReconvergenceEngine engine(t, run.store, config);
  common::Rng route_rng(common::derive_seed(seed, 0x90f7e5));
  for (std::size_t i = 0; i < 25; ++i) {
    const std::size_t si = route_rng.below(edges.size());
    std::size_t di = route_rng.below(edges.size() - 1);
    if (di >= si) ++di;
    (void)engine.add_route(edges[si], edges[di]);
  }

  const auto apply = [&](const std::vector<LinkChange>& events) {
    (void)engine.apply(events);
    ++run.epochs;
  };
  if (window_s <= 0.0) {
    std::size_t i = 0;
    while (i < schedule.events.size()) {
      std::size_t j = i;
      std::vector<LinkChange> events;
      while (j < schedule.events.size() &&
             schedule.events[j].time == schedule.events[i].time) {
        const faultgen::LinkEvent& e = schedule.events[j];
        t.set_link_up(e.link, !e.fail);
        events.push_back(LinkChange{e.link, !e.fail});
        ++j;
      }
      apply(events);
      i = j;
    }
  } else {
    LinkCoalescer coalescer;
    double window_start = 0.0;
    const auto drain = [&] {
      const auto events = coalescer.drain();
      for (const LinkChange& e : events) t.set_link_up(e.link, e.up);
      if (!events.empty()) apply(events);
    };
    for (const faultgen::LinkEvent& e : schedule.events) {
      if (!coalescer.empty() && e.time >= window_start + window_s) drain();
      if (coalescer.empty()) window_start = e.time;
      coalescer.note(e.link, !e.fail, t.link_up(e.link));
    }
    drain();
  }
}

class CoalesceStorm : public ::testing::TestWithParam<const char*> {};

TEST_P(CoalesceStorm, WindowedReplayMatchesSerialTables) {
  const std::string topology = GetParam();
  const double horizon_s = 1.0;
  const double window_s = 0.1;
  for (std::uint64_t sequence = 0; sequence < 8; ++sequence) {
    faultgen::ScheduleConfig schedule_config;
    schedule_config.horizon_s = horizon_s;
    schedule_config.kind = faultgen::ScheduleKind::kFlapping;
    schedule_config.flapping_links = 3;
    schedule_config.flap_half_period_s = 0.01;  // 10 transitions per window
    common::Rng schedule_rng(common::derive_seed(0xf1a9, sequence));
    topo::Scenario schedule_scenario = make_scenario(topology);
    (void)topo::attach_host_edges(schedule_scenario.topology);
    const faultgen::FailureSchedule schedule = faultgen::generate_schedule(
        schedule_scenario.topology, schedule_config, schedule_rng);
    if (schedule.empty()) continue;

    // Distinct Scenario objects (link IDs are deterministic per builder):
    // the serial replay mutates link state per event, the windowed one
    // only at drains.
    topo::Scenario serial_scenario = make_scenario(topology);
    (void)topo::attach_host_edges(serial_scenario.topology);
    topo::Scenario windowed_scenario = make_scenario(topology);
    (void)topo::attach_host_edges(windowed_scenario.topology);
    const bool plan_protection = (sequence % 2 == 0);
    StormRun serial(serial_scenario.topology);
    StormRun windowed(windowed_scenario.topology);
    run_storm(serial_scenario, schedule, sequence, 0.0, plan_protection,
              serial);
    run_storm(windowed_scenario, schedule, sequence, window_s,
              plan_protection, windowed);

    const std::string tag = topology + " storm " + std::to_string(sequence);
    // Strict epoch bound: one epoch per expired window plus the final
    // drain — NOT one per raw transition. With a 0.01 s half-period and a
    // 0.1 s window the serial replay pays an order of magnitude more.
    const auto max_windows =
        static_cast<std::size_t>(std::ceil(horizon_s / window_s)) + 1;
    ASSERT_LE(windowed.epochs, max_windows) << tag;
    ASSERT_LT(windowed.epochs, serial.epochs) << tag;

    // Final link states agree...
    const topo::Topology& ts = serial_scenario.topology;
    const topo::Topology& tw = windowed_scenario.topology;
    for (topo::LinkId link = 0; link < ts.link_count(); ++link) {
      ASSERT_EQ(ts.link_up(link), tw.link_up(link)) << tag << " link " << link;
    }
    // ...and so do the tables, down to the forwarding traces.
    ASSERT_EQ(serial.store.size(), windowed.store.size()) << tag;
    for (RouteKey key = 0; key < serial.store.size(); ++key) {
      const auto& a = serial.store.get(key);
      const auto& b = windowed.store.get(key);
      ASSERT_EQ(a.live, b.live) << tag << ", route " << key;
      if (!a.live) continue;
      ASSERT_EQ(a.core_path, b.core_path) << tag << ", route " << key;
      ASSERT_EQ(a.route.route_id, b.route.route_id) << tag << ", route " << key;
      ASSERT_EQ(testsupport::forwarding_trace(ts, a.route),
                testsupport::forwarding_trace(tw, b.route))
          << tag << ", route " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, CoalesceStorm,
                         ::testing::Values("fig2", "rnp28"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace kar
