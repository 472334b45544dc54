// Differential proof that the incremental reconvergence engine and the
// full-recompute reference (support/full_recompute.hpp) maintain
// bit-identical route tables.
//
// 200 seeded churn sequences across fig1, fig2 (the 15-node experimental
// network) and rnp28, with host edges attached so every topology offers
// many distinct edge pairs. Each sequence runs the engine and the reference
// over the SAME topology object through the same epochs (schedule events
// grouped by timestamp) and asserts, after every epoch: identical version,
// liveness, route IDs, port assignments, primary core paths, changed-group
// lists and pure-modulo forwarding traces.
//
// Schedule families rotate through fail/repair churn (kRandomUpDown),
// correlated cuts (kSrlgGroups), flapping and permanent k-failure sweeps;
// every encoding carries its driven-deflection protection, as the engine
// always plans it.
//
// A second suite mixes admissions and withdrawals into the churn epochs
// (apply(events, installs, withdraws)) and holds the engine and the
// reference to identical per-key liveness, tombstones, version stamps,
// route IDs, core paths and forwarding traces, and identical changed-group
// lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "faultgen/schedule.hpp"
#include "support/full_recompute.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::LinkChange;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using faultgen::FailureSchedule;
using faultgen::ScheduleConfig;
using faultgen::ScheduleKind;
using testsupport::FullRecomputeReference;
using topo::Scenario;

Scenario make_scenario(const std::string& name) {
  if (name == "fig1") return topo::make_fig1_network();
  if (name == "fig2") return topo::make_experimental15();
  return topo::make_rnp28();
}

ScheduleConfig schedule_for(std::uint64_t sequence) {
  ScheduleConfig config;
  config.horizon_s = 1.0;
  switch (sequence % 4) {
    case 0:
      config.kind = ScheduleKind::kRandomUpDown;
      config.per_link_failure_probability = 0.35;
      config.mean_downtime_s = 0.3;
      break;
    case 1:
      config.kind = ScheduleKind::kSrlgGroups;
      config.group_count = 2;
      config.group_size = 2;
      config.mean_downtime_s = 0.25;
      break;
    case 2:
      config.kind = ScheduleKind::kFlapping;
      config.flapping_links = 2;
      config.flap_half_period_s = 0.1;
      break;
    default:
      config.kind = ScheduleKind::kKFailureSweep;
      config.k_failures = 3;
      break;
  }
  return config;
}

void expect_identical_tables(const topo::Topology& t, const RouteStore& inc,
                             const RouteStore& full, const std::string& where) {
  ASSERT_EQ(inc.size(), full.size());
  for (RouteKey key = 0; key < inc.size(); ++key) {
    const auto& a = inc.get(key);
    const auto& b = full.get(key);
    ASSERT_EQ(a.live, b.live) << where << ", route " << key << " ("
                              << t.name(a.src) << " -> " << t.name(a.dst) << ")";
    if (!a.live) continue;
    ASSERT_EQ(a.core_path, b.core_path) << where << ", route " << key;
    ASSERT_EQ(a.route.route_id, b.route.route_id)
        << where << ", route " << key << " (" << t.name(a.src) << " -> "
        << t.name(a.dst) << ")";
    ASSERT_EQ(a.route.assignments.size(), b.route.assignments.size())
        << where << ", route " << key;
    for (std::size_t i = 0; i < a.route.assignments.size(); ++i) {
      ASSERT_EQ(a.route.assignments[i].node, b.route.assignments[i].node)
          << where << ", route " << key << ", assignment " << i;
      ASSERT_EQ(a.route.assignments[i].port, b.route.assignments[i].port)
          << where << ", route " << key << ", assignment " << i;
    }
    ASSERT_EQ(testsupport::forwarding_trace(t, a.route),
              testsupport::forwarding_trace(t, b.route))
        << where << ", route " << key;
  }
}

void run_sequence(const std::string& topology, std::uint64_t sequence,
                  common::Rng& rng) {
  Scenario s = make_scenario(topology);
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  ASSERT_GE(edges.size(), 2u);

  RouteStore inc_store(t);
  RouteStore full_store(t);
  ReconvergenceEngine inc(t, inc_store);
  FullRecomputeReference full(t, full_store);

  const std::size_t route_count = 25;
  for (std::size_t i = 0; i < route_count; ++i) {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;  // uniform over the other edges
    ASSERT_EQ(inc.add_route(edges[si], edges[di]),
              full.add_route(edges[si], edges[di]));
  }
  const std::string tag = topology + " seq " + std::to_string(sequence);
  expect_identical_tables(t, inc_store, full_store, tag + " initial");

  common::Rng schedule_rng(common::derive_seed(0x0d1ffe12ULL, sequence));
  const FailureSchedule schedule =
      faultgen::generate_schedule(t, schedule_for(sequence), schedule_rng);

  // Group the time-sorted events into epochs (equal timestamps coalesce
  // into one epoch).
  std::size_t i = 0;
  std::size_t epoch_index = 0;
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
    const auto ri = inc.apply(events);
    const auto rf = full.apply(events);
    const std::string where = tag + " epoch " + std::to_string(epoch_index);
    ASSERT_EQ(ri.version, rf.version) << where;
    ASSERT_EQ(ri.changed, rf.changed) << where;
    expect_identical_tables(t, inc_store, full_store, where);
    i = j;
    ++epoch_index;
  }
}

// Mixed epochs: link events, route admissions and withdrawals in one
// apply(). The engine and the reference run the same epochs and must agree
// on the admitted keys, the changed groups and every key's liveness,
// tombstone, version stamp, encoding and forwarding trace. Admissions
// draw from a small endpoint pool so most join an existing group (live or
// dead); some epochs withdraw a key admitted in that same epoch, and
// withdrawn keys stay in the table through later reconvergence.
void run_mixed_sequence(const std::string& topology, std::uint64_t sequence,
                        common::Rng& rng) {
  Scenario s = make_scenario(topology);
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto all_edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  const std::vector<topo::NodeId> edges(
      all_edges.begin(),
      all_edges.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(6, all_edges.size())));

  RouteStore inc_store(t);
  RouteStore full_store(t);
  ReconvergenceEngine inc(t, inc_store);
  FullRecomputeReference full(t, full_store);

  const auto random_pair = [&] {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    return std::make_pair(edges[si], edges[di]);
  };
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [src, dst] = random_pair();
    ASSERT_EQ(inc.add_route(src, dst), full.add_route(src, dst));
  }
  std::vector<bool> withdrawn(full_store.size(), false);

  const std::string tag = topology + " mixed seq " + std::to_string(sequence);
  common::Rng schedule_rng(common::derive_seed(0x313ed5ULL, sequence));
  const FailureSchedule schedule =
      faultgen::generate_schedule(t, schedule_for(sequence), schedule_rng);

  std::size_t i = 0;
  std::size_t epoch_index = 0;
  while (i < schedule.events.size()) {
    std::size_t j = i;
    std::vector<LinkChange> events;
    // Every fourth epoch carries admissions and withdrawals only.
    if (epoch_index % 4 != 3) {
      while (j < schedule.events.size() &&
             schedule.events[j].time == schedule.events[i].time) {
        const faultgen::LinkEvent& e = schedule.events[j];
        t.set_link_up(e.link, !e.fail);
        events.push_back(LinkChange{e.link, !e.fail});
        ++j;
      }
    }
    // Admissions: half reuse the endpoints of an existing key (its group,
    // live or dead), half draw a fresh random pair.
    std::vector<std::pair<topo::NodeId, topo::NodeId>> installs;
    const std::size_t install_count = rng.below(4);
    for (std::size_t n = 0; n < install_count; ++n) {
      if (rng.below(2) == 0) {
        const auto existing = full_store.get(rng.below(full_store.size()));
        installs.emplace_back(existing.src, existing.dst);
      } else {
        installs.push_back(random_pair());
      }
    }
    const std::size_t first_new = full_store.size();
    withdrawn.resize(first_new + installs.size(), false);
    std::vector<RouteKey> withdraws;
    for (std::size_t n = rng.below(3); n > 0; --n) {
      const RouteKey key = rng.below(first_new);
      if (!withdrawn[key]) {
        withdrawn[key] = true;
        withdraws.push_back(key);
      }
    }
    if (!installs.empty() && rng.below(2) == 0) {
      const RouteKey key = first_new + rng.below(installs.size());
      withdrawn[key] = true;
      withdraws.push_back(key);
    }

    const std::string where = tag + " epoch " + std::to_string(epoch_index);
    std::vector<RouteKey> inc_keys;
    std::vector<RouteKey> full_keys;
    const auto ri = inc.apply(events, installs, withdraws, &inc_keys);
    const auto rf = full.apply(events, installs, withdraws, &full_keys);
    ASSERT_EQ(ri.version, rf.version) << where;
    ASSERT_EQ(inc_keys, full_keys) << where;
    ASSERT_EQ(ri.changed, rf.changed) << where;
    ASSERT_EQ(inc_store.live_count(), full_store.live_count()) << where;
    ASSERT_EQ(inc_store.withdrawn_count(), full_store.withdrawn_count())
        << where;
    expect_identical_tables(t, inc_store, full_store, where);
    for (RouteKey key = 0; key < full_store.size(); ++key) {
      const auto& a = inc_store.get(key);
      const auto& b = full_store.get(key);
      ASSERT_EQ(a.withdrawn, b.withdrawn) << where << ", route " << key;
      ASSERT_EQ(a.withdrawn, static_cast<bool>(withdrawn[key]))
          << where << ", route " << key;
      ASSERT_EQ(a.version, b.version) << where << ", route " << key;
    }
    i = j;
    ++epoch_index;
  }
}

// One topology and its churn-sequence count. PrintTo prints the topology
// name, so the listed parameter (and the ctest name built from it) does not
// carry the address of the string literal, which moves from run to run.
struct TopologyRuns {
  const char* topology;
  int sequences;
};

void PrintTo(const TopologyRuns& runs, std::ostream* os) {
  *os << runs.topology;
}

class CtrlplaneDifferential : public ::testing::TestWithParam<TopologyRuns> {};

TEST_P(CtrlplaneDifferential, IncrementalEqualsFullRecompute) {
  const auto [topology, sequences] = GetParam();
  common::Rng rng = testsupport::make_rng(
      0xd1ffULL ^ std::hash<std::string>{}(topology), "CtrlplaneDifferential");
  for (int sequence = 0; sequence < sequences; ++sequence) {
    run_sequence(topology, static_cast<std::uint64_t>(sequence), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 70 + 70 + 60 = 200 churn sequences.
INSTANTIATE_TEST_SUITE_P(
    Topologies, CtrlplaneDifferential,
    ::testing::Values(TopologyRuns{"fig1", 70},
                      TopologyRuns{"fig2", 70},
                      TopologyRuns{"rnp28", 60}));

class CtrlplaneMixedDifferential
    : public ::testing::TestWithParam<TopologyRuns> {};

// The name is kept from when incremental engines at several shard widths
// ran beside the reference.
TEST_P(CtrlplaneMixedDifferential, MixedEpochsAgreeAcrossEnginesAndWidths) {
  const auto [topology, sequences] = GetParam();
  common::Rng rng = testsupport::make_rng(
      0x313edULL ^ std::hash<std::string>{}(topology),
      "CtrlplaneMixedDifferential");
  for (int sequence = 0; sequence < sequences; ++sequence) {
    run_mixed_sequence(topology, static_cast<std::uint64_t>(sequence), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CtrlplaneMixedDifferential,
    ::testing::Values(TopologyRuns{"fig1", 16},
                      TopologyRuns{"fig2", 16},
                      TopologyRuns{"rnp28", 12}));

}  // namespace
}  // namespace kar
