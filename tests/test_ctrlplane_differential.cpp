// Differential proof that the incremental reconvergence engine and the
// full-recompute oracle maintain bit-identical route tables.
//
// 200 seeded churn sequences across fig1, fig2 (the 15-node experimental
// network) and rnp28, with host edges attached so every topology offers
// many distinct edge pairs. Each sequence runs one incremental and one
// full-recompute engine over the SAME topology object through the same
// epochs (schedule events grouped by timestamp) and asserts, after every
// epoch: identical liveness, route IDs, port assignments, primary core
// paths, changed-group lists and pure-modulo forwarding traces.
//
// Schedule families rotate through fail/repair churn (kRandomUpDown),
// correlated cuts (kSrlgGroups), flapping and permanent k-failure sweeps;
// half the sequences plan driven-deflection protection, half encode bare
// primary paths.
//
// A second suite pins the sharded reconvergence path: the same sequences
// run through incremental engines at shard widths 1, 4 and
// hardware_concurrency, and every epoch must be *bit-identical* across
// widths — version stamps and changed-group lists included, not just final
// tables — because sharding is specified as a pure throughput knob
// (docs/ctrlplane.md).
//
// A third suite mixes admissions and withdrawals into the churn epochs
// (apply(events, installs, withdraws)) and holds the full-recompute engine
// and incremental engines at widths 1, 4 and hardware width to identical
// per-key liveness, tombstones, version stamps, route IDs and core paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "faultgen/schedule.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::EngineConfig;
using ctrlplane::EngineMode;
using ctrlplane::LinkChange;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using faultgen::FailureSchedule;
using faultgen::ScheduleConfig;
using faultgen::ScheduleKind;
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
    ASSERT_EQ(ctrlplane::forwarding_trace(t, a.route),
              ctrlplane::forwarding_trace(t, b.route))
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
  EngineConfig inc_config;
  EngineConfig full_config;
  full_config.mode = EngineMode::kFullRecompute;
  // Half the sequences exercise the memoised protection planner, half the
  // bare-primary encoding path.
  inc_config.plan_protection = full_config.plan_protection =
      (sequence % 2 == 0);
  ReconvergenceEngine inc(t, inc_store, inc_config);
  ReconvergenceEngine full(t, full_store, full_config);

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

  // Group the time-sorted events into epochs (equal timestamps coalesce,
  // exactly like the reaction-delay window of sim::ReactiveController).
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

// Serial vs sharded incremental engines over identical epochs. Stricter
// than expect_identical_tables: a shard width must not even perturb the
// per-route version stamps.
void run_sharded_sequence(const std::string& topology, std::uint64_t sequence,
                          common::Rng& rng) {
  const std::vector<std::size_t> widths = {
      1, 4, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  Scenario s = make_scenario(topology);
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);

  std::vector<std::unique_ptr<RouteStore>> stores;
  std::vector<std::unique_ptr<ReconvergenceEngine>> engines;
  for (const std::size_t shards : widths) {
    EngineConfig config;
    config.shards = shards;
    config.plan_protection = (sequence % 2 == 0);
    stores.push_back(std::make_unique<RouteStore>(t));
    engines.push_back(
        std::make_unique<ReconvergenceEngine>(t, *stores.back(), config));
  }

  for (std::size_t i = 0; i < 25; ++i) {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    const RouteKey key = engines[0]->add_route(edges[si], edges[di]);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(engines[e]->add_route(edges[si], edges[di]), key);
    }
  }

  const std::string tag =
      topology + " sharded seq " + std::to_string(sequence);
  common::Rng schedule_rng(common::derive_seed(0x54a6dedULL, sequence));
  const FailureSchedule schedule =
      faultgen::generate_schedule(t, schedule_for(sequence), schedule_rng);

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
    const auto serial = engines[0]->apply(events);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      const auto sharded = engines[e]->apply(events);
      const std::string where = tag + " epoch " + std::to_string(epoch_index) +
                                " shards " + std::to_string(widths[e]);
      ASSERT_EQ(serial.version, sharded.version) << where;
      ASSERT_EQ(serial.changed, sharded.changed) << where;
      ASSERT_EQ(serial.stats.candidates, sharded.stats.candidates) << where;
      ASSERT_EQ(serial.stats.reencoded, sharded.stats.reencoded) << where;
      ASSERT_EQ(serial.stats.withdrawn, sharded.stats.withdrawn) << where;
      expect_identical_tables(t, *stores[0], *stores[e], where);
      for (RouteKey key = 0; key < stores[0]->size(); ++key) {
        ASSERT_EQ(stores[0]->get(key).version, stores[e]->get(key).version)
            << where << ", route " << key << " version stamp";
      }
    }
    i = j;
    ++epoch_index;
  }
}

// Mixed epochs: link events, route admissions and withdrawals in one
// apply(). A full-recompute engine and incremental engines at shard widths
// 1, 4 and hardware width run the same epochs and must agree on every key:
// liveness, tombstone, version stamp, route ID and core path. Admissions
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

  std::vector<EngineConfig> configs;
  EngineConfig full_config;
  full_config.mode = EngineMode::kFullRecompute;
  configs.push_back(full_config);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4},
        std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
    EngineConfig config;
    config.shards = shards;
    configs.push_back(config);
  }
  std::vector<std::unique_ptr<RouteStore>> stores;
  std::vector<std::unique_ptr<ReconvergenceEngine>> engines;
  for (EngineConfig& config : configs) {
    config.plan_protection = (sequence % 2 == 0);
    stores.push_back(std::make_unique<RouteStore>(t));
    engines.push_back(
        std::make_unique<ReconvergenceEngine>(t, *stores.back(), config));
  }

  const auto random_pair = [&] {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    return std::make_pair(edges[si], edges[di]);
  };
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [src, dst] = random_pair();
    for (auto& engine : engines) (void)engine->add_route(src, dst);
  }
  std::vector<bool> withdrawn(stores[0]->size(), false);

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
        const auto existing = stores[0]->get(rng.below(stores[0]->size()));
        installs.emplace_back(existing.src, existing.dst);
      } else {
        installs.push_back(random_pair());
      }
    }
    const std::size_t first_new = stores[0]->size();
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
    std::vector<RouteKey> reference_keys;
    const auto reference =
        engines[0]->apply(events, installs, withdraws, &reference_keys);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      std::vector<RouteKey> keys;
      const auto result = engines[e]->apply(events, installs, withdraws, &keys);
      const std::string at = where + " engine " + std::to_string(e);
      ASSERT_EQ(reference.version, result.version) << at;
      ASSERT_EQ(reference_keys, keys) << at;
      ASSERT_EQ(stores[0]->size(), stores[e]->size()) << at;
      ASSERT_EQ(stores[0]->live_count(), stores[e]->live_count()) << at;
      ASSERT_EQ(stores[0]->withdrawn_count(), stores[e]->withdrawn_count())
          << at;
      for (RouteKey key = 0; key < stores[0]->size(); ++key) {
        const auto& a = stores[0]->get(key);
        const auto& b = stores[e]->get(key);
        ASSERT_EQ(a.live, b.live) << at << ", route " << key;
        ASSERT_EQ(a.withdrawn, b.withdrawn) << at << ", route " << key;
        ASSERT_EQ(a.withdrawn, static_cast<bool>(withdrawn[key]))
            << at << ", route " << key;
        ASSERT_EQ(a.version, b.version) << at << ", route " << key;
        if (!a.live) continue;
        ASSERT_EQ(a.core_path, b.core_path) << at << ", route " << key;
        ASSERT_EQ(a.route.route_id, b.route.route_id)
            << at << ", route " << key;
      }
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

class CtrlplaneShardedDifferential
    : public ::testing::TestWithParam<TopologyRuns> {};

TEST_P(CtrlplaneShardedDifferential, ShardWidthsBitIdentical) {
  const auto [topology, sequences] = GetParam();
  common::Rng rng = testsupport::make_rng(
      0x54a6dULL ^ std::hash<std::string>{}(topology),
      "CtrlplaneShardedDifferential");
  for (int sequence = 0; sequence < sequences; ++sequence) {
    run_sharded_sequence(topology, static_cast<std::uint64_t>(sequence), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 3 engines x 3 shard widths per sequence keeps this pricier than the
// serial suite, so fewer sequences; all four schedule families still
// rotate through on every topology.
INSTANTIATE_TEST_SUITE_P(
    Topologies, CtrlplaneShardedDifferential,
    ::testing::Values(TopologyRuns{"fig1", 16},
                      TopologyRuns{"fig2", 16},
                      TopologyRuns{"rnp28", 12}));

class CtrlplaneMixedDifferential
    : public ::testing::TestWithParam<TopologyRuns> {};

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
