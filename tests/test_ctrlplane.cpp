// Unit tests for the incremental control plane (src/ctrlplane/): the route
// store's inverted indexes, the dynamic SPT against its full-Dijkstra
// oracle, the reconvergence engine (against the full-recompute reference)
// and the ReactiveController. The heavyweight cross-topology equivalence proof
// lives in tests/test_ctrlplane_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "ctrlplane/spt.hpp"
#include "obs/metrics.hpp"
#include "routing/paths.hpp"
#include "sim/network.hpp"
#include "sim/reactive_controller.hpp"
#include "support/full_recompute.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::DynamicSpt;
using ctrlplane::EngineConfig;
using ctrlplane::LinkChange;
using ctrlplane::NodeMask;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using topo::Scenario;

// -- NodeMask -----------------------------------------------------------------

TEST(NodeMaskTest, SetTestIntersectsClear) {
  NodeMask a(130);
  NodeMask b(130);
  EXPECT_FALSE(a.test(0));
  a.set(0);
  a.set(63);
  a.set(64);
  a.set(129);
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(63));
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(129));
  EXPECT_FALSE(a.test(1));
  EXPECT_FALSE(a.intersects(b));
  b.set(64);
  EXPECT_TRUE(a.intersects(b));
  a.clear();
  EXPECT_FALSE(a.test(64));
  EXPECT_FALSE(a.intersects(b));
}

// -- RouteStore ---------------------------------------------------------------

TEST(RouteStoreTest, AddValidatesEndpointsAndAssignsDenseKeys) {
  Scenario s = topo::make_fig1_network();
  const topo::Topology& t = s.topology;
  RouteStore store(t);
  EXPECT_THROW((void)store.add(t.at("SW4"), t.at("D")), std::invalid_argument);
  EXPECT_THROW((void)store.add(t.at("S"), t.at("SW7")), std::invalid_argument);
  EXPECT_EQ(store.add(t.at("S"), t.at("D")), 0u);
  EXPECT_EQ(store.add(t.at("D"), t.at("S")), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.get(0).live);  // registered dead until the engine runs
  EXPECT_EQ(store.destinations(),
            (std::vector<topo::NodeId>{t.at("D"), t.at("S")}));
}

TEST(RouteStoreTest, IndexesFollowReencodeWithdrawAndRevive) {
  Scenario s = topo::make_fig1_network();
  topo::Topology& t = s.topology;
  RouteStore store(t);
  ReconvergenceEngine engine(t, store);
  const RouteKey key = engine.add_route(t.at("S"), t.at("D"));

  const auto& initial = store.get(key);
  ASSERT_TRUE(initial.live);
  EXPECT_EQ(initial.core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW11")}));

  const ctrlplane::GroupId group = initial.group;
  const std::vector<ctrlplane::GroupId> just_group{group};
  const auto link_dependents = [&](const char* a, const char* b) {
    std::vector<ctrlplane::GroupId> out;
    store.collect_link_dependents(*t.link_between(t.at(a), t.at(b)), out);
    return out;
  };
  const auto node_dependents = [&](const char* name) {
    std::vector<ctrlplane::GroupId> out;
    store.collect_node_dependents(t.at(name), out);
    return out;
  };

  EXPECT_EQ(link_dependents("SW7", "SW11"), just_group);
  EXPECT_EQ(link_dependents("S", "SW4"), just_group);
  EXPECT_EQ(node_dependents("SW4"), just_group);
  EXPECT_EQ(node_dependents("S"), just_group);

  // Re-encode around a failed primary link: the stale link posting filters.
  const topo::LinkId primary = *t.link_between(t.at("SW7"), t.at("SW11"));
  t.set_link_up(primary, false);
  const auto epoch1 = engine.apply({{primary, false}});
  EXPECT_EQ(epoch1.changed, just_group);
  ASSERT_TRUE(store.get(key).live);
  EXPECT_EQ(store.get(key).core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW5"),
                                       t.at("SW11")}));
  EXPECT_TRUE(link_dependents("SW7", "SW11").empty());
  EXPECT_EQ(link_dependents("SW5", "SW11"), just_group);

  // Withdraw: D's only uplink dies; the dead route keeps only its revive
  // trigger (the source edge's distance).
  const topo::LinkId uplink = *t.link_between(t.at("SW11"), t.at("D"));
  t.set_link_up(uplink, false);
  const auto epoch2 = engine.apply({{uplink, false}});
  EXPECT_EQ(epoch2.stats.withdrawn, 1u);
  EXPECT_FALSE(store.get(key).live);
  EXPECT_TRUE(node_dependents("SW4").empty());
  EXPECT_EQ(node_dependents("S"), just_group);
  EXPECT_TRUE(link_dependents("S", "SW4").empty());

  // Revive on repair.
  t.set_link_up(uplink, true);
  const auto epoch3 = engine.apply({{uplink, true}});
  EXPECT_EQ(epoch3.stats.reencoded, 1u);
  ASSERT_TRUE(store.get(key).live);
  EXPECT_EQ(store.get(key).core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW5"),
                                       t.at("SW11")}));
}

// -- DynamicSpt ---------------------------------------------------------------

void expect_matches_oracle(const topo::Topology& t, const DynamicSpt& spt,
                           int step) {
  routing::PathOptions options;
  options.ignore_failures = false;
  const std::vector<double> oracle =
      routing::distances_to(t, spt.destination(), options);
  ASSERT_EQ(oracle.size(), spt.distances().size());
  for (std::size_t v = 0; v < oracle.size(); ++v) {
    ASSERT_EQ(spt.distances()[v], oracle[v])
        << "step " << step << ", node " << t.name(static_cast<topo::NodeId>(v))
        << " to " << t.name(spt.destination());
  }
}

void churn_against_oracle(topo::Topology& t, topo::NodeId dst,
                          std::size_t threshold, int steps, common::Rng& rng) {
  DynamicSpt spt(t, dst, routing::PathMetric::kHopCount, threshold);
  expect_matches_oracle(t, spt, -1);
  std::vector<topo::NodeId> changed;
  for (int step = 0; step < steps; ++step) {
    const auto link = static_cast<topo::LinkId>(rng.below(t.link_count()));
    const bool up = !t.link(link).up;
    t.set_link_up(link, up);
    const std::vector<double> before = spt.distances();
    changed.clear();
    spt.apply_link_event(link, up, changed);
    // The reported change set is exactly the moved distances.
    const std::set<topo::NodeId> reported(changed.begin(), changed.end());
    ASSERT_EQ(reported.size(), changed.size()) << "duplicate changed nodes";
    for (std::size_t v = 0; v < before.size(); ++v) {
      const bool moved = before[v] != spt.distances()[v];
      ASSERT_EQ(moved, reported.count(static_cast<topo::NodeId>(v)) == 1)
          << "step " << step << ", node "
          << t.name(static_cast<topo::NodeId>(v));
    }
    expect_matches_oracle(t, spt, step);
  }
}

TEST(DynamicSptTest, MatchesFullDijkstraUnderRandomChurn) {
  common::Rng rng = testsupport::make_rng(0x5b71c0de, "DynamicSptChurn");
  // A tiny threshold forces the fallback path, a huge one forbids it; both
  // must track the oracle exactly.
  for (const std::size_t threshold : {std::size_t{1}, std::size_t{100000}}) {
    Scenario s = topo::make_random_connected(14, 8, 97);
    churn_against_oracle(s.topology, s.topology.at(s.route.dst_edge),
                         threshold, 250, rng);
  }
}

TEST(DynamicSptTest, MatchesOracleOnRnp28WithHostEdges) {
  common::Rng rng = testsupport::make_rng(0x28a717, "DynamicSptRnp28");
  Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  ASSERT_FALSE(hosts.empty());
  churn_against_oracle(t, hosts.front(), /*threshold=*/7, 150, rng);
  churn_against_oracle(t, t.at(s.route.dst_edge), /*threshold=*/100000, 150,
                       rng);
}

TEST(DynamicSptTest, HeldPathCheckMatchesCanonicalPathUnderChurn) {
  // canonical_path_is reads next hops through a memo. After every link
  // flip — checked once before the tree hears of it (a topology link-state
  // change alone must invalidate the memo) and once after — its verdict on
  // each source's current and previous core path must equal comparing
  // against canonical_path.
  common::Rng rng = testsupport::make_rng(0x4e1d, "HeldPathCheck");
  Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  const topo::NodeId dst = hosts.front();
  DynamicSpt spt(t, dst, routing::PathMetric::kHopCount, 7);
  std::vector<std::vector<topo::NodeId>> previous(t.node_count());
  std::size_t held = 0;
  // Stale distances can send the full walk around a loop, which
  // canonical_path reports by throwing; such a walk spells no path.
  const auto walk = [&](topo::NodeId src) {
    try {
      return spt.canonical_path(src);
    } catch (const std::logic_error&) {
      return std::optional<std::vector<topo::NodeId>>{};
    }
  };
  const auto check_all = [&](int step) {
    for (const topo::NodeId src : hosts) {
      const auto path = walk(src);
      std::vector<topo::NodeId> core;
      if (path.has_value() && path->size() >= 2) {
        core.assign(path->begin() + 1, path->end() - 1);
      }
      for (const auto* candidate : {&core, &previous[src]}) {
        std::vector<topo::NodeId> spelled{src};
        spelled.insert(spelled.end(), candidate->begin(), candidate->end());
        spelled.push_back(dst);
        const bool expected = path.has_value() && *path == spelled;
        ASSERT_EQ(spt.canonical_path_is(src, *candidate), expected)
            << "step " << step << ", source " << t.name(src);
        held += expected ? 1 : 0;
      }
      previous[src] = core;
    }
  };
  check_all(-1);
  std::vector<topo::NodeId> changed;
  for (int step = 0; step < 150; ++step) {
    const auto link = static_cast<topo::LinkId>(rng.below(t.link_count()));
    const bool up = !t.link(link).up;
    t.set_link_up(link, up);
    // The tree's distances are stale here, but the next hops both sides
    // read come from the same distances and the new link states.
    check_all(step);
    changed.clear();
    spt.apply_link_event(link, up, changed);
    check_all(step);
  }
  EXPECT_GT(held, 0u);
}

TEST(DynamicSptTest, CanonicalPathIsShortestUsableAndDeterministic) {
  Scenario s = topo::make_experimental15();
  topo::Topology& t = s.topology;
  const topo::NodeId src = t.at("AS1");
  const topo::NodeId dst = t.at("AS3");
  DynamicSpt spt(t, dst, routing::PathMetric::kHopCount, 1000);

  const auto check = [&](const DynamicSpt& tree) -> std::vector<topo::NodeId> {
    const auto path = tree.canonical_path(src);
    EXPECT_TRUE(path.has_value());
    if (!path.has_value()) return {};
    EXPECT_EQ(path->front(), src);
    EXPECT_EQ(path->back(), dst);
    // Hop-count distance == link count along the extracted path, and every
    // hop is an up link.
    EXPECT_EQ(static_cast<double>(path->size() - 1), tree.distance(src));
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      const auto link = t.link_between((*path)[i], (*path)[i + 1]);
      EXPECT_TRUE(link.has_value());
      if (link.has_value()) EXPECT_TRUE(t.link_up(*link));
    }
    return *path;
  };

  const auto before = check(spt);
  // Fail a primary-path link; the incremental tree and a freshly built one
  // must extract the identical canonical path (pure function of distances).
  const topo::LinkId link = *t.link_between(t.at("SW7"), t.at("SW13"));
  t.set_link_up(link, false);
  std::vector<topo::NodeId> changed;
  spt.apply_link_event(link, false, changed);
  const auto after = check(spt);
  EXPECT_NE(before, after);
  DynamicSpt fresh(t, dst, routing::PathMetric::kHopCount, 1000);
  EXPECT_EQ(after, *fresh.canonical_path(src));
  EXPECT_EQ(spt.canonical_next_hop(t.at("SW10")),
            fresh.canonical_next_hop(t.at("SW10")));
}

// -- ReconvergenceEngine ------------------------------------------------------

LinkChange flip(topo::Topology& t, const char* a, const char* b, bool up) {
  const topo::LinkId link = *t.link_between(t.at(a), t.at(b));
  t.set_link_up(link, up);
  return LinkChange{link, up};
}

void expect_same_tables(const topo::Topology& t, const RouteStore& a,
                        const RouteStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (RouteKey key = 0; key < a.size(); ++key) {
    const auto& ra = a.get(key);
    const auto& rb = b.get(key);
    ASSERT_EQ(ra.live, rb.live) << "route " << key;
    if (!ra.live) continue;
    EXPECT_EQ(ra.core_path, rb.core_path) << "route " << key;
    EXPECT_EQ(ra.route.route_id, rb.route.route_id) << "route " << key;
    EXPECT_EQ(testsupport::forwarding_trace(t, ra.route),
              testsupport::forwarding_trace(t, rb.route))
        << "route " << key;
  }
}

TEST(ReconvergenceEngineTest, IncrementalMatchesFullRecomputeOnFig2) {
  Scenario s = topo::make_experimental15();
  topo::Topology& t = s.topology;
  RouteStore inc_store(t);
  RouteStore full_store(t);
  ReconvergenceEngine inc(t, inc_store);
  testsupport::FullRecomputeReference full(t, full_store);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  ASSERT_GE(edges.size(), 3u);
  for (const topo::NodeId src : edges) {
    for (const topo::NodeId dst : edges) {
      if (src == dst) continue;
      EXPECT_EQ(inc.add_route(src, dst), full.add_route(src, dst));
    }
  }
  expect_same_tables(t, inc_store, full_store);

  // Each epoch's flips happen right before the applies, so the topology
  // reflects exactly the events handed to the engines.
  std::size_t full_candidates = 0;
  const auto run_epoch = [&](const std::vector<LinkChange>& events) {
    const auto ri = inc.apply(events);
    const auto rf = full.apply(events);
    EXPECT_EQ(ri.version, rf.version);
    // Both report exactly the actually-changed groups.
    EXPECT_EQ(ri.changed, rf.changed);
    expect_same_tables(t, inc_store, full_store);
    full_candidates += rf.stats.candidates;
  };
  run_epoch({flip(t, "SW7", "SW13", false)});
  run_epoch({flip(t, "SW13", "SW29", false)});
  run_epoch({flip(t, "SW7", "SW13", true)});
  // Two changes in one epoch.
  run_epoch({flip(t, "SW10", "SW7", false), flip(t, "SW10", "SW11", false)});
  run_epoch({flip(t, "SW10", "SW7", true), flip(t, "SW13", "SW29", true)});
  // The candidate superset never exceeds the reference's whole-table
  // scan. (On a 15-node net where every route crosses the core the two can
  // be equal; the scaling win is bench/churn_convergence's claim.)
  EXPECT_LE(inc.totals().candidates, full_candidates);
}

TEST(ReconvergenceEngineTest, MetricsFamiliesAndFallbackCounter) {
  Scenario s = topo::make_line(5);
  topo::Topology& t = s.topology;
  RouteStore store(t);
  EngineConfig config;
  config.spt_fallback_threshold = 1;  // any delete with >1 affected falls back
  ReconvergenceEngine engine(t, store, config);
  obs::MetricsRegistry registry(true);
  engine.attach_metrics(registry, {{"topology", "line"}});
  engine.add_route(t.at(s.route.src_edge), t.at(s.route.dst_edge));

  // Cutting the middle of a line strands the source side: withdrawal, and
  // an affected subtree of 3 nodes > threshold 1 -> fallback rebuild.
  const std::string& mid_a = s.route.core_path[1];
  const std::string& mid_b = s.route.core_path[2];
  const auto result = engine.apply({flip(t, mid_a.c_str(), mid_b.c_str(), false)});
  EXPECT_EQ(result.stats.withdrawn, 1u);
  EXPECT_EQ(result.stats.spt_fallbacks, 1u);

  const auto snap = registry.snapshot();
  for (const char* family :
       {"kar_ctrlplane_events_total", "kar_ctrlplane_epochs_total",
        "kar_ctrlplane_reencodes_total", "kar_ctrlplane_withdrawals_total",
        "kar_ctrlplane_spt_fallbacks_total", "kar_ctrlplane_routes",
        "kar_ctrlplane_reconvergence_seconds", "kar_ctrlplane_affected_routes",
        "kar_ctrlplane_updated_routes"}) {
    EXPECT_EQ(snap.families.count(family), 1u) << family;
  }
  const auto counter = [&](const char* family) {
    const auto& fam = snap.families.at(family);
    EXPECT_EQ(fam.series.size(), 1u) << family;
    return fam.series.begin()->second.count;
  };
  EXPECT_EQ(counter("kar_ctrlplane_events_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_epochs_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_withdrawals_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_spt_fallbacks_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_reconvergence_seconds"), 1u);  // 1 epoch
  EXPECT_EQ(snap.families.at("kar_ctrlplane_routes").series.begin()->second.value,
            1.0);
}

// Every epoch's phase split (SPT advance, merge, reconverge, admission) is
// non-negative and adds up to no more than the epoch wall, with and without
// admissions.
TEST(ReconvergenceEngineTest, PhaseTimingsFitInsideTheEpochWall) {
  Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  std::vector<std::pair<topo::NodeId, topo::NodeId>> installs;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    installs.emplace_back(edges[i], edges[i + 1]);
  }
  const auto expect_split = [](const ctrlplane::EpochStats& st,
                               const std::string& where) {
    const double phases[] = {st.spt_s, st.merge_s, st.reconverge_s,
                             st.admission_s};
    double sum = 0.0;
    for (const double p : phases) {
      EXPECT_GE(p, 0.0) << where;
      sum += p;
    }
    EXPECT_GT(st.wall_s, 0.0) << where;
    EXPECT_LE(sum, st.wall_s) << where;
  };
  RouteStore store(t);
  ReconvergenceEngine engine(t, store);
  expect_split(engine.apply({}, installs, {}).stats, "admissions");
  topo::LinkId link = 0;  // the first core-to-core link
  while (t.kind(t.link(link).a.node) != topo::NodeKind::kCoreSwitch ||
         t.kind(t.link(link).b.node) != topo::NodeKind::kCoreSwitch) {
    ++link;
  }
  t.set_link_up(link, false);
  expect_split(engine.apply({{link, false}}, installs, {0}).stats, "failure");
  t.set_link_up(link, true);
  expect_split(engine.apply({{link, true}}).stats, "repair");
  expect_split(engine.totals(), "totals");
}

TEST(ForwardingTrace, WalksFig1Residues) {
  Scenario s = topo::make_fig1_network();
  const topo::Topology& t = s.topology;
  const routing::Controller controller(t);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  const auto trace = testsupport::forwarding_trace(t, route);
  // R = 44: S uplink, then 44 mod 4 = 0, 44 mod 7 = 2, 44 mod 11 = 0.
  const std::vector<testsupport::TraceHop> expected = {
      {t.at("S"), 0}, {t.at("SW4"), 0}, {t.at("SW7"), 2}, {t.at("SW11"), 0}};
  EXPECT_EQ(trace, expected);
}

// -- ReactiveController on the incremental engine -----------------------------

// Two independent islands: flows A->B (with a detour X3) and C->D (a bare
// line) share nothing, so an event on one island must not touch the other.
topo::Topology make_two_islands() {
  topo::Topology t;
  const auto a = t.add_edge_node("A");
  const auto b = t.add_edge_node("B");
  const auto c = t.add_edge_node("C");
  const auto d = t.add_edge_node("D");
  const auto x1 = t.add_switch("X1", 3);
  const auto x2 = t.add_switch("X2", 5);
  const auto x3 = t.add_switch("X3", 7);
  const auto y1 = t.add_switch("Y1", 11);
  const auto y2 = t.add_switch("Y2", 13);
  t.add_link(a, x1);
  t.add_link(x1, x2);
  t.add_link(x1, x3);
  t.add_link(x3, x2);
  t.add_link(x2, b);
  t.add_link(c, y1);
  t.add_link(y1, y2);
  t.add_link(y2, d);
  return t;
}

TEST(ReactiveControllerIncremental, OnlyAffectedFlowsReact) {
  topo::Topology t = make_two_islands();
  const routing::Controller controller(t);
  sim::Network net(t, controller, {});
  sim::ReactiveController reactive(net, /*reaction_delay_s=*/0.010);

  int ab_updates = 0;
  int cd_updates = 0;
  reactive.watch_flow(t.at("A"), t.at("B"),
                      [&](const routing::EncodedRoute&) { ++ab_updates; });
  reactive.watch_flow(t.at("C"), t.at("D"),
                      [&](const routing::EncodedRoute&) { ++cd_updates; });

  // X1-X2 dies: only A->B reroutes (via X3); C->D is untouched.
  net.fail_link_at(1.0, "X1", "X2");
  net.events().run_until(2.0);
  EXPECT_EQ(reactive.reactions(), 1u);
  EXPECT_EQ(reactive.route_recomputes(), 1u);
  EXPECT_EQ(ab_updates, 1);
  EXPECT_EQ(cd_updates, 0);

  // X1-X3 dies too: A->B has no path left — withdrawn, no update callback
  // (there is nothing to push).
  net.fail_link_at(2.5, "X1", "X3");
  net.events().run_until(3.5);
  EXPECT_EQ(reactive.reactions(), 2u);
  EXPECT_EQ(reactive.route_recomputes(), 2u);
  EXPECT_EQ(ab_updates, 1);
  EXPECT_EQ(cd_updates, 0);
}

}  // namespace
}  // namespace kar
