// Control-plane churn benchmark: incremental affected-set reconvergence and
// the cross-epoch coalescing window, against the full-recompute reference.
//
// For every (topology x route-count) configuration:
//   1. build the scenario, attach a host edge to every core switch with a
//      spare residue (so random src-dst pairs exist at scale), and register
//      `routes` random edge-pair routes;
//   2. generate `rounds` seeded link-churn schedules, alternating two
//      families: kRandomUpDown (independent fail/repair episodes — the
//      multi-destination churn mix, since random routes spread over every
//      host edge) and kFlapping (a few links oscillating on a short
//      period — the storm the coalescing window is built for);
//   3. drive three passes over identical inputs, timing every epoch:
//        incremental — ctrlplane::ReconvergenceEngine, one epoch per
//                      distinct event timestamp (the baseline);
//        coalesced   — the same engine fed through a LinkCoalescer with a
//                      --window bounded-staleness window: raw transitions
//                      net per link and a whole storm window becomes one
//                      epoch. Throughput is raw events / wall, so absorbed
//                      flaps count toward events/s — that is the point;
//        full        — the full-recompute reference of the differential
//                      tests (tests/support/full_recompute.hpp), same
//                      epochs as the baseline, skipped above
//                      --full-max-routes (it walks every group every epoch
//                      and adds no information at the margin);
//   4. verify final-table identity (liveness, route IDs, core paths) and
//      report events/s plus p50/p99 per-epoch reconvergence latency for
//      every pass.
//
// Acceptance gates (both off by default; docs/ctrlplane.md has the
// measured ratios they are set against):
//   --min-speedup           at >= 10000 routes, full wall / incremental
//                           wall must exceed this. It guards the engine
//                           as a whole (incremental SPTs, candidate set,
//                           memos) against falling to the cost of
//                           re-deriving every group; its baseline is test
//                           code, so it is a floor, not a target;
//   --min-coalesced-speedup at >= 100000 routes, coalesced events/s /
//                           incremental events/s must exceed this. It
//                           guards the LinkCoalescer's reason to exist:
//                           netting a flap storm into one epoch must buy
//                           throughput, not just staleness.
// The committed record lives in BENCH_ctrlplane.json (regenerate with:
// churn_convergence --routes=1000,10000,100000,1000000 --min-speedup=2
//                   --min-coalesced-speedup=4 --out=BENCH_ctrlplane.json).
//
// Usage: churn_convergence [--topologies=fig2,rnp28]
//                          [--routes=1000,10000,100000] [--horizon=2.0]
//                          [--rounds=6] [--failure-probability=0.6]
//                          [--seed=1] [--window=0.05]
//                          [--full-max-routes=100000] [--min-speedup=0]
//                          [--min-coalesced-speedup=0] [--out=PATH]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ctrlplane/coalesce.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "faultgen/schedule.hpp"
#include "runner/jsonl.hpp"
#include "stats/summary.hpp"
#include "support/full_recompute.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace {

using kar::ctrlplane::LinkChange;
using kar::ctrlplane::LinkCoalescer;
using kar::ctrlplane::ReconvergenceEngine;
using kar::ctrlplane::RouteKey;
using kar::ctrlplane::RouteStore;
using kar::testsupport::FullRecomputeReference;

struct EngineRun {
  std::size_t epochs = 0;
  std::size_t candidates = 0;
  std::size_t reencoded = 0;
  std::size_t withdrawn = 0;
  std::size_t spt_fallbacks = 0;
  /// Net link changes actually applied to the engine (== raw events for
  /// per-epoch passes; smaller for the coalesced pass).
  std::size_t applied_events = 0;
  /// Raw transitions netted away by the window (coalesced pass only).
  std::size_t absorbed = 0;
  double total_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  /// Engine phase totals over every epoch (EpochStats phase fields).
  double spt_s = 0.0;
  double merge_s = 0.0;
  double reconverge_s = 0.0;
  double admission_s = 0.0;

  /// Raw-event throughput: every pass is charged the same raw stream.
  [[nodiscard]] double events_per_s(std::size_t events) const {
    return total_s > 0.0 ? static_cast<double>(events) / total_s : 0.0;
  }
};

struct CaseResult {
  std::string topology;
  std::size_t routes = 0;
  std::size_t events = 0;
  std::size_t epochs = 0;
  EngineRun incremental;
  EngineRun coalesced;
  EngineRun full;
  bool full_ran = false;
  bool coalesced_identical = true;

  [[nodiscard]] double speedup() const {
    return full_ran && full.total_s > 0.0 && incremental.total_s > 0.0
               ? full.total_s / incremental.total_s
               : 0.0;
  }
  [[nodiscard]] double coalesced_speedup() const {
    return coalesced.total_s > 0.0 && incremental.total_s > 0.0
               ? incremental.total_s / coalesced.total_s
               : 0.0;
  }
};

kar::topo::Scenario make_scenario(const std::string& name) {
  if (kar::topogen::is_gen_spec(name)) return kar::topogen::make_from_spec(name);
  if (name == "fig1") return kar::topo::make_fig1_network();
  if (name == "fig2") return kar::topo::make_experimental15();
  if (name == "rnp28") return kar::topo::make_rnp28();
  throw std::invalid_argument("churn_convergence: unknown topology " + name +
                              "\n" + kar::topogen::spec_grammar_help());
}

/// One pass over the schedule with `Engine` (ReconvergenceEngine or
/// FullRecomputeReference); `window_s` > 0 feeds events through a
/// LinkCoalescer, one epoch per window. Rebuilds topology + routes from the
/// same seeds, so every pass sees bit-identical inputs.
template <typename Engine>
EngineRun run_engine(const std::string& topology, double window_s,
                     std::size_t route_count, std::uint64_t seed,
                     const std::vector<kar::faultgen::FailureSchedule>& rounds,
                     RouteStore* final_store_out) {
  kar::topo::Scenario s = make_scenario(topology);
  kar::topo::Topology& t = s.topology;
  (void)kar::topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(kar::topo::NodeKind::kEdgeNode);

  RouteStore store(t);
  Engine engine(t, store);

  kar::common::Rng route_rng(kar::common::derive_seed(seed, 0x9017e5));
  for (std::size_t i = 0; i < route_count; ++i) {
    const std::size_t si = route_rng.below(edges.size());
    std::size_t di = route_rng.below(edges.size() - 1);
    if (di >= si) ++di;
    (void)engine.add_route(edges[si], edges[di]);
  }

  EngineRun run;
  std::vector<double> epoch_wall;
  const auto apply_epoch = [&](const std::vector<LinkChange>& events) {
    const auto result = engine.apply(events);
    epoch_wall.push_back(result.stats.wall_s);
    run.applied_events += events.size();
    run.candidates += result.stats.candidates;
    run.reencoded += result.stats.reencoded;
    run.withdrawn += result.stats.withdrawn;
    run.spt_fallbacks += result.stats.spt_fallbacks;
    run.total_s += result.stats.wall_s;
    run.spt_s += result.stats.spt_s;
    run.merge_s += result.stats.merge_s;
    run.reconverge_s += result.stats.reconverge_s;
    run.admission_s += result.stats.admission_s;
  };
  if (window_s <= 0.0) {
    // One epoch per distinct event timestamp.
    for (const kar::faultgen::FailureSchedule& schedule : rounds) {
      std::size_t i = 0;
      while (i < schedule.events.size()) {
        std::size_t j = i;
        std::vector<LinkChange> events;
        while (j < schedule.events.size() &&
               schedule.events[j].time == schedule.events[i].time) {
          const kar::faultgen::LinkEvent& e = schedule.events[j];
          t.set_link_up(e.link, !e.fail);
          events.push_back(LinkChange{e.link, !e.fail});
          ++j;
        }
        apply_epoch(events);
        i = j;
      }
    }
  } else {
    // Bounded-staleness replay: raw transitions accumulate in the
    // coalescer until the window (opened by its first transition)
    // expires, then the net changes land on the topology and reconverge
    // as one epoch — exactly the daemon flusher's --coalesce-window
    // behavior, minus the wall-clock waits.
    LinkCoalescer coalescer;
    double window_start = 0.0;
    const auto drain = [&] {
      const std::vector<LinkChange> events = coalescer.drain();
      for (const LinkChange& event : events) {
        t.set_link_up(event.link, event.up);
      }
      apply_epoch(events);
    };
    for (const kar::faultgen::FailureSchedule& schedule : rounds) {
      for (const kar::faultgen::LinkEvent& e : schedule.events) {
        if (!coalescer.empty() && e.time >= window_start + window_s) {
          drain();
        }
        if (coalescer.empty()) window_start = e.time;
        coalescer.note(e.link, !e.fail, t.link_up(e.link));
      }
      if (!coalescer.empty()) drain();  // rounds replay back to back
    }
    run.absorbed = coalescer.stats().absorbed;
  }
  run.epochs = epoch_wall.size();
  if (!epoch_wall.empty()) {
    run.p50_s = kar::stats::percentile(epoch_wall, 50.0);
    run.p99_s = kar::stats::percentile(epoch_wall, 99.0);
  }
  if (final_store_out != nullptr) *final_store_out = std::move(store);
  return run;
}

/// Final-table equality (the light form of the differential tests'
/// per-epoch proof). Versions are not compared: the coalesced pass
/// legitimately runs fewer epochs.
bool tables_identical(const RouteStore& a, const RouteStore& b) {
  if (a.size() != b.size()) return false;
  for (RouteKey key = 0; key < a.size(); ++key) {
    const auto& ra = a.get(key);
    const auto& rb = b.get(key);
    if (ra.live != rb.live) return false;
    if (!ra.live) continue;
    if (ra.core_path != rb.core_path) return false;
    if (!(ra.route.route_id == rb.route.route_id)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const std::string topologies_flag =
      flags.get_string("topologies", flags.get_string("topology", "fig2,rnp28"));
  const std::string routes_flag = flags.get_string("routes", "1000,10000,100000");
  const double horizon_s = flags.get_double("horizon", 2.0);
  const auto rounds_count =
      static_cast<std::size_t>(flags.get_int("rounds", 6));
  const double failure_probability =
      flags.get_double("failure-probability", 0.6);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double window_s = flags.get_double("window", 0.05);
  const auto full_max_routes =
      static_cast<std::size_t>(flags.get_int("full-max-routes", 100000));
  const double min_speedup = flags.get_double("min-speedup", 0.0);
  const double min_coalesced_speedup =
      flags.get_double("min-coalesced-speedup", 0.0);
  const std::string out_path = flags.get_string("out", "");
  if (kar::common::report_unread(flags, "churn_convergence")) return 2;

  std::vector<std::size_t> route_counts;
  for (const std::string& part : kar::common::split(routes_flag, ',')) {
    route_counts.push_back(static_cast<std::size_t>(std::stoull(part)));
  }

  // The topologies flag is a comma-separated list, but gen: specs carry
  // commas of their own (gen:ba:n=200,seed=3): a fragment that is not a
  // spec or named topology itself but looks like key=value continues the
  // preceding entry.
  std::vector<std::string> topologies;
  for (const std::string& part : kar::common::split(topologies_flag, ',')) {
    if (!topologies.empty() && kar::topogen::is_gen_spec(topologies.back()) &&
        part.find('=') != std::string::npos &&
        !kar::topogen::is_gen_spec(part)) {
      topologies.back() += ',' + part;
    } else {
      topologies.push_back(part);
    }
  }

  std::vector<CaseResult> results;
  bool identical = true;
  for (const std::string& topology : topologies) {
    // `rounds` independently seeded schedules per topology, replayed back
    // to back and shared by every route count and engine pass: link IDs
    // are deterministic in the builders. Rounds alternate between random
    // up/down churn and flap storms (see file comment); a generator round
    // caps episodes per link, so sustained churn needs several.
    kar::topo::Scenario schedule_scenario = make_scenario(topology);
    (void)kar::topo::attach_host_edges(schedule_scenario.topology);
    std::vector<kar::faultgen::FailureSchedule> schedules;
    std::size_t total_events = 0;
    for (std::size_t r = 0; r < rounds_count; ++r) {
      kar::faultgen::ScheduleConfig schedule_config;
      schedule_config.horizon_s = horizon_s;
      if (r % 2 == 0) {
        schedule_config.kind = kar::faultgen::ScheduleKind::kRandomUpDown;
        schedule_config.per_link_failure_probability = failure_probability;
        schedule_config.mean_downtime_s = horizon_s / 8.0;
      } else {
        schedule_config.kind = kar::faultgen::ScheduleKind::kFlapping;
        schedule_config.flapping_links = 4;
        schedule_config.flap_half_period_s = horizon_s / 200.0;
      }
      kar::common::Rng schedule_rng(
          kar::common::derive_seed(seed, 0x5c4ed + r));
      schedules.push_back(kar::faultgen::generate_schedule(
          schedule_scenario.topology, schedule_config, schedule_rng));
      total_events += schedules.back().size();
    }

    for (const std::size_t routes : route_counts) {
      CaseResult result;
      result.topology = topology;
      result.routes = routes;
      result.events = total_events;
      RouteStore serial_final(schedule_scenario.topology);
      RouteStore other_final(schedule_scenario.topology);
      result.incremental = run_engine<ReconvergenceEngine>(
          topology, 0.0, routes, seed, schedules, &serial_final);
      result.epochs = result.incremental.epochs;

      result.coalesced = run_engine<ReconvergenceEngine>(
          topology, window_s, routes, seed, schedules, &other_final);
      if (!tables_identical(serial_final, other_final)) {
        std::cerr << "churn_convergence: coalesced table diverges on "
                  << topology << " with " << routes << " routes\n";
        result.coalesced_identical = false;
        identical = false;
      }

      if (routes <= full_max_routes) {
        result.full = run_engine<FullRecomputeReference>(
            topology, 0.0, routes, seed, schedules, &other_final);
        result.full_ran = true;
        if (!tables_identical(serial_final, other_final)) {
          std::cerr << "churn_convergence: full-recompute table diverges on "
                    << topology << " with " << routes << " routes\n";
          identical = false;
        }
      }
      results.push_back(result);
    }
  }

  bool pass = identical;
  std::cout << "=== control-plane churn: incremental / coalesced vs full "
               "recompute ===\n";
  kar::common::TextTable table(
      {"topology", "routes", "events", "engine", "epochs", "events/s",
       "p50 ms", "p99 ms", "candidates", "reencoded", "absorbed"});
  for (const auto& c : results) {
    const auto row = [&](const char* name, const EngineRun& run) {
      table.add_row({c.topology, std::to_string(c.routes),
                     std::to_string(c.events), name,
                     std::to_string(run.epochs),
                     kar::common::fmt_double(run.events_per_s(c.events), 0),
                     kar::common::fmt_double(run.p50_s * 1e3, 3),
                     kar::common::fmt_double(run.p99_s * 1e3, 3),
                     std::to_string(run.candidates),
                     std::to_string(run.reencoded),
                     std::to_string(run.absorbed)});
    };
    row("incremental", c.incremental);
    row("coalesced", c.coalesced);
    if (c.full_ran) row("full", c.full);
    // Gates (file comment): large tables must beat the reference, and the
    // coalescing window must absorb the flap storms.
    if (c.full_ran && c.routes >= 10000) {
      pass = pass && c.speedup() > min_speedup;
    }
    if (c.routes >= 100000) {
      pass = pass && c.coalesced_speedup() > min_coalesced_speedup;
    }
  }
  std::cout << table.render();
  kar::common::TextTable phase_table({"topology", "routes", "engine", "wall s",
                                      "spt s", "merge s", "reconverge s",
                                      "admission s"});
  for (const auto& c : results) {
    const auto row = [&](const char* name, const EngineRun& run) {
      phase_table.add_row({c.topology, std::to_string(c.routes), name,
                           kar::common::fmt_double(run.total_s, 3),
                           kar::common::fmt_double(run.spt_s, 3),
                           kar::common::fmt_double(run.merge_s, 3),
                           kar::common::fmt_double(run.reconverge_s, 3),
                           kar::common::fmt_double(run.admission_s, 3)});
    };
    row("incremental", c.incremental);
    row("coalesced", c.coalesced);
  }
  std::cout << "\n=== engine phase split (seconds over all epochs) ===\n"
            << phase_table.render()
            << "\nspeedups (full wall / incremental wall):";
  for (const auto& c : results) {
    std::cout << ' ' << c.topology << '/' << c.routes << "="
              << kar::common::fmt_double(c.speedup(), 1) << 'x';
  }
  std::cout << "\ncoalesced speedups (incremental wall / coalesced wall):";
  for (const auto& c : results) {
    std::cout << ' ' << c.topology << '/' << c.routes << "="
              << kar::common::fmt_double(c.coalesced_speedup(), 1) << 'x';
  }
  std::cout << "\nacceptance: identical tables; at >= 10000 routes speedup > "
            << kar::common::fmt_double(min_speedup, 1)
            << "; at >= 100000 routes coalesced speedup > "
            << kar::common::fmt_double(min_coalesced_speedup, 1) << " -> "
            << (pass ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "churn_convergence: cannot open " << out_path << '\n';
      return 2;
    }
    for (const auto& c : results) {
      // The reference reports no phase split, so its record has none.
      const auto engine_json = [&](const EngineRun& run, bool phased) {
        kar::runner::JsonObject o;
        o.field("events_per_s", run.events_per_s(c.events))
            .field("total_s", run.total_s)
            .field("p50_s", run.p50_s)
            .field("p99_s", run.p99_s)
            .field("epochs", static_cast<std::uint64_t>(run.epochs))
            .field("applied_events",
                   static_cast<std::uint64_t>(run.applied_events))
            .field("absorbed", static_cast<std::uint64_t>(run.absorbed))
            .field("candidates", static_cast<std::uint64_t>(run.candidates))
            .field("reencoded", static_cast<std::uint64_t>(run.reencoded))
            .field("withdrawn", static_cast<std::uint64_t>(run.withdrawn))
            .field("spt_fallbacks",
                   static_cast<std::uint64_t>(run.spt_fallbacks));
        if (phased) {
          kar::runner::JsonObject phases;
          phases.field("spt", run.spt_s)
              .field("merge", run.merge_s)
              .field("reconverge", run.reconverge_s)
              .field("admission", run.admission_s);
          o.raw("phases_s", phases.str());
        }
        return o.str();
      };
      kar::runner::JsonObject record;
      record.field("bench", "churn_convergence")
          .raw("provenance", kar::bench::provenance_json())
          .field("topology", c.topology)
          .field("routes", static_cast<std::uint64_t>(c.routes))
          .field("events", static_cast<std::uint64_t>(c.events))
          .field("epochs", static_cast<std::uint64_t>(c.epochs))
          .field("seed", seed)
          .field("horizon_s", horizon_s)
          .field("rounds", static_cast<std::uint64_t>(rounds_count))
          .field("window_s", window_s)
          .raw("incremental", engine_json(c.incremental, true))
          .raw("coalesced", engine_json(c.coalesced, true));
      if (c.full_ran) record.raw("full", engine_json(c.full, false));
      record.field("speedup", c.speedup())
          .field("coalesced_speedup", c.coalesced_speedup())
          .field("tables_identical", identical)
          .field("coalesced_identical", c.coalesced_identical);
      out << record.str() << '\n';
    }
    std::cout << "recorded " << out_path << '\n';
  }
  return pass ? 0 : 1;
}
