// campaign_rnp28: the fault_campaign grid on rnp28 — hp/avp/nip x
// updown/srlg/flap/sweep, 200 packets per run, invariant checker attached,
// run serially through runner::run_campaign.
#include <cstdio>

#include "alloc_count.hpp"
#include "faultgen/campaign.hpp"
#include "routing/controller.hpp"
#include "runner/campaign_runner.hpp"
#include "workloads.hpp"

namespace kar::perfbench {
namespace {

constexpr std::size_t kRunsPerCell = 200;
constexpr std::size_t kPacketsPerRun = 200;

constexpr dataplane::DeflectionTechnique kTechniques[] = {
    dataplane::DeflectionTechnique::kHotPotato,
    dataplane::DeflectionTechnique::kAnyValidPort,
    dataplane::DeflectionTechnique::kNotInputPort};
constexpr faultgen::ScheduleKind kSchedules[] = {
    faultgen::ScheduleKind::kRandomUpDown, faultgen::ScheduleKind::kSrlgGroups,
    faultgen::ScheduleKind::kFlapping, faultgen::ScheduleKind::kKFailureSweep};

/// The grid's engines, one per (technique, schedule) cell, plus the check
/// that the scenario's route encodes; returns how many of the encoded
/// routes are wider than 64 bits.
std::size_t build_grid(std::uint64_t seed, bool traced,
                       std::vector<faultgen::CampaignEngine>& engines) {
  engines.clear();
  for (const auto technique : kTechniques) {
    for (const auto schedule : kSchedules) {
      faultgen::CampaignConfig config;
      config.topology = "rnp28";
      config.technique = technique;
      config.schedule.kind = schedule;
      config.runs = kRunsPerCell;
      config.packets_per_run = kPacketsPerRun;
      config.seed = seed;
      config.profile = traced;
      engines.emplace_back(config);
    }
  }
  const topo::Scenario scenario = faultgen::make_campaign_scenario("rnp28");
  const routing::Controller controller(scenario.topology);
  const routing::EncodedRoute route = controller.encode_scenario(
      scenario.route, engines.front().config().protection);
  return route.bit_length > 64 ? 1 : 0;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Grid {
  SimLayers layers;
  double wall_s = 0.0;  ///< run_campaign walls, summed over the cells.
  double paced_s = 0.0;  ///< The same walls, rescaled cell by cell.
  std::vector<double> run_wall_s;
  faultgen::RunProfile profile;
  std::uint64_t digest = 0;
  std::size_t runs = 0;
  std::size_t violating = 0;
  std::size_t timed_out = 0;
  std::size_t errored = 0;
  std::size_t wide_routes = 0;
};

/// With `pace`, each cell's wall is rescaled as it ends, so a host speed
/// change within the grid is tracked cell by cell.
Grid run_grid(std::uint64_t seed, bool traced, HostPace* pace = nullptr) {
  Grid grid;
  std::vector<faultgen::CampaignEngine> engines;
  grid.wide_routes = build_grid(seed, traced, engines);

  runner::CampaignJobOptions job;
  job.runner.jobs = 1;
  std::string canonical;
  const std::uint64_t allocations_before = alloc_count();
  set_alloc_counting(traced);
  const Clock::time_point t0 = Clock::now();
  for (const faultgen::CampaignEngine& engine : engines) {
    runner::CampaignJobStats stats;
    const faultgen::CampaignResult result =
        runner::run_campaign(engine, job, &stats);
    grid.wall_s += stats.wall_s;
    if (pace != nullptr) grid.paced_s += pace->rescale(stats.wall_s);
    grid.run_wall_s.insert(grid.run_wall_s.end(), stats.per_run_wall_s.begin(),
                           stats.per_run_wall_s.end());
    grid.runs += result.runs;
    grid.violating += result.reports.size();
    grid.timed_out += stats.timed_out;
    grid.errored += stats.errored;
    grid.layers.hops += result.totals.hops;
    grid.profile.merge(result.profile);
    canonical += runner::canonical_aggregates(result);
  }
  grid.layers.traced_wall_s = seconds_since(t0);
  set_alloc_counting(false);
  grid.layers.allocations = alloc_count() - allocations_before;
  grid.digest = fnv1a(canonical);

  const auto phase = [&grid](obs::Phase p) {
    return grid.profile.phases.wall_s[static_cast<std::size_t>(p)];
  };
  grid.layers.setup_s = phase(obs::Phase::kSetup);
  grid.layers.loop_wall_s = phase(obs::Phase::kEventLoop);
  grid.layers.profile = grid.profile.events;
  grid.layers.events = grid.profile.events.total_events();
  return grid;
}

}  // namespace

Report run_campaign_rnp28(const Options& options) {
  Report report;
  report.param("topology", "rnp28");
  report.param("techniques", "hp,avp,nip");
  report.param("schedules", "updown,srlg,flap,sweep");
  report.param("runs_per_cell", kRunsPerCell);
  report.param("packets_per_run", kPacketsPerRun);
  report.param("jobs", 1);

  std::vector<Grid> plain;
  std::vector<Grid> traced;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<faultgen::CampaignEngine> engines;
  const auto record = [&report](const Grid& grid) {
    const std::size_t failed = grid.violating + grid.timed_out + grid.errored;
    report.attempted += grid.runs + grid.timed_out + grid.errored;
    report.failed += failed;
    report.check(failed == 0,
                 std::to_string(grid.violating) + " violating, " +
                     std::to_string(grid.timed_out) + " timed-out and " +
                     std::to_string(grid.errored) + " errored runs");
  };
  HostPace pace;
  repeat_for(options.seconds, options.trace ? 2 : 3, [&] {
    plain.push_back(
        run_grid(options.seed, false, options.trace ? nullptr : &pace));
    record(plain.back());
    if (!options.trace) {
      wall_s.push_back(plain.back().paced_s);
      setup_s.push_back(pace.rescale(per_call_s([&options, &engines] {
        (void)build_grid(options.seed, false, engines);
      })));
    } else {
      traced.push_back(run_grid(options.seed, true));
      record(traced.back());
    }
  });

  const Grid& first = plain.front();
  std::vector<double> plain_wall_s;
  for (const Grid& grid : plain) {
    plain_wall_s.push_back(grid.wall_s);
    report.check(
        grid.digest == first.digest && grid.layers.hops == first.layers.hops,
        "campaign aggregates differ between grids of one seed");
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(first.digest));
  report.witness("campaign.digest", std::string(digest));
  report.witness("sim.hops", first.layers.hops);

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(wall_s), "s");
    report.samples.emplace_back("setup_s", setup_s);
    report.samples.emplace_back("wall_s", wall_s);
    report.samples.emplace_back("reference_s", pace.reference_s());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return report;
  }

  std::vector<double> traced_wall_s;
  for (const Grid& grid : traced) {
    traced_wall_s.push_back(grid.wall_s);
    report.check(grid.digest == first.digest &&
                     grid.layers.events == traced.front().layers.events &&
                     grid.layers.allocations ==
                         traced.front().layers.allocations,
                 "traced grids of one seed differ in aggregates, events or "
                 "allocations");
  }
  const Grid& chosen =
      median_item(traced, [](const Grid& grid) { return grid.wall_s; });
  report_sim_layers(report, chosen.layers);
  double run_sum_s = 0.0;
  for (const double w : chosen.run_wall_s) run_sum_s += w;
  report.metric("faultgen.run_setup_s", chosen.layers.setup_s, "s");
  report.metric("faultgen.event_loop_s", chosen.layers.loop_wall_s, "s");
  report.metric("faultgen.run_p50_ms",
                1e3 * percentile(chosen.run_wall_s, 50.0), "ms");
  report.metric("faultgen.run_p99_ms",
                1e3 * percentile(chosen.run_wall_s, 99.0), "ms");
  report.metric("runner.overhead_s", chosen.wall_s - run_sum_s, "s");
  report.metric("rns.wide_route_share",
                static_cast<double>(chosen.wide_routes), "share");
  report.metric("trace_overhead_s",
                median(traced_wall_s) - median(plain_wall_s), "s");
  return report;
}

}  // namespace kar::perfbench
