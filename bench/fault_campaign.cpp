// Fault-injection campaign driver: seeded adversarial failure schedules
// against the KAR data plane with the runtime invariant checker attached.
// Exit status 0 iff every run of every campaign passed all invariants;
// violations print their run seed and a shrunk, replayable schedule.
//
// Usage:
//   fault_campaign [--topology=fig1] [--technique=nip] [--protection=partial]
//                  [--schedule=updown|srlg|flap|sweep] [--runs=100]
//                  [--packets=20] [--horizon=0.5] [--max-hops=256]
//                  [--detection-delay=0] [--seed=1] [--no-shrink]
//                  [--mutate-hop-budget=N] [--quiet]
//                  [--jobs=N] [--timeout=S] [--progress] [--jsonl=PATH]
//                  [--bench-json[=PATH]]
//                  [--metrics-out=PATH] [--trace-out=PATH] [--trace-runs=N]
//                  [--profile]
//
// Observability (docs/observability.md): --metrics-out writes the folded
// campaign metrics as Prometheus text (and embeds a per-run snapshot in
// each --jsonl record); --trace-out writes a Chrome trace_event JSON
// (chrome://tracing, Perfetto) of the first --trace-runs runs per grid
// cell; --profile prints per-phase wall time and the event-kind breakdown.
//
// --technique / --schedule also accept "all" to sweep HP, AVP and NIP (and
// all four schedule families) in one invocation — the mode the CTest
// `campaign` label runs.
//
// Runs execute on the parallel runner (src/runner/): --jobs=N runs N
// simulations concurrently (default: hardware concurrency; --jobs=1 is the
// serial in-line reference path). Aggregates are bit-identical for every
// jobs count — see docs/runner.md for the determinism contract.
// --jsonl=PATH appends one JSON record per run; --bench-json measures the
// serial vs parallel wall clock of the whole grid and writes
// BENCH_runner.json (runs/sec, speedup, per-run p50/p95).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "faultgen/campaign.hpp"
#include "obs/export.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/jsonl.hpp"

namespace {

using namespace kar;

struct CliOptions {
  faultgen::CampaignConfig base;
  std::vector<dataplane::DeflectionTechnique> techniques;
  std::vector<faultgen::ScheduleKind> schedules;
  bool quiet = false;
  std::size_t jobs = 0;  // 0 => hardware concurrency
  double timeout_s = 0.0;
  bool progress = false;
  std::string jsonl_path;
  std::string metrics_path;
  std::string trace_path;
};

runner::CampaignJobOptions job_options(const CliOptions& options,
                                       std::size_t jobs,
                                       runner::JsonlWriter* jsonl) {
  runner::CampaignJobOptions job;
  job.runner.jobs = jobs;
  job.runner.run_timeout_s = options.timeout_s;
  job.runner.progress = options.progress;
  job.runner.progress_label = "campaign j" + std::to_string(jobs);
  job.jsonl = jsonl;
  return job;
}

/// Outcome of one (technique x schedule) grid sweep.
struct GridOutcome {
  std::size_t total_runs = 0;
  std::size_t violating_runs = 0;
  std::size_t timed_out = 0;
  std::size_t errored = 0;
  double wall_s = 0.0;
  std::vector<double> run_wall_s;          // merged across sub-campaigns
  std::string canonical;                   // concatenated aggregates
  std::vector<faultgen::CampaignResult> results;  // grid order
};

GridOutcome run_grid(const CliOptions& options, std::size_t jobs,
                     runner::JsonlWriter* jsonl) {
  GridOutcome outcome;
  for (const auto technique : options.techniques) {
    for (const auto schedule_kind : options.schedules) {
      faultgen::CampaignConfig config = options.base;
      config.technique = technique;
      config.schedule.kind = schedule_kind;
      faultgen::CampaignEngine engine(config);
      runner::CampaignJobStats stats;
      faultgen::CampaignResult result =
          runner::run_campaign(engine, job_options(options, jobs, jsonl), &stats);
      outcome.total_runs += result.runs;
      outcome.violating_runs += result.reports.size();
      outcome.timed_out += stats.timed_out;
      outcome.errored += stats.errored;
      outcome.wall_s += stats.wall_s;
      outcome.run_wall_s.insert(outcome.run_wall_s.end(),
                                stats.per_run_wall_s.begin(),
                                stats.per_run_wall_s.end());
      outcome.canonical += runner::canonical_aggregates(result);
      outcome.results.push_back(std::move(result));
    }
  }
  return outcome;
}

int run_campaigns(const CliOptions& options) {
  std::unique_ptr<runner::JsonlWriter> jsonl;
  if (!options.jsonl_path.empty()) {
    jsonl = std::make_unique<runner::JsonlWriter>(options.jsonl_path);
  }
  const GridOutcome outcome = run_grid(options, options.jobs, jsonl.get());

  // Observability exports: the folded grid metrics as Prometheus text, the
  // traced runs as one Chrome-trace process per grid cell.
  if (!options.metrics_path.empty()) {
    obs::MetricsSnapshot merged;
    for (const faultgen::CampaignResult& result : outcome.results) {
      merged.merge(result.metrics);
    }
    obs::write_prometheus_file(options.metrics_path, merged);
  }
  if (!options.trace_path.empty()) {
    std::vector<obs::ChromeTraceProcess> processes;
    std::size_t trace_cell = 0;
    for (const auto technique : options.techniques) {
      for (const auto schedule_kind : options.schedules) {
        const faultgen::CampaignResult& result = outcome.results[trace_cell++];
        if (result.trace.empty()) continue;
        processes.push_back(
            {std::string(dataplane::to_string(technique)) + "/" +
                 std::string(faultgen::to_string(schedule_kind)),
             result.trace});
      }
    }
    obs::write_chrome_trace_file(options.trace_path, processes);
  }
  if (options.base.profile && !options.quiet) {
    faultgen::RunProfile profile;
    for (const faultgen::CampaignResult& result : outcome.results) {
      profile.merge(result.profile);
    }
    std::cout << "--- profile (" << profile.phases.runs << " runs) ---\n";
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      std::cout << "  " << to_string(static_cast<obs::Phase>(i)) << ": "
                << common::fmt_double(1e3 * profile.phases.wall_s[i], 2)
                << " ms\n";
    }
    for (std::size_t i = 0; i < sim::kEventKindCount; ++i) {
      const auto& kind = profile.events.kinds[i];
      if (kind.count == 0) continue;
      std::cout << "  event " << to_string(static_cast<sim::EventKind>(i))
                << ": " << kind.count << " events, "
                << common::fmt_double(1e3 * kind.wall_s, 2) << " ms\n";
    }
  }

  common::TextTable table({"technique", "schedule", "runs", "events",
                           "delivery rate", "mean hops", "violations"});
  std::size_t cell = 0;
  for (const auto technique : options.techniques) {
    for (const auto schedule_kind : options.schedules) {
      const faultgen::CampaignResult& result = outcome.results[cell++];
      table.add_row(
          {std::string(dataplane::to_string(technique)),
           std::string(faultgen::to_string(schedule_kind)),
           std::to_string(result.runs), std::to_string(result.schedule_events),
           common::fmt_double(100.0 * result.delivery_rate.mean, 2) + "% +/- " +
               common::fmt_double(100.0 * result.delivery_rate.ci95_half_width, 2),
           common::fmt_double(result.hops_per_delivered.mean, 2),
           std::to_string(result.reports.size())});
      for (const faultgen::ViolationReport& report : result.reports) {
        std::cerr << "INVARIANT VIOLATION [" << to_string(report.first.kind)
                  << "] topology=" << options.base.topology
                  << " technique=" << dataplane::to_string(technique)
                  << " schedule=" << faultgen::to_string(schedule_kind)
                  << " seed=" << report.run_seed << '\n'
                  << "  t=" << report.first.time
                  << " packet=" << report.first.packet_id << ": "
                  << report.first.detail << '\n'
                  << "  (" << report.total_violations
                  << " violation(s) in the run; schedule shrunk "
                  << report.original.size() << " -> " << report.shrunk.size()
                  << " events)\n"
                  << "  shrunk schedule:\n";
        // Indent the replayable schedule under the report.
        for (const auto& line :
             common::split(report.shrunk_description, '\n', false)) {
          std::cerr << "    " << line << '\n';
        }
      }
    }
  }
  if (!options.quiet) {
    std::cout << "=== Fault-injection campaign: " << options.base.topology
              << ", protection=" << topo::to_string(options.base.protection)
              << ", " << options.base.packets_per_run << " packets/run, seed "
              << options.base.seed << " ===\n"
              << table.render() << '\n'
              << outcome.total_runs << " seeded failure scenarios, "
              << outcome.violating_runs << " with invariant violations\n";
  }
  if (outcome.timed_out > 0 || outcome.errored > 0) {
    std::cerr << "fault_campaign: " << outcome.timed_out << " run(s) timed out, "
              << outcome.errored << " run(s) errored\n";
    return 1;
  }
  return outcome.violating_runs == 0 ? 0 : 1;
}

/// --bench-json: times the whole grid serially (--jobs=1) and in parallel,
/// checks the aggregates are bit-identical, and writes the perf record.
int run_bench_json(const CliOptions& options, const std::string& path) {
  CliOptions quiet = options;
  quiet.progress = options.progress;

  const std::size_t parallel_jobs =
      options.jobs != 0 ? options.jobs : runner::default_jobs();
  const GridOutcome serial = run_grid(quiet, 1, nullptr);
  const GridOutcome parallel = run_grid(quiet, parallel_jobs, nullptr);
  const bool deterministic = serial.canonical == parallel.canonical;

  const auto per_run = [](const GridOutcome& grid) {
    runner::JsonObject side;
    side.field("wall_s", grid.wall_s)
        .field("runs_per_sec", grid.wall_s > 0.0
                                   ? static_cast<double>(grid.total_runs) /
                                         grid.wall_s
                                   : 0.0)
        .field("run_wall_p50_ms",
               1e3 * stats::percentile(grid.run_wall_s, 50.0))
        .field("run_wall_p95_ms",
               1e3 * stats::percentile(grid.run_wall_s, 95.0))
        .field("timed_out", static_cast<std::uint64_t>(grid.timed_out))
        .field("errored", static_cast<std::uint64_t>(grid.errored));
    return side.str();
  };

  runner::JsonObject record;
  record.field("bench", "fault_campaign")
      .raw("provenance", bench::provenance_json())
      .field("topology", options.base.topology)
      .field("total_runs", static_cast<std::uint64_t>(serial.total_runs))
      .field("campaigns",
             static_cast<std::uint64_t>(options.techniques.size() *
                                        options.schedules.size()))
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(runner::default_jobs()))
      .field("jobs", static_cast<std::uint64_t>(parallel_jobs))
      .raw("serial", per_run(serial))
      .raw("parallel", per_run(parallel))
      .field("speedup",
             parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 0.0)
      .field("deterministic", deterministic)
      .field("violating_runs",
             static_cast<std::uint64_t>(serial.violating_runs));

  runner::JsonlWriter out(path);
  out.write(record);
  std::cout << record.str() << '\n';
  if (!deterministic) {
    std::cerr << "fault_campaign: aggregates differ between --jobs=1 and "
              << "--jobs=" << parallel_jobs << " (determinism bug)\n";
    return 1;
  }
  return serial.violating_runs == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::parse_cli(argc, argv);

  CliOptions options;
  options.base.topology = flags.get_string("topology", "fig1");
  options.base.runs = static_cast<std::size_t>(flags.get_int("runs", 100));
  options.base.packets_per_run =
      static_cast<std::size_t>(flags.get_int("packets", 20));
  options.base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.base.max_hops =
      static_cast<std::uint32_t>(flags.get_int("max-hops", 256));
  options.base.failure_detection_delay_s =
      flags.get_double("detection-delay", 0.0);
  options.base.schedule.horizon_s = flags.get_double("horizon", 0.5);
  options.base.schedule.mean_downtime_s =
      flags.get_double("mean-downtime", 0.1);
  options.base.schedule.k_failures =
      static_cast<std::size_t>(flags.get_int("k-failures", 2));
  options.base.shrink = flags.get_bool("shrink", true);
  options.quiet = flags.get_bool("quiet", false);
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  options.timeout_s = flags.get_double("timeout", 0.0);
  options.progress = flags.get_bool("progress", false);
  options.jsonl_path = flags.get_string("jsonl", "");
  options.metrics_path = flags.get_string("metrics-out", "");
  options.trace_path = flags.get_string("trace-out", "");
  options.base.collect_metrics = !options.metrics_path.empty();
  options.base.profile = flags.get_bool("profile", false);
  options.base.trace_runs = static_cast<std::size_t>(
      flags.get_int("trace-runs", options.trace_path.empty() ? 0 : 1));
  if (flags.has("mutate-hop-budget")) {
    options.base.hop_budget_override =
        static_cast<std::uint32_t>(flags.get_int("mutate-hop-budget", 0));
  }
  const std::string protection = flags.get_string("protection", "partial");
  const std::string technique = flags.get_string("technique", "all");
  const std::string schedule = flags.get_string("schedule", "all");
  const bool bench_json = flags.has("bench-json");
  std::string bench_json_path =
      flags.get_string("bench-json", "BENCH_runner.json");
  // A bare --bench-json reads as "true".
  if (bench_json_path == "true") bench_json_path = "BENCH_runner.json";
  if (common::report_unread(flags, "fault_campaign")) return 2;
  if (protection == "none" || protection == "unprotected") {
    options.base.protection = topo::ProtectionLevel::kUnprotected;
  } else if (protection == "partial") {
    options.base.protection = topo::ProtectionLevel::kPartial;
  } else if (protection == "full") {
    options.base.protection = topo::ProtectionLevel::kFull;
  } else {
    std::cerr << "unknown --protection: " << protection << '\n';
    return 2;
  }

  try {
    // An unknown name is a usage error, found once here rather than by
    // every run of every engine.
    (void)faultgen::make_campaign_scenario(options.base.topology);
    if (technique == "all") {
      options.techniques = {dataplane::DeflectionTechnique::kHotPotato,
                            dataplane::DeflectionTechnique::kAnyValidPort,
                            dataplane::DeflectionTechnique::kNotInputPort};
    } else {
      options.techniques = {dataplane::technique_from_string(technique)};
    }
    if (schedule == "all") {
      options.schedules = {
          faultgen::ScheduleKind::kRandomUpDown, faultgen::ScheduleKind::kSrlgGroups,
          faultgen::ScheduleKind::kFlapping, faultgen::ScheduleKind::kKFailureSweep};
    } else {
      options.schedules = {faultgen::schedule_kind_from_string(schedule)};
    }
    if (bench_json) return run_bench_json(options, bench_json_path);
    return run_campaigns(options);
  } catch (const std::exception& error) {
    std::cerr << "fault_campaign: " << error.what() << '\n';
    return 2;
  }
}
