#include "runner/campaign_runner.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace kar::runner {

namespace {

/// %a hexfloat: exact (lossless) and byte-stable for equal doubles.
std::string hexfloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

void append_summary(std::ostringstream& out, const char* name,
                    const stats::Summary& summary) {
  out << name << ".n=" << summary.n << ' '
      << name << ".mean=" << hexfloat(summary.mean) << ' '
      << name << ".variance=" << hexfloat(summary.variance) << ' '
      << name << ".min=" << hexfloat(summary.min) << ' '
      << name << ".max=" << hexfloat(summary.max) << ' '
      << name << ".ci95=" << hexfloat(summary.ci95_half_width) << '\n';
}

}  // namespace

std::string canonical_aggregates(const faultgen::CampaignResult& result) {
  std::ostringstream out;
  const sim::NetworkCounters& totals = result.totals;
  out << "runs=" << result.runs
      << " schedule_events=" << result.schedule_events << '\n'
      << "injected=" << totals.injected << " delivered=" << totals.delivered
      << " delivered_bytes=" << totals.delivered_bytes
      << " hops=" << totals.hops << " deflections=" << totals.deflections
      << " reencodes=" << totals.reencodes << " bounces=" << totals.bounces
      << '\n'
      << "drops=" << totals.drop_no_viable_port << ','
      << totals.drop_link_failed << ',' << totals.drop_queue_overflow << ','
      << totals.drop_ttl << ',' << totals.drop_aqm_early << '\n';
  append_summary(out, "delivery_rate", result.delivery_rate);
  append_summary(out, "hops_per_delivered", result.hops_per_delivered);
  out << "violating_runs=" << result.reports.size() << '\n';
  for (const faultgen::ViolationReport& report : result.reports) {
    out << "violation seed=" << report.run_seed
        << " kind=" << to_string(report.first.kind)
        << " total=" << report.total_violations
        << " original=" << report.original.size()
        << " shrunk=" << report.shrunk.size() << '\n';
  }
  // Metrics are run-index-order folds of per-run snapshots, so they share
  // the counters' determinism guarantee (wall-time profiles do not and are
  // deliberately absent here).
  if (!result.metrics.empty()) {
    out << "metrics=" << result.metrics.json() << '\n';
  }
  return out.str();
}

std::string campaign_run_record(const faultgen::CampaignEngine& engine,
                                const faultgen::RunResult* run,
                                const RunStatus& status) {
  const faultgen::CampaignConfig& config = engine.config();
  const char* verdict = "ok";
  if (!status.ok) {
    verdict = "error";
  } else if (status.timed_out) {
    verdict = "timeout";
  } else if (run != nullptr && !run->violations.empty()) {
    verdict = "violation";
  }
  JsonObject record;
  record.field("run", static_cast<std::uint64_t>(status.index))
      .field("seed", run != nullptr ? run->run_seed
                                    : engine.run_seed_at(status.index))
      .field("topology", config.topology)
      .field("technique", dataplane::to_string(config.technique))
      .field("schedule", faultgen::to_string(config.schedule.kind))
      .field("protection", topo::to_string(config.protection))
      .field("verdict", verdict)
      .field("wall_ms", status.wall_s * 1e3);
  if (run != nullptr) {
    const sim::NetworkCounters& counters = run->counters;
    record.field("schedule_events", static_cast<std::uint64_t>(run->schedule.size()))
        .field("injected", counters.injected)
        .field("delivered", counters.delivered)
        .field("delivered_bytes", counters.delivered_bytes)
        .field("hops", counters.hops)
        .field("deflections", counters.deflections)
        .field("reencodes", counters.reencodes)
        .field("drops", counters.total_drops())
        .field("delivery_rate",
               counters.injected > 0
                   ? static_cast<double>(counters.delivered) /
                         static_cast<double>(counters.injected)
                   : 0.0)
        .field("queue_drained", run->queue_drained)
        .field("violations", static_cast<std::uint64_t>(run->violations.size()));
    if (!run->violations.empty()) {
      record.field("first_violation", to_string(run->violations.front().kind));
    }
    if (!run->metrics.empty()) {
      record.raw("metrics", run->metrics.json());
    }
  }
  if (!status.ok) {
    record.field("error", status.error);
  }
  return record.str();
}

faultgen::CampaignResult run_campaign(const faultgen::CampaignEngine& engine,
                                      const CampaignJobOptions& options,
                                      CampaignJobStats* stats) {
  faultgen::CampaignAccumulator accumulator(engine);
  // One world per worker, never shared: run_indexed runs one call at a
  // time on each worker.
  std::vector<faultgen::WorldSlot> worlds(
      options.runner.jobs == 0 ? default_jobs() : options.runner.jobs);
  const auto fn = [&engine, &worlds](std::size_t index, std::size_t worker,
                                     const CancelToken& token) {
    return engine.run_one(worlds[worker], engine.run_seed_at(index), nullptr,
                          token.raw(),
                          /*traced=*/index < engine.config().trace_runs);
  };
  const auto consume = [&](std::size_t index,
                           IndexedOutcome<faultgen::RunResult>&& outcome) {
    (void)index;
    const faultgen::RunResult* run =
        outcome.value.has_value() ? &*outcome.value : nullptr;
    if (outcome.status.ok && !outcome.status.timed_out && run != nullptr) {
      accumulator.add(*run);
    }
    if (options.jsonl != nullptr) {
      options.jsonl->write(campaign_run_record(engine, run, outcome.status));
    }
  };
  const RunnerReport report = run_indexed<faultgen::RunResult>(
      engine.config().runs, options.runner, fn, consume);
  if (stats != nullptr) {
    stats->jobs = report.jobs;
    stats->wall_s = report.wall_s;
    stats->runs_per_sec =
        report.wall_s > 0.0
            ? static_cast<double>(report.completed) / report.wall_s
            : 0.0;
    stats->run_wall_s = stats::summarize(report.run_wall_s);
    if (!report.run_wall_s.empty()) {
      stats->run_wall_p50_s = stats::percentile(report.run_wall_s, 50.0);
      stats->run_wall_p95_s = stats::percentile(report.run_wall_s, 95.0);
    }
    stats->timed_out = report.timed_out;
    stats->errored = report.errored;
    stats->per_run_wall_s = report.run_wall_s;
  }
  return accumulator.take();
}

}  // namespace kar::runner
