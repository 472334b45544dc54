// The whole-system benchmark binary (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--git REV]
//   perfbench --selftest
//
// Prints the workload's parameters, determinism witnesses and metrics one
// per line, a provenance line, and as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics. Exit code 0 when the run completed (a failed output check is
// reported through "correct"), 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "alloc_count.hpp"
#include "common/parse.hpp"
#include "runner/jsonl.hpp"
#include "workloads.hpp"

namespace {

using namespace kar::perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MiB"}};

/// Every traced run reports all of these; a layer a workload does not
/// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.hops", "count"},
    {"sim.link_arrival.self_s", "s"},
    {"sim.switch_process.self_s", "s"},
    {"sim.link_state.self_s", "s"},
    {"sim.generic.self_s", "s"},
    {"sim.edge_process.self_s", "s"},
    {"sim.traffic.self_s", "s"},
    {"sim.other.self_s", "s"},
    {"transport.timer.self_s", "s"},
    {"sim.dispatch_s", "s"},
    {"sim.residual_s", "s"},
    {"sim.allocs_per_hop", "count"},
    {"sim.setup_s", "s"},
    {"faultgen.run_setup_s", "s"},
    {"faultgen.event_loop_s", "s"},
    {"faultgen.run_p50_ms", "ms"},
    {"faultgen.run_p99_ms", "ms"},
    {"runner.overhead_s", "s"},
    {"rns.wide_route_share", "share"},
    {"dataplane.residue_cache.hits", "count"},
    {"dataplane.residue_cache.lookups", "count"},
    {"dataplane.residue_cache.hit_ratio", "share"},
    {"traffic.compile_s", "s"},
    {"traffic.peak_concurrent", "count"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"mutation_p50_ms", "ms"},
    {"mutation_p99_ms", "ms"},
    {"link_p50_ms", "ms"},
    {"max_rps", "req/s"},
    {"max_rps.first_failing_rung", "req/s"},
    {"daemon.admit_p50_us", "us"},
    {"daemon.admit_p99_us", "us"},
    {"daemon.epochs", "count"},
    {"daemon.ops_per_epoch", "count"},
    {"daemon.epoch_ms_mean", "ms"},
    {"daemon.generator_lag_p99_ms", "ms"},
    {"ctrlplane.reconverge_ms_mean", "ms"},
    {"ctrlplane.reencodes_per_link_event", "count"},
    {"ctrlplane.affected_per_link_event", "count"},
    {"ctrlplane.bytes_per_route", "B"},
    {"error_rate", "share"},
    {"trace_overhead_s", "s"},
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig4_tcp|campaign_rnp28|"
               "mesh_internet2|kard_rnp28_200k --seed N --seconds S "
               "--trace 0|1 [--git REV]\n       perfbench --selftest\n";
  return 2;
}

/// Counting hook check and exact-repeat check of sim.allocs_per_hop.
int selftest() {
  const std::uint64_t before = alloc_count();
  set_alloc_counting(true);
  void* p = ::operator new(64);
  set_alloc_counting(false);
  ::operator delete(p);
  const std::uint64_t counted = alloc_count() - before;
  std::printf("selftest: one operator new counted %llu time(s)\n",
              static_cast<unsigned long long>(counted));
  bool ok = counted == 1;

  const SimLayers a = fig4_traced_unit(7, 2.0);
  const SimLayers b = fig4_traced_unit(7, 2.0);
  std::printf(
      "selftest: fig4 seed 7 twice: allocations %llu/%llu, hops %llu/%llu, "
      "events %llu/%llu\n",
      static_cast<unsigned long long>(a.allocations),
      static_cast<unsigned long long>(b.allocations),
      static_cast<unsigned long long>(a.hops),
      static_cast<unsigned long long>(b.hops),
      static_cast<unsigned long long>(a.events),
      static_cast<unsigned long long>(b.events));
  ok = ok && a.hops > 0 && a.allocations == b.allocations &&
       a.hops == b.hops && a.events == b.events;
  std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto seed = kar::common::parse_u64(value);
      if (!seed) return usage("--seed takes an unsigned integer");
      options.seed = *seed;
    } else if (arg == "--seconds") {
      const auto seconds = kar::common::parse_double(value);
      if (!seconds) return usage("--seconds takes a number");
      options.seconds = *seconds;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--git") {
      git = value;
    } else {
      return usage("unknown argument " + std::string(arg));
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "fig4_tcp") {
      report = run_fig4_tcp(options);
    } else if (options.workload == "campaign_rnp28") {
      report = run_campaign_rnp28(options);
    } else if (options.workload == "mesh_internet2") {
      report = run_mesh_internet2(options);
    } else if (options.workload == "kard_rnp28_200k") {
      report = run_kard_rnp28(options);
    } else {
      return usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  if (options.trace) {
    const double attempted = static_cast<double>(report.attempted);
    report.metric("error_rate",
                  attempted > 0 ? static_cast<double>(report.failed) / attempted
                                : 0.0,
                  "share");
  }

  // Exactly the declared metric set, in declaration order.
  const MetricSpec* specs =
      options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* specs_end =
      options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  kar::runner::JsonObject metrics;
  for (const Metric& m : report.metrics) {
    const bool declared =
        std::any_of(specs, specs_end, [&m](const MetricSpec& s) {
          return m.name == s.name && m.unit == s.unit;
        });
    if (!declared || !std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " (" << m.unit
                << ") is undeclared or not finite\n";
      return 1;
    }
  }
  for (const auto* spec = specs; spec != specs_end; ++spec) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : report.metrics) {
      if (m.name == spec->name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && !options.trace) {
      std::cerr << "perfbench: end-to-end metric " << spec->name
                << " missing\n";
      return 1;
    }
    std::printf("metric %s %s %s\n", spec->name, number(value).c_str(),
                spec->unit);
    kar::runner::JsonObject entry;
    entry.raw("value", number(value)).field("unit", spec->unit);
    metrics.raw(spec->name, entry.str());
  }

  for (const auto& [name, value] : report.witnesses) {
    std::printf("witness %s %s\n", name.c_str(), value.c_str());
  }
  for (const auto& [name, values] : report.samples) {
    std::printf("samples %s", name.c_str());
    for (const double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  std::size_t shown = 0;
  for (const std::string& failure : report.check_failures) {
    if (shown++ < 10) {
      std::cerr << "perfbench: check failed: " << failure << '\n';
    }
  }

  kar::runner::JsonObject params;
  for (const auto& [name, value] : report.params) params.field(name, value);
  kar::runner::JsonObject provenance;
  provenance.field("workload", options.workload)
      .field("seed", options.seed)
      .field("seconds", options.seconds)
      .field("trace", options.trace)
      .field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("compiler", PERFBENCH_COMPILER)
      .field("git", git)
      .raw("params", params.str());
  std::printf("provenance %s\n", provenance.str().c_str());

  kar::runner::JsonObject result;
  result.field("correct", report.check_failures.empty())
      .field("attempted", report.attempted)
      .field("failed", report.failed)
      .raw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}
