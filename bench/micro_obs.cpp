// Observability overhead microbenchmark: proves the "near-zero overhead
// when disabled" claim of src/obs/ on the forwarding hot loop (the same
// per-decision loop micro_forwarding measures).
//
// Three variants of the loop, hand-timed so the harness itself adds
// nothing:
//   baseline  — the bare KarSwitch::forward decision;
//   disabled  — the decision plus the updates the instrumented path
//               performs per decision (the hops counter, plus the
//               per-switch deflection counter when the decision deflects
//               — delivery histograms fire per packet, not per decision),
//               against handles from a *disabled* registry: each update
//               is a single predictable null-check branch;
//   enabled   — the same against an enabled registry (the real cost of
//               collecting, reported for reference, no threshold).
//
// Each variant runs `--reps` x `--iters` decisions, timed in slices of
// kSliceDecisions; its time per decision is that of its fastest slice
// (the min-of-N noise-floor estimator for micro-timings). The variants
// compared by a gate run interleaved slice by slice — each round runs
// every variant once, rotating which goes first — so a preemption or a
// slow stretch of the host spoils single slices of every variant alike
// instead of a whole repetition of one. Acceptance: the disabled
// variant is < 2% over baseline. The committed record lives in
// BENCH_obs.json (regenerate with: micro_obs --out=BENCH_obs.json).
//
// Usage: micro_obs [--iters=20000000] [--reps=7] [--threshold-pct=2]
//                  [--out=PATH]
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "routing/controller.hpp"
#include "runner/jsonl.hpp"
#include "topology/builders.hpp"

namespace {

using kar::dataplane::DeflectionTechnique;
using kar::dataplane::KarSwitch;
using kar::dataplane::Packet;

/// Keeps `value` observable so the optimizer cannot delete the loop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct LoopContext {
  kar::topo::Scenario scenario = kar::topo::make_experimental15();
  kar::routing::Controller controller{scenario.topology};
  KarSwitch sw{scenario.topology, scenario.topology.at("SW7"),
               DeflectionTechnique::kNotInputPort};
  Packet packet;
  kar::common::Rng rng{1};

  LoopContext() {
    const auto route = controller.encode_scenario(
        scenario.route, kar::topo::ProtectionLevel::kPartial);
    packet.kar.route_id = route.route_id;
    packet.dst_edge = scenario.topology.at("AS3");
  }
};

/// One timed repetition of `iters` forwarding decisions; the obs handles
/// (possibly inert) are updated exactly like the instrumented dataplane
/// path updates them per decision. Returns seconds.
double timed_rep(LoopContext& context, std::size_t iters,
                 kar::obs::Counter hops, kar::obs::Counter deflections) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto decision = context.sw.forward(context.packet, 0, context.rng);
    hops.inc();
    if (decision.deflected) deflections.inc();
    keep(decision);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Baseline repetition: the bare decision loop, no obs updates at all.
double timed_rep_baseline(LoopContext& context, std::size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto decision = context.sw.forward(context.packet, 0, context.rng);
    keep(decision);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Decisions per timed slice: short enough (some 10-20 us) that many
/// slices run undisturbed on a busy host, long enough that the two clock
/// reads around a slice stay far below the gated differences.
constexpr std::size_t kSliceDecisions = 1024;

/// Per-variant fastest slice over `rounds` interleaved rounds. Round r
/// runs the variants starting at index r mod N, so each one goes first
/// equally often.
std::vector<double> fastest_slice(
    std::size_t rounds, const std::vector<std::function<double()>>& variants) {
  std::vector<double> best(variants.size(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const std::size_t v = (r + i) % variants.size();
      best[v] = std::min(best[v], variants[v]());
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto iters =
      static_cast<std::size_t>(flags.get_int("iters", 20000000));
  const auto reps = static_cast<std::size_t>(flags.get_int("reps", 7));
  const double threshold_pct = flags.get_double("threshold-pct", 2.0);
  const std::string out_path = flags.get_string("out", "");
  if (kar::common::report_unread(flags, "micro_obs")) return 2;

  LoopContext context;

  // Handles mirroring what NetworkObserver holds per decision.
  kar::obs::MetricsRegistry disabled_registry(false);
  kar::obs::Counter disabled_hops =
      disabled_registry.counter("kar_hops_total", "hops");
  kar::obs::Counter disabled_deflections = disabled_registry.counter(
      "kar_deflections_total", "deflections", {{"switch", "SW7"}});

  kar::obs::MetricsRegistry enabled_registry(true);
  kar::obs::Counter enabled_hops =
      enabled_registry.counter("kar_hops_total", "hops");
  kar::obs::Counter enabled_deflections = enabled_registry.counter(
      "kar_deflections_total", "deflections", {{"switch", "SW7"}});

  // Warm-up (untimed) so the first timed variant is not paying cold caches.
  (void)timed_rep_baseline(context, iters / 10 + 1);

  // Same decision count as reps x iters, cut into slices.
  const std::size_t slice =
      std::max<std::size_t>(1, std::min(iters, kSliceDecisions));
  const std::size_t rounds = reps * (iters / slice);
  const std::vector<double> loop_s = fastest_slice(
      rounds,
      {[&] { return timed_rep_baseline(context, slice); },
       [&] {
         return timed_rep(context, slice, disabled_hops, disabled_deflections);
       },
       [&] {
         return timed_rep(context, slice, enabled_hops, enabled_deflections);
       }});
  const double baseline_s = loop_s[0];
  const double disabled_s = loop_s[1];
  const double enabled_s = loop_s[2];

  const auto ns_per_op = [slice](double seconds) {
    return seconds * 1e9 / static_cast<double>(slice);
  };
  const auto overhead_pct = [baseline_s](double seconds) {
    return (seconds / baseline_s - 1.0) * 100.0;
  };
  const bool pass = overhead_pct(disabled_s) < threshold_pct;

  std::cout << "=== obs overhead on the forwarding hot loop ("
            << iters << " decisions x " << reps << " reps, best-of) ===\n";
  kar::common::TextTable table(
      {"variant", "ns/decision", "overhead vs baseline"});
  table.add_row({"baseline", kar::common::fmt_double(ns_per_op(baseline_s), 2),
                 "-"});
  table.add_row({"obs disabled",
                 kar::common::fmt_double(ns_per_op(disabled_s), 2),
                 kar::common::fmt_double(overhead_pct(disabled_s), 2) + " %"});
  table.add_row({"obs enabled",
                 kar::common::fmt_double(ns_per_op(enabled_s), 2),
                 kar::common::fmt_double(overhead_pct(enabled_s), 2) + " %"});
  std::cout << table.render() << "\nacceptance: disabled < "
            << kar::common::fmt_double(threshold_pct, 1) << "% -> "
            << (pass ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    kar::runner::JsonObject record;
    record.field("bench", "micro_obs")
        .raw("provenance", kar::bench::provenance_json())
        .field("loop", "KarSwitch::forward nip experimental15 SW7")
        .field("iters", static_cast<std::uint64_t>(iters))
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("baseline_ns_per_op", ns_per_op(baseline_s))
        .field("disabled_ns_per_op", ns_per_op(disabled_s))
        .field("enabled_ns_per_op", ns_per_op(enabled_s))
        .field("disabled_overhead_pct", overhead_pct(disabled_s))
        .field("enabled_overhead_pct", overhead_pct(enabled_s))
        .field("threshold_pct", threshold_pct)
        .field("pass", pass);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "micro_obs: cannot open " << out_path << '\n';
      return 2;
    }
    out << record.str() << '\n';
    std::cout << "recorded " << out_path << '\n';
  }
  return pass ? 0 : 1;
}
