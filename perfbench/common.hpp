// Shared plumbing for the whole-system benchmark: options, the per-run
// report every workload fills in, timing and memory helpers, and the
// event-loop layer split the three simulator workloads share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/residue_cache.hpp"
#include "sim/event_queue.hpp"

namespace kar::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median by linear interpolation (0 for an empty sample).
[[nodiscard]] double median(const std::vector<double>& samples);
/// The p-th percentile (0..100) by linear interpolation (0 when empty).
[[nodiscard]] double percentile(const std::vector<double>& samples, double p);

/// Rescales measured spans to a steady host speed. The host is shared, and
/// its speed drifts by up to 1.8x as other tenants' load comes and goes, in
/// phases of minutes: longer than one run, so no repetition within a run is
/// undisturbed. A fixed reference kernel (an event heap, random reads over a
/// table larger than L2, small allocations: the simulator's kinds of work)
/// is timed before the first span and after each one, and every span is
/// reported as
///   span_s * kReferenceS / mean(reference before, reference after),
/// its length on a host on which the reference kernel takes kReferenceS.
/// The kernel never changes with the program, so a slower program still
/// reads slower; a slower host reads the same.
class HostPace {
 public:
  /// The reference kernel's nominal time: about its time on a 4-vCPU
  /// 2.0 GHz Xeon VM in a quiet phase (0.029-0.031 s; 0.045-0.06 s in a
  /// busy one), so rescaled spans read about as they would there.
  static constexpr double kReferenceS = 0.03;

  HostPace();
  /// `span_s`, a span that ended just now and began after the previous
  /// call (or the constructor), at the reference speed. Runs the kernel.
  [[nodiscard]] double rescale(double span_s);
  /// The kernel's raw times so far, for the log.
  [[nodiscard]] const std::vector<double>& reference_s() const {
    return reference_s_;
  }

 private:
  std::vector<double> reference_s_;
};

/// Peak resident set of this process so far, in MiB, less the reference
/// kernel's table (allocated once, before any measured work, and resident
/// from then on).
[[nodiscard]] double peak_rss_mib();
/// Current resident set of this process, in bytes.
[[nodiscard]] double current_rss_bytes();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the output checks, the
/// attempted/failed operation counts, the metrics of the requested kind
/// (end-to-end when untraced, per-layer when traced), the workload
/// parameters for provenance and the exact counts that witness
/// determinism.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, std::string>> witnesses;
  /// Every repetition behind a reported figure, for the log.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  template <typename T>
  void param(std::string name, const T& value) {
    params.emplace_back(std::move(name), to_text(value));
  }
  template <typename T>
  void witness(std::string name, const T& value) {
    witnesses.emplace_back(std::move(name), to_text(value));
  }

 private:
  static std::string to_text(const std::string& v) { return v; }
  static std::string to_text(const char* v) { return v; }
  template <typename T>
  static std::string to_text(const T& v) {
    return std::to_string(v);
  }
};

/// Calls `fn()` until at least `min_reps` calls were made and `seconds` of
/// wall time have passed since the first.
template <typename Fn>
void repeat_for(double seconds, std::size_t min_reps, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; rep < min_reps || seconds_since(t0) < seconds;
       ++rep) {
    fn();
  }
}

/// Time per call of a set-up too short to time one call at a time: calls
/// `fn()` back to back for at least kSetupBatchS of wall time and returns
/// the batch's time per call. Workloads take one batch per measured unit,
/// so the batches spread over the whole run like the units do, rescale each
/// with HostPace and report the median batch.
constexpr double kSetupBatchS = 0.1;
template <typename Fn>
double per_call_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  std::size_t calls = 0;
  double elapsed_s = 0.0;
  do {
    fn();
    ++calls;
    elapsed_s = seconds_since(t0);
  } while (elapsed_s < kSetupBatchS);
  return elapsed_s / static_cast<double>(calls);
}

/// The item whose `wall(item)` is the median of `items` (non-empty).
template <typename T, typename Wall>
const T& median_item(const std::vector<T>& items, Wall wall) {
  std::vector<const T*> sorted;
  for (const T& item : items) sorted.push_back(&item);
  std::sort(sorted.begin(), sorted.end(),
            [&wall](const T* a, const T* b) { return wall(*a) < wall(*b); });
  return *sorted[sorted.size() / 2];
}

/// The traced split of one simulator workload: its setup, the event-loop
/// wall and the per-kind self times inside it, the exact work counts and
/// the allocations made inside the event loop.
struct SimLayers {
  double traced_wall_s = 0.0;  ///< Everything the traced unit took.
  double setup_s = 0.0;        ///< Scenario, controller, encode, Network.
  double loop_wall_s = 0.0;    ///< Sum of run_until()/run_all() walls.
  sim::EventLoopProfile profile;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
  std::uint64_t allocations = 0;
  dataplane::ResidueCache::Stats cache;

  void add(const SimLayers& other);
};

/// Emits the sim.*, transport.timer.* and dataplane.residue_cache.* layer
/// metrics for `layers` and prints the accounting of the traced wall
/// (setup + per-kind self time + dispatch + residual).
void report_sim_layers(Report& report, const SimLayers& layers);

}  // namespace kar::perfbench
