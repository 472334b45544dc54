// Parallel experiment-orchestration runtime.
//
// run_indexed() executes `count` independent runs on `jobs` workers and
// delivers every outcome to the calling thread IN INDEX ORDER, whatever
// the scheduling. That single property is what makes parallel campaigns
// bit-identical to serial ones: workers may finish in any order, but
// aggregation always folds run 0, then run 1, ... — so any order-sensitive
// reduction (floating-point sums, report lists, JSONL records) sees the
// exact sequence the `--jobs 1` run produces.
//
// Per-run services:
//   * crash isolation — a run that throws is captured as a failed outcome
//     (status.ok == false, status.error == what()); the campaign continues;
//   * cooperative timeout — a watchdog cancels the run's CancelToken after
//     `run_timeout_s`; runs poll the token at natural yield points (the
//     campaign engine checks it between event-queue slices), so one
//     pathological scenario cannot hang the campaign;
//   * live progress/ETA on stderr (opt-in), rate-limited.
//
// Workers claim run indices from one shared counter. The calling thread is
// worker 0 and consumes finished runs between its own; `jobs - 1` helper
// threads are the other workers, so `jobs == 1` starts no thread (a
// watchdog thread appears only when a timeout is requested).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kar::runner {

/// `std::thread::hardware_concurrency()`, with a floor of 1 (the standard
/// allows it to report 0 when unknown).
[[nodiscard]] std::size_t default_jobs();

/// Cooperative cancellation flag shared between a run and the watchdog.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  /// The raw flag, for APIs that take `const std::atomic<bool>*` without
  /// depending on the runner (e.g. faultgen::CampaignEngine::run_one).
  [[nodiscard]] const std::atomic<bool>* raw() const noexcept { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
};

struct RunnerConfig {
  /// Workers; 0 means default_jobs() (hardware concurrency), 1 runs every
  /// run on the calling thread.
  std::size_t jobs = 0;
  /// Per-run cooperative timeout in seconds; <= 0 disables the watchdog.
  /// Note: a fired timeout makes that run's outcome scheduling-dependent,
  /// so the bit-identical-aggregates contract holds only for campaigns in
  /// which no run times out (timeouts are always reported).
  double run_timeout_s = 0.0;
  /// Live `done/total | rate | ETA` line, rewritten in place on
  /// `progress_stream` (default stderr).
  bool progress = false;
  std::ostream* progress_stream = nullptr;  // nullptr => std::cerr
  double progress_interval_s = 0.5;
  std::string progress_label = "runner";
};

/// Runner metadata for one run.
struct RunStatus {
  std::size_t index = 0;
  double wall_s = 0.0;
  bool ok = false;        ///< Completed without throwing.
  bool timed_out = false; ///< Watchdog cancelled it (outcome is partial).
  std::string error;      ///< what() of the escaped exception when !ok.
};

/// A run's status plus its value (absent when the run threw).
template <typename T>
struct IndexedOutcome {
  RunStatus status;
  std::optional<T> value;
};

/// What a whole run_indexed() invocation did.
struct RunnerReport {
  std::size_t jobs = 1;
  std::size_t completed = 0;  ///< Outcomes delivered (== count).
  std::size_t errored = 0;
  std::size_t timed_out = 0;
  double wall_s = 0.0;             ///< End-to-end wall clock.
  std::vector<double> run_wall_s;  ///< Per-run wall clock, indexed by run.
};

namespace internal {

/// Cancels armed tokens whose deadline passed. One background thread,
/// created only when a timeout is configured.
class Watchdog {
 public:
  /// timeout_s <= 0 constructs a disabled no-op watchdog (no thread).
  explicit Watchdog(double timeout_s);
  ~Watchdog();

  void arm(std::size_t key, CancelToken* token);
  void disarm(std::size_t key);

 private:
  void loop();

  double timeout_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::size_t, std::pair<std::chrono::steady_clock::time_point,
                                  CancelToken*>> armed_;
  std::thread thread_;
};

/// Rate-limited single-line progress/ETA reporter (no-op when disabled).
class ProgressMeter {
 public:
  ProgressMeter(const RunnerConfig& config, std::size_t total);
  /// Reports `completed` runs done; prints at most every interval.
  void tick(std::size_t completed);
  /// Prints the final line (always) and terminates it with '\n'.
  void finish(std::size_t completed);

 private:
  void render(std::size_t completed, bool final_line);

  bool enabled_;
  std::ostream* out_;
  double interval_s_;
  std::string label_;
  std::size_t total_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
  bool printed_anything_ = false;
};

template <typename T, typename Fn>
IndexedOutcome<T> execute_one(Fn& fn, std::size_t index, std::size_t worker,
                              CancelToken& token) {
  IndexedOutcome<T> outcome;
  outcome.status.index = index;
  const auto start = std::chrono::steady_clock::now();
  try {
    outcome.value.emplace(fn(index, worker, token));
    outcome.status.ok = true;
  } catch (const std::exception& error) {
    outcome.status.error = error.what();
  } catch (...) {
    outcome.status.error = "non-std::exception thrown";
  }
  outcome.status.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  outcome.status.timed_out = token.cancelled();
  return outcome;
}

}  // namespace internal

/// Runs fn(index, worker, token) for every index in [0, count) on
/// `config.jobs` workers, and calls consume(index, outcome) on the calling
/// thread, strictly in index order, exactly once per index.
///
/// Requirements: `fn` is invoked concurrently from the workers and must be
/// safe to call in parallel. `worker` (< jobs) names the worker running the
/// call, and one worker runs one call at a time, so `fn` may key per-worker
/// state by it (the campaign runner keeps one campaign world per worker).
/// Worker 0 is the calling thread. `consume` runs only on the calling
/// thread. Completed out-of-order results are buffered (O(count) slots) —
/// run values should be summaries, not gigabyte traces.
///
/// If `consume` throws, no further index is claimed: each worker finishes
/// the run it holds, the helpers are joined, and the exception propagates.
template <typename T, typename Fn, typename Consume>
RunnerReport run_indexed(std::size_t count, const RunnerConfig& config,
                         Fn&& fn, Consume&& consume) {
  RunnerReport report;
  report.jobs = config.jobs == 0 ? default_jobs() : config.jobs;
  report.run_wall_s.resize(count, 0.0);
  const auto start = std::chrono::steady_clock::now();
  internal::ProgressMeter progress(config, count);
  internal::Watchdog watchdog(config.run_timeout_s);

  struct Slot {
    bool done = false;
    IndexedOutcome<T> outcome;
  };
  std::vector<Slot> slots(count);  // guarded by `mutex`
  std::mutex mutex;
  std::condition_variable done_cv;
  std::atomic<std::size_t> next_claim{0};

  // Claims the next index and runs it on `worker`; false once none is left.
  const auto run_next = [&](std::size_t worker) {
    const std::size_t index = next_claim.fetch_add(1);
    if (index >= count) return false;
    CancelToken token;
    watchdog.arm(index, &token);
    IndexedOutcome<T> outcome =
        internal::execute_one<T>(fn, index, worker, token);
    watchdog.disarm(index);
    {
      std::lock_guard<std::mutex> lock(mutex);
      slots[index].outcome = std::move(outcome);
      slots[index].done = true;
    }
    done_cv.notify_one();
    return true;
  };

  // Consumes every finished slot from `next` on, in index order.
  std::size_t next = 0;
  const auto consume_ready = [&](std::unique_lock<std::mutex>& lock) {
    while (next < count && slots[next].done) {
      IndexedOutcome<T> outcome = std::move(slots[next].outcome);
      lock.unlock();
      report.run_wall_s[next] = outcome.status.wall_s;
      ++report.completed;
      if (!outcome.status.ok) ++report.errored;
      if (outcome.status.timed_out) ++report.timed_out;
      consume(next, std::move(outcome));
      ++next;
      lock.lock();
    }
    progress.tick(report.completed);
  };

  std::vector<std::thread> helpers;
  const auto join_helpers = [&helpers] {
    for (std::thread& helper : helpers) helper.join();
  };
  try {
    for (std::size_t w = 1; w < std::min(report.jobs, count); ++w) {
      helpers.emplace_back([&run_next, w] {
        while (run_next(w)) {
        }
      });
    }
    std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
    while (run_next(0)) {
      lock.lock();
      consume_ready(lock);
      lock.unlock();
    }
    lock.lock();
    while (next < count) {
      done_cv.wait_for(lock, std::chrono::milliseconds(100),
                       [&] { return slots[next].done; });
      consume_ready(lock);
    }
  } catch (...) {
    next_claim.store(count);
    join_helpers();
    throw;
  }
  join_helpers();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  progress.finish(report.completed);
  return report;
}

}  // namespace kar::runner
