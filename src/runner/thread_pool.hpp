// Work-stealing thread pool for embarrassingly parallel experiment runs.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from the other workers when its deque drains, so a burst of
// submissions to one worker spreads across the pool. External submissions
// round-robin across workers; tasks submitted from inside a worker go to
// that worker's own deque (locality). submit() returns a std::future, so
// exceptions thrown by a task propagate to whoever joins on the result
// instead of killing the worker thread.
//
// The pool makes no determinism promises by itself — which worker runs a
// task is scheduling-dependent. Determinism is the runner layer's job
// (see runner.hpp): results are keyed by index and merged in index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace kar::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 is promoted to default_threads()).
  explicit ThreadPool(std::size_t threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// `std::thread::hardware_concurrency()`, with a floor of 1 (the standard
  /// allows it to report 0 when unknown).
  [[nodiscard]] static std::size_t default_threads();

  /// The calling thread's worker index (0 .. size() - 1) in the pool that
  /// runs it, or 0 on a thread no pool owns. A task may key per-worker
  /// state by it: one worker runs one task at a time.
  [[nodiscard]] static std::size_t current_worker() noexcept;

  /// Schedules `fn` on the pool. The returned future carries fn's result or
  /// its exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    return submit_to(next_external_worker(), std::forward<F>(fn));
  }

  /// Schedules `fn` on worker `worker % size()`'s deque specifically. Any
  /// other worker may still steal it — this pins the initial placement, not
  /// the execution. Exposed for locality control and for exercising the
  /// steal path deterministically in tests.
  template <typename F>
  auto submit_to(std::size_t worker, F&& fn)
      -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // std::function requires copyable callables; packaged_task is move-only,
    // so it rides behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue(worker % workers_.size(), [task] { (*task)(); });
    return result;
  }

 private:
  using Task = std::function<void()>;

  struct Worker {
    std::deque<Task> deque;  // guarded by `mutex`
    std::mutex mutex;
    std::thread thread;
  };

  void enqueue(std::size_t worker, Task task);
  void worker_loop(std::size_t self);
  /// Pops from own deque (back) or steals (front); empty when none found.
  [[nodiscard]] Task take_task(std::size_t self);
  [[nodiscard]] std::size_t next_external_worker() noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::size_t pending_ = 0;  // guarded by sleep_mutex_
  bool stop_ = false;        // guarded by sleep_mutex_
  std::size_t round_robin_ = 0;  // guarded by sleep_mutex_
};

}  // namespace kar::runner
