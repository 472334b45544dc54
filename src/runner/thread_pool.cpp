#include "runner/thread_pool.hpp"

#include <algorithm>

namespace kar::runner {

namespace {

// Identifies the pool (and worker slot) the current thread belongs to, so
// nested submissions land on the submitting worker's own deque.
thread_local const ThreadPool* t_current_pool = nullptr;
thread_local std::size_t t_current_worker = 0;

}  // namespace

std::size_t ThreadPool::default_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: workers scan each other's deques.
  for (std::size_t i = 0; i < threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::size_t ThreadPool::current_worker() noexcept { return t_current_worker; }

std::size_t ThreadPool::next_external_worker() noexcept {
  if (t_current_pool == this) return t_current_worker;
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  return round_robin_++ % workers_.size();
}

void ThreadPool::enqueue(std::size_t worker, Task task) {
  {
    std::lock_guard<std::mutex> lock(workers_[worker]->mutex);
    workers_[worker]->deque.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++pending_;
  }
  sleep_cv_.notify_one();
}

ThreadPool::Task ThreadPool::take_task(std::size_t self) {
  Task task;
  {
    // Own deque first, LIFO: the most recently pushed task is cache-warm.
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      task = std::move(own.deque.back());
      own.deque.pop_back();
    }
  }
  if (!task) {
    // Steal FIFO from the other workers: take their oldest (coldest) task.
    for (std::size_t i = 1; i < workers_.size() && !task; ++i) {
      Worker& victim = *workers_[(self + i) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.deque.empty()) {
        task = std::move(victim.deque.front());
        victim.deque.pop_front();
      }
    }
  }
  if (task) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    --pending_;
  }
  return task;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_current_pool = this;
  t_current_worker = self;
  while (true) {
    if (Task task = take_task(self)) {
      task();  // packaged_task: exceptions land in the paired future
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (pending_ == 0) {
      if (stop_) return;
      sleep_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_ && pending_ == 0) return;
    }
    // pending_ > 0 but the scan came up empty: another worker won the race
    // for that task between our scan and this check. Rescan.
  }
}

}  // namespace kar::runner
