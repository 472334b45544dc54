#include "runner/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace kar::runner {

std::size_t default_jobs() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

namespace internal {

Watchdog::Watchdog(double timeout_s) : timeout_s_(timeout_s) {
  if (timeout_s_ > 0.0) {
    thread_ = std::thread([this] { loop(); });
  }
}

Watchdog::~Watchdog() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(std::size_t key, CancelToken* token) {
  if (!thread_.joinable()) return;  // disabled: no deadline tracking
  {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_[key] = {std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(timeout_s_)),
                   token};
  }
  cv_.notify_all();
}

void Watchdog::disarm(std::size_t key) {
  if (!thread_.joinable()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.erase(key);
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto next_deadline = now + std::chrono::seconds(3600);
    for (auto& [key, entry] : armed_) {
      if (entry.first <= now) {
        entry.second->cancel();  // idempotent; stays armed until disarm()
      } else {
        next_deadline = std::min(next_deadline, entry.first);
      }
    }
    cv_.wait_until(lock, next_deadline);
  }
}

ProgressMeter::ProgressMeter(const RunnerConfig& config, std::size_t total)
    : enabled_(config.progress),
      out_(config.progress_stream != nullptr ? config.progress_stream
                                             : &std::cerr),
      interval_s_(config.progress_interval_s),
      label_(config.progress_label),
      total_(total),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_ - std::chrono::hours(1)) {}

void ProgressMeter::tick(std::size_t completed) {
  if (!enabled_) return;
  const auto now = std::chrono::steady_clock::now();
  if (std::chrono::duration<double>(now - last_print_).count() < interval_s_) {
    return;
  }
  last_print_ = now;
  render(completed, /*final_line=*/false);
}

void ProgressMeter::finish(std::size_t completed) {
  if (!enabled_ || (!printed_anything_ && completed == 0)) return;
  render(completed, /*final_line=*/true);
}

void ProgressMeter::render(std::size_t completed, bool final_line) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = elapsed > 0.0 ? static_cast<double>(completed) / elapsed
                                    : 0.0;
  char line[160];
  if (completed < total_ && rate > 0.0) {
    const double eta = static_cast<double>(total_ - completed) / rate;
    std::snprintf(line, sizeof(line),
                  "[%s] %zu/%zu (%.1f%%) | %.1f runs/s | ETA %dm%02ds",
                  label_.c_str(), completed, total_,
                  100.0 * static_cast<double>(completed) /
                      static_cast<double>(std::max<std::size_t>(total_, 1)),
                  rate, static_cast<int>(eta) / 60,
                  static_cast<int>(eta) % 60);
  } else {
    std::snprintf(line, sizeof(line),
                  "[%s] %zu/%zu (100.0%%) | %.1f runs/s | %.2fs total",
                  label_.c_str(), completed, total_, rate, elapsed);
  }
  (*out_) << '\r' << line << (final_line ? "\n" : "") << std::flush;
  printed_anything_ = true;
}

}  // namespace internal
}  // namespace kar::runner
