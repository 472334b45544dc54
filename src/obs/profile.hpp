// Span timers and per-phase wall-time profiles.
//
// SpanTimer is a RAII stopwatch accumulating into a double. PhaseProfile is
// the setup / event-loop / teardown breakdown a single simulation run
// produces; profiles merge by addition, so a campaign's profile is the
// fold of its runs (wall times are inherently non-deterministic and are
// reported only — they never enter the determinism-checked aggregates).
//
// The event-kind breakdown *inside* the event loop lives with the queue
// itself (sim::EventLoopProfile in sim/event_queue.hpp): the queue is the
// only layer that sees every event fire.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace kar::obs {

/// The three wall-time phases of one simulation run.
enum class Phase : std::uint8_t { kSetup, kEventLoop, kTeardown };
inline constexpr std::size_t kPhaseCount = 3;

[[nodiscard]] std::string_view to_string(Phase phase);

/// Accumulated wall time per phase, mergeable across runs.
struct PhaseProfile {
  std::array<double, kPhaseCount> wall_s{};
  std::uint64_t runs = 0;  ///< How many runs were folded in.

  void add(Phase phase, double seconds) noexcept {
    wall_s[static_cast<std::size_t>(phase)] += seconds;
  }
  [[nodiscard]] double total_s() const noexcept {
    return wall_s[0] + wall_s[1] + wall_s[2];
  }
  void merge(const PhaseProfile& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) wall_s[i] += other.wall_s[i];
    runs += other.runs;
  }
  [[nodiscard]] bool empty() const noexcept { return runs == 0; }
};

/// RAII stopwatch: adds its elapsed wall time to `*sink` when stopped or
/// destroyed (once).
class SpanTimer {
 public:
  explicit SpanTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  ~SpanTimer() { stop(); }

  /// Stops the timer early; idempotent.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    if (sink_ != nullptr) *sink_ += elapsed;
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

}  // namespace kar::obs
