// Simulator-wide metrics registry: counters, gauges and fixed-bucket
// histograms with Prometheus-style names and labels.
//
// Design goals (docs/observability.md):
//   * handle-based hot path — instrumented code holds a Counter/Gauge/
//     Histogram handle and updates it with one relaxed atomic op; the
//     registry mutex is only taken at registration and snapshot time;
//   * near-zero overhead when disabled — a handle created from a disabled
//     registry carries a null cell, and every update is a single
//     predictable branch (bench/micro_obs.cpp keeps this honest: <2% on
//     the forwarding hot loop);
//   * thread safety — registration and snapshotting are mutex-guarded,
//     updates are lock-free atomics, so the registry is safe under the
//     parallel runner and clean under sanitizers;
//   * deterministic aggregation — MetricsSnapshot is a value type ordered
//     by (family, labels); merging snapshots in run-index order yields
//     bit-identical results regardless of how the runs were scheduled
//     (the same contract as docs/runner.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kar::obs {

/// Label set for one series, e.g. {{"switch", "SW7"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical rendering of a label set: keys sorted, values escaped, joined
/// as `k1="v1",k2="v2"` — the exact text between braces in Prometheus
/// exposition format. Equal label sets always render to equal strings.
[[nodiscard]] std::string canonical_labels(const Labels& labels);

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricType type);

namespace internal {

/// One histogram series: fixed upper bounds plus a +Inf bucket, a count and
/// a double sum maintained with CAS (portable pre-C++20-atomic-double).
struct HistogramCell {
  explicit HistogramCell(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  const std::vector<double> bounds;                  ///< Sorted upper bounds.
  std::deque<std::atomic<std::uint64_t>> buckets;    ///< bounds.size() + 1 (+Inf).
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_bits{0};            ///< Bit-cast double.
};

struct ScalarCell {
  std::atomic<std::uint64_t> value{0};  ///< Raw count or bit-cast double.
};

}  // namespace internal

/// Monotonic counter handle. Default-constructed or disabled handles are
/// inert: inc() is a null check and nothing else.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) noexcept {
    if (cell_ == nullptr) return;
    cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::ScalarCell* cell) noexcept : cell_(cell) {}
  internal::ScalarCell* cell_ = nullptr;
};

/// Gauge handle (a double that can move both ways).
class Gauge {
 public:
  Gauge() = default;

  void set(double value) noexcept;
  void add(double delta) noexcept;
  /// Raises the gauge to `value` if it is currently lower (peak tracking).
  void max(double value) noexcept;
  [[nodiscard]] bool enabled() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::ScalarCell* cell) noexcept : cell_(cell) {}
  internal::ScalarCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. Bucket semantics follow Prometheus:
/// a value lands in the first bucket whose upper bound is >= value
/// (upper bounds are inclusive); values above every bound go to +Inf.
class Histogram {
 public:
  Histogram() = default;

  void observe(double value) noexcept {
    if (cell_ == nullptr) return;
    cell_->observe(value);
  }
  [[nodiscard]] bool enabled() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCell* cell) noexcept : cell_(cell) {}
  internal::HistogramCell* cell_ = nullptr;
};

/// Point-in-time value copy of a registry (or a deterministic fold of
/// many). Ordered maps make every rendering byte-stable.
struct MetricsSnapshot {
  struct Series {
    std::uint64_t count = 0;              ///< Counter value / histogram count.
    double value = 0.0;                   ///< Gauge value / histogram sum.
    std::vector<std::uint64_t> buckets;   ///< Histogram per-bucket (not cumulative).
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;           ///< Histogram upper bounds.
    std::map<std::string, Series> series; ///< Keyed by canonical label text.
  };

  std::map<std::string, Family> families;

  [[nodiscard]] bool empty() const noexcept { return families.empty(); }

  /// Deterministic fold: counters and histogram buckets/counts add, sums
  /// add, gauges take the maximum (per-run gauges are peaks). Merging a
  /// sequence of snapshots in a fixed order always produces the same bytes.
  void merge(const MetricsSnapshot& other);

  /// Prometheus text exposition format (exporters in obs/export.hpp render
  /// the same data as Chrome trace counters / JSON).
  [[nodiscard]] std::string prometheus_text() const;

  /// Deterministic single-line JSON object, for embedding in JSONL records:
  /// {"name{labels}":value,...}; histograms render as an object with
  /// buckets/sum/count. Doubles use shortest-round-trip formatting, so
  /// value-equal snapshots serialize to byte-equal text.
  [[nodiscard]] std::string json() const;
};

/// The registry. One per scope of interest (a campaign run, a bench run);
/// cheap enough to create per run, safe to share across threads.
class MetricsRegistry {
 public:
  /// A disabled registry hands out inert handles: every update is a null
  /// check. (Enabling later only affects handles created afterwards.)
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Registers (or finds) a series and returns its handle. The same
  /// (family, labels) pair always maps to the same underlying cell, so
  /// handle creation is idempotent. Throws std::invalid_argument when the
  /// family already exists with a different type.
  [[nodiscard]] Counter counter(std::string_view family, std::string_view help,
                                const Labels& labels = {});
  [[nodiscard]] Gauge gauge(std::string_view family, std::string_view help,
                            const Labels& labels = {});
  [[nodiscard]] Histogram histogram(std::string_view family,
                                    std::string_view help,
                                    std::vector<double> upper_bounds,
                                    const Labels& labels = {});

  /// Value copy of every registered series, ordered and ready to merge or
  /// export. Concurrent updates during the copy are torn at series
  /// granularity only (each load is atomic).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct FamilyState {
    MetricType type;
    std::string help;
    std::vector<double> bounds;
    std::map<std::string, internal::ScalarCell*> scalars;
    std::map<std::string, internal::HistogramCell*> histograms;
  };

  /// Looks up / creates the family, validating the type. Returns nullptr
  /// when the registry is disabled.
  FamilyState* family_for(std::string_view name, MetricType type,
                          std::string_view help,
                          const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  bool enabled_;
  std::map<std::string, FamilyState, std::less<>> families_;
  // Stable storage: handles point into these deques forever.
  std::deque<internal::ScalarCell> scalar_cells_;
  std::deque<internal::HistogramCell> histogram_cells_;
};

}  // namespace kar::obs
