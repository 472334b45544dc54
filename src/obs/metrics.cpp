#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace kar::obs {

namespace {

/// Prometheus label-value escaping: backslash, quote and newline.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Shortest round-trip double rendering (same contract as runner::jsonl):
/// value-equal doubles always produce byte-equal text.
std::string shortest_double(double value) {
  if (!std::isfinite(value)) {
    if (std::isnan(value)) return "NaN";
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

double bits_to_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t double_to_bits(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

std::string canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [key, value] : sorted) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  return out;
}

std::string_view to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

namespace internal {

HistogramCell::HistogramCell(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), buckets(bounds.size() + 1) {
  // std::atomic's default constructor need not value-initialize (and does
  // not on this toolchain): zero the buckets explicitly.
  for (auto& bucket : buckets) bucket.store(0, std::memory_order_relaxed);
}

void HistogramCell::observe(double value) noexcept {
  // First bucket whose (inclusive) upper bound holds the value; +Inf last.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds.begin());
  buckets[index].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = sum_bits.load(std::memory_order_relaxed);
  while (!sum_bits.compare_exchange_weak(
      expected, double_to_bits(bits_to_double(expected) + value),
      std::memory_order_relaxed)) {
  }
}

}  // namespace internal

void Gauge::set(double value) noexcept {
  if (cell_ == nullptr) return;
  cell_->value.store(double_to_bits(value), std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept {
  if (cell_ == nullptr) return;
  std::uint64_t expected = cell_->value.load(std::memory_order_relaxed);
  while (!cell_->value.compare_exchange_weak(
      expected, double_to_bits(bits_to_double(expected) + delta),
      std::memory_order_relaxed)) {
  }
}

void Gauge::max(double value) noexcept {
  if (cell_ == nullptr) return;
  std::uint64_t expected = cell_->value.load(std::memory_order_relaxed);
  while (bits_to_double(expected) < value &&
         !cell_->value.compare_exchange_weak(expected, double_to_bits(value),
                                             std::memory_order_relaxed)) {
  }
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, family] : other.families) {
    Family& mine = families[name];
    if (mine.series.empty() && mine.help.empty()) {
      mine.type = family.type;
      mine.help = family.help;
      mine.bounds = family.bounds;
    }
    for (const auto& [labels, series] : family.series) {
      Series& target = mine.series[labels];
      switch (family.type) {
        case MetricType::kCounter:
          target.count += series.count;
          break;
        case MetricType::kGauge:
          // Per-scope gauges are treated as peaks across scopes.
          target.value = std::max(target.value, series.value);
          break;
        case MetricType::kHistogram:
          target.count += series.count;
          target.value += series.value;
          if (target.buckets.size() < series.buckets.size()) {
            target.buckets.resize(series.buckets.size(), 0);
          }
          for (std::size_t i = 0; i < series.buckets.size(); ++i) {
            target.buckets[i] += series.buckets[i];
          }
          break;
      }
    }
  }
}

std::string MetricsSnapshot::prometheus_text() const {
  std::string out;
  for (const auto& [name, family] : families) {
    out += "# HELP " + name + ' ' + family.help + '\n';
    out += "# TYPE " + name + ' ';
    out += to_string(family.type);
    out += '\n';
    for (const auto& [labels, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out += name;
          if (!labels.empty()) out += '{' + labels + '}';
          out += ' ' + std::to_string(series.count) + '\n';
          break;
        case MetricType::kGauge:
          out += name;
          if (!labels.empty()) out += '{' + labels + '}';
          out += ' ' + shortest_double(series.value) + '\n';
          break;
        case MetricType::kHistogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < series.buckets.size(); ++i) {
            cumulative += series.buckets[i];
            const std::string le = i < family.bounds.size()
                                       ? shortest_double(family.bounds[i])
                                       : "+Inf";
            out += name + "_bucket{";
            if (!labels.empty()) out += labels + ',';
            out += "le=\"" + le + "\"} " + std::to_string(cumulative) + '\n';
          }
          out += name + "_sum";
          if (!labels.empty()) out += '{' + labels + '}';
          out += ' ' + shortest_double(series.value) + '\n';
          out += name + "_count";
          if (!labels.empty()) out += '{' + labels + '}';
          out += ' ' + std::to_string(series.count) + '\n';
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::json() const {
  std::string out = "{";
  bool first = true;
  const auto key = [](const std::string& name, const std::string& labels) {
    // Series names may contain label quotes; escape for JSON keys.
    std::string text = labels.empty() ? name : name + '{' + labels + '}';
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return escaped;
  };
  for (const auto& [name, family] : families) {
    for (const auto& [labels, series] : family.series) {
      if (!first) out += ',';
      first = false;
      out += '"' + key(name, labels) + "\":";
      switch (family.type) {
        case MetricType::kCounter:
          out += std::to_string(series.count);
          break;
        case MetricType::kGauge:
          out += std::isfinite(series.value) ? shortest_double(series.value)
                                             : "null";
          break;
        case MetricType::kHistogram: {
          out += "{\"buckets\":[";
          for (std::size_t i = 0; i < series.buckets.size(); ++i) {
            if (i > 0) out += ',';
            out += std::to_string(series.buckets[i]);
          }
          out += "],\"sum\":";
          out += std::isfinite(series.value) ? shortest_double(series.value)
                                             : "null";
          out += ",\"count\":" + std::to_string(series.count) + '}';
          break;
        }
      }
    }
  }
  out += '}';
  return out;
}

MetricsRegistry::FamilyState* MetricsRegistry::family_for(
    std::string_view name, MetricType type, std::string_view help,
    const std::vector<double>* bounds) {
  if (!enabled_) return nullptr;
  const auto it = families_.find(name);
  if (it != families_.end()) {
    if (it->second.type != type) {
      throw std::invalid_argument("MetricsRegistry: family " +
                                  std::string(name) +
                                  " already registered with another type");
    }
    return &it->second;
  }
  FamilyState state;
  state.type = type;
  state.help = std::string(help);
  if (bounds != nullptr) state.bounds = *bounds;
  return &families_.emplace(std::string(name), std::move(state)).first->second;
}

Counter MetricsRegistry::counter(std::string_view family, std::string_view help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilyState* state = family_for(family, MetricType::kCounter, help, nullptr);
  if (state == nullptr) return Counter();
  auto [it, inserted] = state->scalars.try_emplace(canonical_labels(labels));
  if (inserted) it->second = &scalar_cells_.emplace_back();
  return Counter(it->second);
}

Gauge MetricsRegistry::gauge(std::string_view family, std::string_view help,
                             const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilyState* state = family_for(family, MetricType::kGauge, help, nullptr);
  if (state == nullptr) return Gauge();
  auto [it, inserted] = state->scalars.try_emplace(canonical_labels(labels));
  if (inserted) it->second = &scalar_cells_.emplace_back();
  return Gauge(it->second);
}

Histogram MetricsRegistry::histogram(std::string_view family,
                                     std::string_view help,
                                     std::vector<double> upper_bounds,
                                     const Labels& labels) {
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument("MetricsRegistry: histogram bounds not sorted");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  FamilyState* state =
      family_for(family, MetricType::kHistogram, help, &upper_bounds);
  if (state == nullptr) return Histogram();
  auto [it, inserted] = state->histograms.try_emplace(canonical_labels(labels));
  if (inserted) {
    it->second = &histogram_cells_.emplace_back(std::move(upper_bounds));
  }
  return Histogram(it->second);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, state] : families_) {
    MetricsSnapshot::Family family;
    family.type = state.type;
    family.help = state.help;
    family.bounds = state.bounds;
    for (const auto& [labels, cell] : state.scalars) {
      MetricsSnapshot::Series series;
      const std::uint64_t raw = cell->value.load(std::memory_order_relaxed);
      if (state.type == MetricType::kCounter) {
        series.count = raw;
      } else {
        series.value = bits_to_double(raw);
      }
      family.series.emplace(labels, std::move(series));
    }
    for (const auto& [labels, cell] : state.histograms) {
      MetricsSnapshot::Series series;
      series.count = cell->count.load(std::memory_order_relaxed);
      series.value =
          bits_to_double(cell->sum_bits.load(std::memory_order_relaxed));
      series.buckets.reserve(cell->buckets.size());
      for (const auto& bucket : cell->buckets) {
        series.buckets.push_back(bucket.load(std::memory_order_relaxed));
      }
      family.series.emplace(labels, std::move(series));
    }
    snap.families.emplace(name, std::move(family));
  }
  return snap;
}

}  // namespace kar::obs
