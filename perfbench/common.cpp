#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>

#include "stats/summary.hpp"

namespace kar::perfbench {

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

double percentile(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : stats::percentile(samples, p);
}

namespace {

constexpr std::size_t kReferenceTableWords = std::size_t{1} << 20;  // 8 MiB
constexpr std::size_t kReferenceQueueDepth = 4096;
constexpr std::size_t kReferenceEvents = 150000;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Null until the first HostPace; filled once and only ever read.
const std::vector<std::uint64_t>* reference_table = nullptr;
/// Where the kernel leaves its result, so the compiler keeps its work.
volatile std::uint64_t reference_sink = 0;

const std::vector<std::uint64_t>& reference_table_once() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> words(kReferenceTableWords);
    std::uint64_t state = 1;
    for (std::uint64_t& word : words) word = splitmix64(state);
    return words;
  }();
  reference_table = &table;
  return table;
}

/// One run of the reference kernel, which does the same work every call:
/// pop the earliest of kReferenceQueueDepth pending events, read a table
/// word it picks, allocate and free a small block, push its successor.
double time_reference_kernel() {
  const std::vector<std::uint64_t>& table = reference_table_once();
  const Clock::time_point t0 = Clock::now();
  using Event = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t state = 7;
  for (std::size_t i = 0; i < kReferenceQueueDepth; ++i) {
    queue.push({splitmix64(state) >> 40, i});
  }
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kReferenceEvents; ++i) {
    const Event event = queue.top();
    queue.pop();
    const std::uint64_t word =
        table[(event.second * 0x9e3779b97f4a7c15ull + event.first) &
              (kReferenceTableWords - 1)];
    const auto block = std::make_unique<std::uint64_t[]>(8);
    block[word & 7] = word;
    sum += block[word & 7];
    queue.push({event.first + 1 + (word & 0xffff), event.second ^ (word >> 48)});
  }
  reference_sink = sum;
  return seconds_since(t0);
}

}  // namespace

HostPace::HostPace() {
  (void)time_reference_kernel();  // page in the table, warm the caches
  reference_s_.push_back(time_reference_kernel());
}

double HostPace::rescale(double span_s) {
  const double before_s = reference_s_.back();
  reference_s_.push_back(time_reference_kernel());
  return span_s * kReferenceS / (0.5 * (before_s + reference_s_.back()));
}

double peak_rss_mib() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also carry the peak of the process image that exec'd us.
  const double table_mib =
      reference_table == nullptr
          ? 0.0
          : static_cast<double>(reference_table->size() *
                                sizeof(std::uint64_t)) /
                (1024.0 * 1024.0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double hwm_kib = static_cast<double>(std::stoull(line.substr(6)));
      return hwm_kib / 1024.0 - table_mib;
    }
  }
  return 0.0;
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

void SimLayers::add(const SimLayers& other) {
  traced_wall_s += other.traced_wall_s;
  setup_s += other.setup_s;
  loop_wall_s += other.loop_wall_s;
  profile.merge(other.profile);
  events += other.events;
  hops += other.hops;
  allocations += other.allocations;
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.evictions += other.cache.evictions;
}

namespace {

/// Per-kind self-time metrics. Kinds the benchmark does not name
/// individually share the last slot, "sim.other.self_s".
constexpr const char* kKindMetrics[] = {
    "sim.generic.self_s",        "sim.link_arrival.self_s",
    "sim.switch_process.self_s", "sim.edge_process.self_s",
    "sim.link_state.self_s",     "sim.traffic.self_s",
    "transport.timer.self_s",    "sim.other.self_s"};

std::size_t kind_slot(sim::EventKind kind) {
  switch (kind) {
    case sim::EventKind::kGeneric: return 0;
    case sim::EventKind::kLinkArrival: return 1;
    case sim::EventKind::kSwitchProcess: return 2;
    case sim::EventKind::kEdgeProcess: return 3;
    case sim::EventKind::kLinkState: return 4;
    case sim::EventKind::kTraffic: return 5;
    case sim::EventKind::kTransportTimer: return 6;
    default: return 7;
  }
}

}  // namespace

void report_sim_layers(Report& report, const SimLayers& layers) {
  std::vector<double> self_s(std::size(kKindMetrics), 0.0);
  double kinds_s = 0.0;
  for (std::size_t i = 0; i < sim::kEventKindCount; ++i) {
    const double wall_s = layers.profile.kinds[i].wall_s;
    self_s[kind_slot(static_cast<sim::EventKind>(i))] += wall_s;
    kinds_s += wall_s;
  }
  for (std::size_t m = 0; m < std::size(kKindMetrics); ++m) {
    report.metric(kKindMetrics[m], self_s[m], "s");
  }
  const double dispatch_s = layers.loop_wall_s - kinds_s;
  const double residual_s =
      layers.traced_wall_s - layers.setup_s - layers.loop_wall_s;
  report.metric("sim.events", static_cast<double>(layers.events), "count");
  report.metric("sim.hops", static_cast<double>(layers.hops), "count");
  report.metric("sim.setup_s", layers.setup_s, "s");
  report.metric("sim.dispatch_s", dispatch_s, "s");
  report.metric("sim.residual_s", residual_s, "s");
  report.metric("sim.allocs_per_hop",
                layers.hops > 0 ? static_cast<double>(layers.allocations) /
                                      static_cast<double>(layers.hops)
                                : 0.0,
                "count");
  const std::uint64_t lookups = layers.cache.hits + layers.cache.misses;
  report.metric("dataplane.residue_cache.hits",
                static_cast<double>(layers.cache.hits), "count");
  report.metric("dataplane.residue_cache.lookups", static_cast<double>(lookups),
                "count");
  report.metric("dataplane.residue_cache.hit_ratio",
                lookups > 0 ? static_cast<double>(layers.cache.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "share");
  report.witness("sim.events", layers.events);
  report.witness("sim.hops", layers.hops);
  report.witness("sim.allocations", layers.allocations);

  std::printf(
      "accounting: traced wall %.6f s = setup %.6f + event kinds %.6f + "
      "dispatch %.6f + residual %.6f\n",
      layers.traced_wall_s, layers.setup_s, kinds_s, dispatch_s, residual_s);
}

}  // namespace kar::perfbench
