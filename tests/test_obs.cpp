// The observability layer (src/obs/): registry semantics, histogram bucket
// boundaries, deterministic snapshot folding, exporter golden files
// (Prometheus text + Chrome trace_event JSON), the bounded trace ring, span
// timers, the event-loop kind profile, and — the acceptance criterion — the
// NetworkObserver's per-switch deflection counters reconciling exactly with
// the committed golden packet trace.
//
// Regenerate the exporter goldens after an intentional format change with:
//   KAR_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"
#include "obs/export.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "routing/controller.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace_csv.hpp"
#include "topology/builders.hpp"

namespace kar::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(MetricsRegistry, CounterHandlesForSameSeriesShareOneCell) {
  MetricsRegistry registry(true);
  Counter a = registry.counter("kar_test_total", "help", {{"k", "v"}});
  Counter b = registry.counter("kar_test_total", "other help ignored",
                               {{"k", "v"}});
  a.inc();
  b.inc(4);
  const MetricsSnapshot snap = registry.snapshot();
  const auto& family = snap.families.at("kar_test_total");
  EXPECT_EQ(family.help, "help");  // first registration wins
  EXPECT_EQ(family.series.at(canonical_labels({{"k", "v"}})).count, 5u);
  EXPECT_EQ(family.series.size(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry registry(true);
  registry.counter("kar_test_total", "help", {{"switch", "SW7"}}).inc(2);
  registry.counter("kar_test_total", "help", {{"switch", "SW10"}}).inc(3);
  const MetricsSnapshot snap = registry.snapshot();
  const auto& family = snap.families.at("kar_test_total");
  EXPECT_EQ(family.series.at("switch=\"SW7\"").count, 2u);
  EXPECT_EQ(family.series.at("switch=\"SW10\"").count, 3u);
}

TEST(MetricsRegistry, CanonicalLabelsSortKeysAndEscapeValues) {
  EXPECT_EQ(canonical_labels({{"b", "2"}, {"a", "1"}}), "a=\"1\",b=\"2\"");
  EXPECT_EQ(canonical_labels({{"k", "a\"b\\c\nd"}}), "k=\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(canonical_labels({}), "");
}

TEST(MetricsRegistry, DisabledRegistryHandsOutInertHandles) {
  MetricsRegistry registry(false);
  Counter counter = registry.counter("kar_test_total", "help");
  Gauge gauge = registry.gauge("kar_test_gauge", "help");
  Histogram histogram =
      registry.histogram("kar_test_seconds", "help", {1.0, 2.0});
  EXPECT_FALSE(counter.enabled());
  EXPECT_FALSE(gauge.enabled());
  EXPECT_FALSE(histogram.enabled());
  counter.inc();
  gauge.set(3.0);
  histogram.observe(1.5);
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreInert) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  counter.inc();
  gauge.add(1.0);
  histogram.observe(0.5);  // must not crash
  EXPECT_FALSE(counter.enabled());
}

TEST(MetricsRegistry, FamilyTypeConflictThrows) {
  MetricsRegistry registry(true);
  (void)registry.counter("kar_test_total", "help");
  EXPECT_THROW((void)registry.gauge("kar_test_total", "help"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("kar_test_total", "help", {1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistry, GaugeSetAddMax) {
  MetricsRegistry registry(true);
  Gauge gauge = registry.gauge("kar_depth", "help");
  gauge.set(2.5);
  gauge.add(1.0);
  gauge.max(1.0);  // below current value: no effect
  gauge.max(7.25);
  EXPECT_DOUBLE_EQ(registry.snapshot().families.at("kar_depth").series.at("").value,
                   7.25);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry(true);
  Counter counter = registry.counter("kar_test_total", "help");
  Histogram histogram =
      registry.histogram("kar_test_seconds", "help", {0.5});
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, histogram]() mutable {
      for (int i = 0; i < kIncrements; ++i) {
        counter.inc();
        histogram.observe(0.25);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.families.at("kar_test_total").series.at("").count,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  const auto& hist = snap.families.at("kar_test_seconds").series.at("");
  EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(hist.value, 0.25 * kThreads * kIncrements);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries (Prometheus semantics: inclusive upper
// bounds, +Inf bucket last).

TEST(Histogram, UpperBoundsAreInclusive) {
  MetricsRegistry registry(true);
  Histogram histogram =
      registry.histogram("kar_test_seconds", "help", {1.0, 2.0});
  histogram.observe(-5.0);  // below everything: first bucket
  histogram.observe(1.0);   // exactly on a bound: that bucket (inclusive)
  histogram.observe(std::nextafter(1.0, 2.0));  // just above: next bucket
  histogram.observe(2.0);
  histogram.observe(std::nextafter(2.0, 3.0));  // above every bound: +Inf
  const MetricsSnapshot snap = registry.snapshot();
  const auto& series = snap.families.at("kar_test_seconds").series.at("");
  ASSERT_EQ(series.buckets.size(), 3u);  // bounds + the +Inf bucket
  EXPECT_EQ(series.buckets[0], 2u);
  EXPECT_EQ(series.buckets[1], 2u);
  EXPECT_EQ(series.buckets[2], 1u);
  EXPECT_EQ(series.count, 5u);
}

TEST(Histogram, RejectsUnsortedBounds) {
  MetricsRegistry registry(true);
  EXPECT_THROW(
      (void)registry.histogram("kar_test_seconds", "help", {2.0, 1.0}),
      std::invalid_argument);
}

TEST(Histogram, PrometheusBucketsAreCumulativeWithInf) {
  MetricsRegistry registry(true);
  Histogram histogram =
      registry.histogram("kar_test_seconds", "help", {1.0, 2.0});
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(9.0);
  const std::string text = registry.snapshot().prometheus_text();
  EXPECT_NE(text.find("kar_test_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("kar_test_seconds_bucket{le=\"2\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("kar_test_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("kar_test_seconds_sum 11\n"), std::string::npos) << text;
  EXPECT_NE(text.find("kar_test_seconds_count 3\n"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Snapshot folding.

MetricsSnapshot snapshot_with(std::uint64_t count, double gauge_peak,
                              double observation) {
  MetricsRegistry registry(true);
  registry.counter("kar_c_total", "counter help").inc(count);
  registry.gauge("kar_g", "gauge help").set(gauge_peak);
  registry.histogram("kar_h_seconds", "histogram help", {1.0})
      .observe(observation);
  return registry.snapshot();
}

TEST(MetricsSnapshot, MergeAddsCountersFoldsHistogramsMaxesGauges) {
  MetricsSnapshot merged;
  merged.merge(snapshot_with(2, 5.0, 0.5));
  merged.merge(snapshot_with(3, 1.0, 4.0));
  EXPECT_EQ(merged.families.at("kar_c_total").series.at("").count, 5u);
  EXPECT_DOUBLE_EQ(merged.families.at("kar_g").series.at("").value, 5.0);
  const auto& hist = merged.families.at("kar_h_seconds").series.at("");
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.value, 4.5);
  ASSERT_EQ(hist.buckets.size(), 2u);
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
}

TEST(MetricsSnapshot, MergeOrderProducesByteStableText) {
  // The determinism contract: folding value-equal snapshots in the same
  // order always renders to the same bytes (both exposition formats).
  MetricsSnapshot a;
  a.merge(snapshot_with(2, 5.0, 0.5));
  a.merge(snapshot_with(3, 1.0, 4.0));
  MetricsSnapshot b;
  b.merge(snapshot_with(2, 5.0, 0.5));
  b.merge(snapshot_with(3, 1.0, 4.0));
  EXPECT_EQ(a.prometheus_text(), b.prometheus_text());
  EXPECT_EQ(a.json(), b.json());
}

TEST(MetricsSnapshot, JsonIsOneLineWithHistogramObjects) {
  const MetricsSnapshot snap = snapshot_with(7, 2.5, 0.5);
  const std::string json = snap.json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"kar_c_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kar_g\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kar_h_seconds\":{\"buckets\":[1,0],\"sum\":0.5,"
                      "\"count\":1}"),
            std::string::npos)
      << json;
  EXPECT_EQ(MetricsSnapshot{}.json(), "{}");
}

// ---------------------------------------------------------------------------
// Exporter goldens. Fixed synthetic data, committed renderings.

void compare_with_golden(const char* path, const std::string& actual) {
  if (std::getenv("KAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated; review the diff";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with KAR_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "exporter output diverged from the committed golden; if the change "
         "is intentional, regenerate with KAR_UPDATE_GOLDEN=1 and commit";
}

TEST(Exporters, PrometheusTextMatchesGolden) {
  MetricsRegistry registry(true);
  const Labels run_labels = {{"technique", "nip"}, {"topology", "fig2"}};
  registry.counter("kar_packets_delivered_total", "Packets delivered",
                   run_labels)
      .inc(42);
  registry
      .counter("kar_deflections_total", "Deflections taken",
               {{"switch", "SW7"}})
      .inc(3);
  registry
      .counter("kar_deflections_total", "Deflections taken",
               {{"switch", "SW10"}})
      .inc(1);
  registry.gauge("kar_queue_depth_peak", "Peak queue depth").set(17.5);
  Histogram latency = registry.histogram(
      "kar_delivery_latency_seconds", "End-to-end delivery latency",
      {0.001, 0.01, 0.1}, run_labels);
  latency.observe(0.0005);
  latency.observe(0.001);  // boundary: lands in le="0.001"
  latency.observe(0.05);
  latency.observe(2.0);  // +Inf
  compare_with_golden(KAR_TESTS_SOURCE_DIR "/golden/obs_metrics.prom",
                      registry.snapshot().prometheus_text());
}

std::vector<ChromeTraceProcess> chrome_fixture() {
  TraceRecord deflect;
  deflect.cat = TraceCategory::kDeflection;
  deflect.name = "deflect";
  deflect.node = "SW7";
  deflect.ts_s = 1.2e-3;
  deflect.tid = 0;
  deflect.id = 7;
  deflect.args = {{"out_port", "1"}, {"residue", "3"}};

  TraceRecord span;
  span.cat = TraceCategory::kPhase;
  span.name = "event-loop";
  span.ts_s = 0.0;
  span.dur_s = 0.25;
  span.tid = 0;

  TraceRecord cwnd;
  cwnd.cat = TraceCategory::kTcp;
  cwnd.name = "tcp cwnd flow 1";
  cwnd.ts_s = 2.0;
  cwnd.counter = true;
  cwnd.tid = 1;
  cwnd.id = 1;
  cwnd.args = {{"cwnd", "12"}, {"ssthresh", "64"}};

  TraceRecord link;
  link.cat = TraceCategory::kLink;
  link.name = "link-down";
  link.node = "SW7";
  link.ts_s = 1e-3;
  link.tid = 1;
  link.id = 4;
  link.args = {{"peer", "SW11"}};

  return {{"nip/updown", {deflect, span}}, {"avp/updown", {cwnd, link}}};
}

TEST(Exporters, ChromeTraceMatchesGolden) {
  std::ostringstream out;
  write_chrome_trace(out, chrome_fixture());
  compare_with_golden(KAR_TESTS_SOURCE_DIR "/golden/obs_trace.json",
                      out.str());
}

TEST(Exporters, ChromeTraceCarriesTheSchemaFields) {
  std::ostringstream out;
  write_chrome_trace(out, chrome_fixture());
  const std::string json = out.str();
  // Envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Phase letters: instant, complete span, counter, metadata.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // Timestamps are microseconds; the span carries dur.
  EXPECT_NE(json.find("\"ts\":1200"), std::string::npos);       // 1.2 ms
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);    // 0.25 s
  // 2 s counter sample: shortest-round-trip doubles render as 2e+06 us.
  EXPECT_NE(json.find("\"ts\":2e+06"), std::string::npos);
  // Process/thread attribution: one pid per process, named via metadata.
  EXPECT_NE(json.find("\"process_name\",\"ph\":\"M\",\"pid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"process_name\",\"ph\":\"M\",\"pid\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"nip/updown\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"run 1\"}"), std::string::npos);
  // Instants carry thread scope; counters must not.
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":1200,\"pid\":1,\"tid\":0,"
                      "\"s\":\"t\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"ph\":\"C\",\"ts\":2e+06,\"pid\":2,\"tid\":1,"
                      "\"s\":\"t\""),
            std::string::npos)
      << json;
  // Spans don't carry the instant-scope field either.
  EXPECT_EQ(json.find("\"dur\":250000,\"pid\":1,\"tid\":0,\"s\":\"t\""),
            std::string::npos)
      << json;
}

TEST(Exporters, TraceRecordJsonlRendersFieldsAndArgs) {
  const auto processes = chrome_fixture();
  const TraceRecord& deflect = processes[0].records[0];
  const std::string json = trace_record_json(deflect);
  EXPECT_NE(json.find("\"cat\":\"deflection\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"deflect\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":\"SW7\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"out_port\":\"1\""), std::string::npos);
  std::ostringstream out;
  write_trace_jsonl(out, processes[0].records);
  EXPECT_EQ(out.str(), trace_record_json(processes[0].records[0]) + "\n" +
                           trace_record_json(processes[0].records[1]) + "\n");
}

// ---------------------------------------------------------------------------
// The bounded trace ring.

TEST(TraceRecorder, KeepsTheMostRecentRecordsAndCountsDrops) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    TraceRecord record;
    record.name = "r" + std::to_string(i);
    record.ts_s = i;
    recorder.record(std::move(record));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {  // oldest retained first
    EXPECT_EQ(records[i].name, "r" + std::to_string(6 + i));
  }
}

TEST(TraceRecorder, UnderfilledRingSnapshotsInOrder) {
  TraceRecorder recorder(8);
  for (int i = 0; i < 3; ++i) {
    TraceRecord record;
    record.name = "r" + std::to_string(i);
    recorder.record(std::move(record));
  }
  EXPECT_EQ(recorder.dropped(), 0u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().name, "r0");
  EXPECT_EQ(records.back().name, "r2");
}

// ---------------------------------------------------------------------------
// Span timers and phase profiles.

TEST(SpanTimer, AccumulatesIntoSinkOnce) {
  double sink = 0.0;
  {
    SpanTimer timer(&sink);
    timer.stop();
    const double after_stop = sink;
    timer.stop();  // idempotent
    EXPECT_EQ(sink, after_stop);
  }  // destructor must not double-add
  EXPECT_GE(sink, 0.0);
}

TEST(SpanTimer, NullSinkIsInert) {
  SpanTimer timer(nullptr);  // must not crash on stop/destroy
  timer.stop();
}

TEST(PhaseProfile, MergesByAddition) {
  PhaseProfile a;
  a.add(Phase::kSetup, 1.0);
  a.add(Phase::kEventLoop, 2.0);
  a.runs = 1;
  PhaseProfile b;
  b.add(Phase::kEventLoop, 3.0);
  b.add(Phase::kTeardown, 0.5);
  b.runs = 1;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.wall_s[0], 1.0);
  EXPECT_DOUBLE_EQ(a.wall_s[1], 5.0);
  EXPECT_DOUBLE_EQ(a.wall_s[2], 0.5);
  EXPECT_DOUBLE_EQ(a.total_s(), 6.5);
  EXPECT_EQ(a.runs, 2u);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(PhaseProfile{}.empty());
}

// ---------------------------------------------------------------------------
// Event-loop kind accounting (sim::EventLoopProfile, fed by the queue).

TEST(EventLoopProfile, QueueAccountsFiredEventsByKind) {
  sim::EventQueue queue;
  sim::EventLoopProfile profile;
  queue.set_profile(&profile);
  int fired = 0;
  queue.schedule_at(1.0, sim::EventKind::kLinkArrival, [&] { ++fired; });
  queue.schedule_at(2.0, sim::EventKind::kLinkArrival, [&] { ++fired; });
  queue.schedule_at(3.0, sim::EventKind::kTransportTimer, [&] { ++fired; });
  queue.schedule_in(4.0, sim::EventKind::kLinkState, [&] { ++fired; });
  queue.schedule_at(5.0, [&] { ++fired; });  // untagged -> kGeneric
  queue.run_all();
  EXPECT_EQ(fired, 5);
  using sim::EventKind;
  const auto count = [&profile](EventKind kind) {
    return profile.kinds[static_cast<std::size_t>(kind)].count;
  };
  EXPECT_EQ(count(EventKind::kLinkArrival), 2u);
  EXPECT_EQ(count(EventKind::kTransportTimer), 1u);
  EXPECT_EQ(count(EventKind::kLinkState), 1u);
  EXPECT_EQ(count(EventKind::kGeneric), 1u);
  EXPECT_EQ(profile.total_events(), 5u);
  EXPECT_GE(profile.total_wall_s(), 0.0);

  // Detached again: further events are not accounted.
  queue.set_profile(nullptr);
  queue.schedule_in(1.0, sim::EventKind::kLinkArrival, [&] { ++fired; });
  queue.run_all();
  EXPECT_EQ(count(EventKind::kLinkArrival), 2u);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: NetworkObserver counters reconcile exactly with
// the committed golden packet trace of the pinned Fig. 1 scenario
// (tests/test_golden_trace.cpp runs the same scenario).

TEST(NetworkObserver, DeflectionCountersReconcileWithGoldenTrace) {
  // Run the pinned scenario with the observer attached.
  topo::Scenario s = topo::make_fig1_network();
  const routing::Controller controller(s.topology);
  sim::NetworkConfig config;
  config.technique = dataplane::DeflectionTechnique::kNotInputPort;
  config.seed = 6001;
  sim::Network net(s.topology, controller, config);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial);

  MetricsRegistry registry(true);
  TraceRecorder recorder(1024);
  NetworkObserverOptions options;
  options.metrics = &registry;
  options.trace = &recorder;
  NetworkObserver observer(net, options);
  observer.install();

  net.fail_link_at(0.0, "SW7", "SW11");
  for (int i = 0; i < 3; ++i) {
    net.events().schedule_at(1e-3 * (i + 1), [&net, &route, i] {
      dataplane::Packet p;
      p.transport = dataplane::Datagram{0};
      p.packet_id = static_cast<std::uint64_t>(i + 1);
      net.edge_at(route.src_edge).stamp(p, route, 200 + 100 * i);
      net.inject(route.src_edge, std::move(p));
    });
  }
  net.events().run_all();

  // Tally the committed golden trace per switch.
  std::ifstream in(KAR_TESTS_SOURCE_DIR "/golden/fig1_nip_single_failure.csv",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing golden trace";
  const auto rows = sim::parse_trace_csv(in);
  std::map<std::string, std::uint64_t> golden_deflections;
  std::uint64_t golden_injected = 0;
  std::uint64_t golden_delivered = 0;
  for (const auto& row : rows) {
    if (row.kind == sim::TraceEvent::Kind::kHop && row.deflected) {
      ++golden_deflections[row.node];
    }
    if (row.kind == sim::TraceEvent::Kind::kInject) ++golden_injected;
    if (row.kind == sim::TraceEvent::Kind::kDeliver) ++golden_delivered;
  }
  ASSERT_FALSE(golden_deflections.empty());

  // The observer's counters must match the golden tally exactly.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.families.at("kar_packets_injected_total").series.at("").count,
            golden_injected);
  EXPECT_EQ(snap.families.at("kar_packets_delivered_total").series.at("").count,
            golden_delivered);
  const auto& deflections = snap.families.at("kar_deflections_total").series;
  std::uint64_t observed_total = 0;
  for (const auto& [labels, series] : deflections) {
    observed_total += series.count;
  }
  std::uint64_t golden_total = 0;
  for (const auto& [node, count] : golden_deflections) {
    golden_total += count;
    EXPECT_EQ(deflections.at(canonical_labels({{"switch", node}})).count, count)
        << "switch " << node;
  }
  EXPECT_EQ(observed_total, golden_total);

  // And every golden deflection row has a matching trace record with the
  // same out-port, carrying the KAR residue argument.
  std::size_t deflect_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.cat != TraceCategory::kDeflection) continue;
    ++deflect_records;
    EXPECT_EQ(record.node, "SW7");
    bool has_residue = false;
    for (const auto& [key, value] : record.args) {
      if (key == "out_port") {
        EXPECT_EQ(value, "1");
      }
      if (key == "residue") has_residue = true;
    }
    EXPECT_TRUE(has_residue);
  }
  EXPECT_EQ(deflect_records, golden_total);

  // Histograms: every delivered packet contributes one latency observation.
  const auto& latency =
      snap.families.at("kar_delivery_latency_seconds").series.at("");
  EXPECT_EQ(latency.count, golden_delivered);
}

// ---------------------------------------------------------------------------
// Daemon metric families (src/daemon/): Prometheus exposition-format
// conformance for the kar_daemon_* scrape, plus a committed golden of the
// rendering with synthetic deterministic values.

struct ParsedFamily {
  std::string help;
  std::string type;
  std::vector<std::string> samples;  ///< Raw sample lines, in order.
};

/// Splits the label body of a sample line (the text between `{` and `}`)
/// into `key="value"` pairs, honouring `\"` and `\\` escapes inside values.
std::vector<std::pair<std::string, std::string>> split_labels(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  while (i < body.size()) {
    const std::size_t eq = body.find('=', i);
    EXPECT_NE(eq, std::string::npos) << "label without '=': " << body;
    if (eq == std::string::npos) return out;
    std::string key = body.substr(i, eq - i);
    EXPECT_EQ(body[eq + 1], '"') << "unquoted label value: " << body;
    std::string value;
    std::size_t j = eq + 2;
    while (j < body.size() && body[j] != '"') {
      if (body[j] == '\\') {
        EXPECT_LT(j + 1, body.size()) << "dangling escape: " << body;
        // Only \\, \" and \n are legal escapes in the exposition format.
        const char escaped = body[j + 1];
        EXPECT_TRUE(escaped == '\\' || escaped == '"' || escaped == 'n')
            << "illegal escape \\" << escaped << " in: " << body;
        value += body[j + 1];
        j += 2;
      } else {
        EXPECT_NE(body[j], '\n') << "raw newline in label value: " << body;
        value += body[j++];
      }
    }
    EXPECT_LT(j, body.size()) << "unterminated label value: " << body;
    out.emplace_back(std::move(key), std::move(value));
    i = j + 1;
    if (i < body.size()) {
      EXPECT_EQ(body[i], ',') << "label separator missing: " << body;
      ++i;
    }
  }
  return out;
}

/// Parses exposition text into families while enforcing the structural
/// rules: each family is introduced by exactly one `# HELP` line followed
/// immediately by its `# TYPE` line, every sample belongs to the family
/// introduced most recently (histogram samples may append _bucket/_sum/
/// _count), and every label string is canonical (keys sorted, values
/// quoted and escaped).
std::map<std::string, ParsedFamily> parse_exposition(const std::string& text) {
  std::map<std::string, ParsedFamily> families;
  std::string current;
  std::istringstream in(text);
  std::string line;
  bool expect_type = false;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition text";
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      EXPECT_FALSE(expect_type) << "HELP not followed by TYPE: " << line;
      const std::size_t space = line.find(' ', 7);
      EXPECT_NE(space, std::string::npos) << line;
      if (space == std::string::npos) continue;
      current = line.substr(7, space - 7);
      EXPECT_EQ(families.count(current), 0u)
          << "family introduced twice: " << current;
      families[current].help = line.substr(space + 1);
      expect_type = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_TRUE(expect_type) << "TYPE without preceding HELP: " << line;
      expect_type = false;
      EXPECT_EQ(line.rfind("# TYPE " + current + ' ', 0), 0u)
          << "TYPE names a different family than HELP: " << line;
      const std::string type = line.substr(8 + current.size());
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      families[current].type = type;
      continue;
    }
    // Sample line. Must belong to the current family.
    EXPECT_FALSE(expect_type) << "sample before TYPE: " << line;
    EXPECT_FALSE(current.empty()) << "sample before any HELP: " << line;
    if (current.empty()) continue;
    const std::size_t name_end = line.find_first_of("{ ");
    EXPECT_NE(name_end, std::string::npos) << line;
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(0, name_end);
    if (families.at(current).type == "histogram") {
      EXPECT_TRUE(name == current + "_bucket" || name == current + "_sum" ||
                  name == current + "_count")
          << "sample " << name << " outside family " << current;
    } else {
      EXPECT_EQ(name, current) << "sample outside family " << current;
    }
    if (line[name_end] == '{') {
      const std::size_t close = line.rfind('}');
      EXPECT_NE(close, std::string::npos) << line;
      if (close == std::string::npos) continue;
      const auto labels =
          split_labels(line.substr(name_end + 1, close - name_end - 1));
      for (std::size_t i = 1; i < labels.size(); ++i) {
        EXPECT_LT(labels[i - 1].first, labels[i].first)
            << "label keys not strictly sorted: " << line;
      }
    }
    families.at(current).samples.push_back(line);
  }
  EXPECT_FALSE(expect_type) << "text ends between HELP and TYPE";
  return families;
}

/// The numeric value of a sample line (the token after the name or the
/// closing brace).
double sample_value(const std::string& line) {
  const std::size_t close = line.rfind('}');
  const std::size_t space =
      line.find(' ', close == std::string::npos ? 0 : close);
  return std::stod(line.substr(space + 1));
}

/// Histogram invariants per series: le strictly ascending and ending at
/// +Inf, cumulative bucket counts non-decreasing, and _count equal to the
/// +Inf bucket.
void expect_conformant_histogram(const std::string& name,
                                 const ParsedFamily& family) {
  ASSERT_EQ(family.type, "histogram") << name;
  // Series key (labels minus le) -> bucket (le, cumulative) in file order.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> sums;
  std::map<std::string, double> counts;
  for (const std::string& line : family.samples) {
    const std::size_t name_end = line.find_first_of("{ ");
    const std::string sample_name = line.substr(0, name_end);
    std::string series;
    double le = 0.0;
    bool has_le = false;
    if (line[name_end] == '{') {
      const std::size_t close = line.rfind('}');
      for (const auto& [key, value] :
           split_labels(line.substr(name_end + 1, close - name_end - 1))) {
        if (key == "le") {
          has_le = true;
          le = value == "+Inf" ? std::numeric_limits<double>::infinity()
                               : std::stod(value);
        } else {
          series += key + '=' + value + ';';
        }
      }
    }
    if (sample_name == name + "_bucket") {
      ASSERT_TRUE(has_le) << "bucket without le: " << line;
      buckets[series].emplace_back(le, sample_value(line));
    } else if (sample_name == name + "_sum") {
      sums[series] = sample_value(line);
    } else {
      counts[series] = sample_value(line);
    }
  }
  ASSERT_FALSE(buckets.empty()) << name << " has no bucket samples";
  for (const auto& [series, rows] : buckets) {
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1].first, rows[i].first)
          << name << "{" << series << "}: le not ascending";
      EXPECT_LE(rows[i - 1].second, rows[i].second)
          << name << "{" << series << "}: buckets not cumulative";
    }
    EXPECT_TRUE(std::isinf(rows.back().first))
        << name << "{" << series << "}: last bucket is not +Inf";
    ASSERT_EQ(counts.count(series), 1u) << name << " missing _count";
    ASSERT_EQ(sums.count(series), 1u) << name << " missing _sum";
    EXPECT_EQ(counts.at(series), rows.back().second)
        << name << "{" << series << "}: _count != +Inf bucket";
  }
}

/// Every kar_daemon_* family the daemon registers, with its expected type
/// (src/daemon/daemon.cpp register_metrics()).
const std::map<std::string, std::string>& daemon_family_types() {
  static const std::map<std::string, std::string> kTypes = {
      {"kar_daemon_requests_total", "counter"},
      {"kar_daemon_request_errors_total", "counter"},
      {"kar_daemon_epochs_total", "counter"},
      {"kar_daemon_coalesced_events_total", "counter"},
      {"kar_daemon_snapshots_total", "counter"},
      {"kar_daemon_compactions_total", "counter"},
      {"kar_daemon_compacted_entries_total", "counter"},
      {"kar_daemon_routes", "gauge"},
      {"kar_daemon_live_routes", "gauge"},
      {"kar_daemon_queue_depth", "gauge"},
      {"kar_daemon_held_links", "gauge"},
      {"kar_daemon_snapshot_bytes", "gauge"},
      {"kar_daemon_request_seconds", "histogram"},
      {"kar_daemon_queue_wait_seconds", "histogram"},
      {"kar_daemon_response_seconds", "histogram"},
      {"kar_daemon_epoch_seconds", "histogram"},
      {"kar_daemon_epoch_ops", "histogram"},
  };
  return kTypes;
}

TEST(DaemonMetrics, LiveScrapeIsConformant) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.flush_interval_s = 0.001;
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();
  // Exercise every family: successful mutations, errors, an epoch with a
  // link event, and a query.
  EXPECT_NE(kard.execute_line("install S D").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(kard.execute_line("install S NOPE").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(kard.execute_line("link-down SW4 SW7").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(kard.execute_line("query 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(kard.execute_line("definitely-not-a-verb").find("\"ok\":false"),
            std::string::npos);
  const std::string text = kard.prometheus_text();
  kard.stop();

  const auto families = parse_exposition(text);
  for (const auto& [name, type] : daemon_family_types()) {
    ASSERT_EQ(families.count(name), 1u) << "missing family " << name;
    EXPECT_EQ(families.at(name).type, type) << name;
    EXPECT_FALSE(families.at(name).help.empty()) << name;
    if (type == "histogram") {
      expect_conformant_histogram(name, families.at(name));
    }
  }
  // The per-verb request counter carries the verbs we exercised, and the
  // error counter saw both structured failures.
  const auto& requests = families.at("kar_daemon_requests_total");
  auto has_sample = [&](const std::string& needle) {
    for (const std::string& line : requests.samples) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_sample("verb=\"install\""));
  EXPECT_TRUE(has_sample("verb=\"link-down\""));
  EXPECT_TRUE(has_sample("verb=\"query\""));
  EXPECT_GE(
      sample_value(families.at("kar_daemon_request_errors_total").samples.at(0)),
      2.0);
  // The install + link-down epochs moved the gauges and epoch histograms.
  EXPECT_GE(sample_value(families.at("kar_daemon_routes").samples.at(0)), 1.0);
  EXPECT_GE(sample_value(families.at("kar_daemon_epochs_total").samples.at(0)),
            2.0);
  // The ctrlplane engine exports through the same registry (one scrape
  // covers the whole daemon).
  EXPECT_EQ(families.count("kar_ctrlplane_epochs_total"), 1u);
}

TEST(DaemonMetrics, HttpScrapeResponseWrapsThePrometheusText) {
  MetricsRegistry registry(true);
  registry.counter("kar_daemon_epochs_total", "Epochs.").inc(3);
  const MetricsSnapshot snap = registry.snapshot();
  const std::string response = http_scrape_response(snap);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string head = response.substr(0, split);
  const std::string body = response.substr(split + 4);
  EXPECT_EQ(body, snap.prometheus_text());
  EXPECT_NE(head.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << head;
  EXPECT_NE(head.find("Content-Length: " + std::to_string(body.size())),
            std::string::npos)
      << head;
}

TEST(Exporters, DaemonPrometheusTextMatchesGolden) {
  // Mirrors the daemon's register_metrics() families with fixed synthetic
  // values so the kar_daemon_* rendering (HELP/TYPE lines, bucket layout,
  // label escaping) is pinned by a committed golden. The escaping sample
  // uses a hostile verb value on purpose.
  MetricsRegistry registry(true);
  registry
      .counter("kar_daemon_requests_total", "Requests accepted, by verb.",
               {{"verb", "install"}})
      .inc(5);
  registry
      .counter("kar_daemon_requests_total", "Requests accepted, by verb.",
               {{"verb", "query"}})
      .inc(9);
  registry
      .counter("kar_daemon_requests_total", "Requests accepted, by verb.",
               {{"verb", "quo\"te\\back\nline"}})
      .inc(1);
  registry
      .counter("kar_daemon_request_errors_total",
               "Requests answered with a structured error.")
      .inc(2);
  registry
      .counter("kar_daemon_epochs_total",
               "Batched mutation epochs applied to the engine.")
      .inc(3);
  registry
      .counter("kar_daemon_coalesced_events_total",
               "Link-state requests absorbed by coalescing (flaps and "
               "already-in-state transitions that cost no reconvergence).")
      .inc(4);
  registry.counter("kar_daemon_snapshots_total", "Snapshots written.").inc(1);
  registry
      .counter("kar_daemon_compactions_total",
               "Posting-list compaction sweeps.")
      .inc(2);
  registry
      .counter("kar_daemon_compacted_entries_total",
               "Stale posting entries dropped by compaction sweeps.")
      .inc(37);
  registry.gauge("kar_daemon_routes", "Route slots in the store (dense keys).")
      .set(6);
  registry
      .gauge("kar_daemon_live_routes", "Routes currently live (usable path).")
      .set(5);
  registry
      .gauge("kar_daemon_queue_depth", "Mutations waiting for the next epoch.")
      .set(0);
  registry
      .gauge("kar_daemon_held_links",
             "Link requests held open in the coalescing window.")
      .set(2);
  registry
      .gauge("kar_daemon_snapshot_bytes", "Size of the most recent snapshot.")
      .set(1234);
  Histogram request_seconds = registry.histogram(
      "kar_daemon_request_seconds",
      "Request latency from admission to response (batched verbs include "
      "their wait for the epoch flush).",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  request_seconds.observe(5e-7);
  request_seconds.observe(1e-6);  // boundary: lands in le="1e-06"
  request_seconds.observe(3e-4);
  request_seconds.observe(0.5);
  request_seconds.observe(2.0);  // +Inf
  Histogram queue_wait_seconds = registry.histogram(
      "kar_daemon_queue_wait_seconds",
      "Batched request wait from admission to the start of its epoch.",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  queue_wait_seconds.observe(1e-4);
  queue_wait_seconds.observe(2e-3);
  Histogram response_seconds = registry.histogram(
      "kar_daemon_response_seconds",
      "Batched request time from the end of its epoch to its answer.",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  response_seconds.observe(3e-6);
  Histogram epoch_seconds = registry.histogram(
      "kar_daemon_epoch_seconds", "Engine wall time per batched epoch.",
      {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  epoch_seconds.observe(5e-4);
  epoch_seconds.observe(0.02);
  Histogram epoch_ops = registry.histogram(
      "kar_daemon_epoch_ops", "Mutation requests coalesced into one epoch.",
      {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});
  epoch_ops.observe(1.0);
  epoch_ops.observe(3.0);
  epoch_ops.observe(100.0);
  epoch_ops.observe(5000.0);

  const std::string text = registry.snapshot().prometheus_text();
  // The golden itself must be a conformant exposition.
  const auto families = parse_exposition(text);
  for (const auto& [name, type] : daemon_family_types()) {
    ASSERT_EQ(families.count(name), 1u) << name;
    EXPECT_EQ(families.at(name).type, type) << name;
    if (type == "histogram") {
      expect_conformant_histogram(name, families.at(name));
    }
  }
  compare_with_golden(KAR_TESTS_SOURCE_DIR "/golden/obs_daemon_metrics.prom",
                      text);
}

}  // namespace
}  // namespace kar::obs
