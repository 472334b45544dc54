// Tests for the heavy-traffic workload engine: deterministic sampling
// (exponential inter-arrivals, bounded Pareto), plan compilation in both
// bottleneck and mesh modes (mesh plans checked against the single-pair
// search), and a small end-to-end run where concurrent
// finite TCP flows share the Internet2 bottleneck under RED.
#include <gtest/gtest.h>

#include <stdexcept>

#include "topogen/topogen.hpp"
#include "topology/autoroute.hpp"
#include "traffic/workload.hpp"

namespace kar {
namespace {

using namespace kar::traffic;

TEST(TrafficSampling, BoundedParetoStaysInRangeAndIsDeterministic) {
  common::Rng a(42), b(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = bounded_pareto(a, 1.2, 8, 4096);
    EXPECT_GE(x, 8u);
    EXPECT_LE(x, 4096u);
    EXPECT_EQ(x, bounded_pareto(b, 1.2, 8, 4096));
  }
  // Heavy tail: the empirical mean must sit well above the lower cutoff.
  common::Rng c(7);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) sum += static_cast<double>(bounded_pareto(c, 1.2, 8, 4096));
  EXPECT_GT(sum / 5000.0, 16.0);
  EXPECT_THROW((void)bounded_pareto(c, 0.0, 8, 4096), std::invalid_argument);
  EXPECT_THROW((void)bounded_pareto(c, 1.2, 9, 8), std::invalid_argument);
}

TEST(TrafficSampling, ExponentialInterarrivalMatchesRate) {
  common::Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double d = exponential_interarrival(rng, 50.0);
    ASSERT_GE(d, 0.0);
    sum += d;
  }
  // Mean inter-arrival should approximate 1/rate = 20 ms.
  EXPECT_NEAR(sum / 20000.0, 0.02, 0.002);
}

TEST(TrafficCompile, BottleneckModeFunnelsEveryFlowThroughTheBottleneck) {
  WorkloadSpec spec;
  spec.flows = 64;
  spec.seed = 9;
  spec.host_fan = 4;
  const Workload workload(topogen::make_internet2({.red = true}), spec);
  ASSERT_EQ(workload.plan().size(), 64u);
  for (const FlowPlan& flow : workload.plan()) {
    ASSERT_EQ(flow.core_path.size(), 2u);
    EXPECT_EQ(flow.core_path[0], "CHI");
    EXPECT_EQ(flow.core_path[1], "IPL");
    EXPECT_EQ(flow.src_edge.substr(0, 5), "H-src");
    EXPECT_EQ(flow.dst_edge.substr(0, 5), "H-dst");
  }
  // Deterministic recompile.
  const Workload again(topogen::make_internet2({.red = true}), spec);
  for (std::size_t i = 0; i < workload.plan().size(); ++i) {
    EXPECT_EQ(workload.plan()[i].start_s, again.plan()[i].start_s);
    EXPECT_EQ(workload.plan()[i].size_segments, again.plan()[i].size_segments);
  }
}

TEST(TrafficCompile, MeshModeRoutesRandomPairsOverCorePaths) {
  WorkloadSpec spec;
  spec.flows = 32;
  spec.seed = 3;
  const Workload workload(topogen::make_waxman({.switches = 60, .seed = 2}), spec);
  for (const FlowPlan& flow : workload.plan()) {
    EXPECT_NE(flow.src_edge, flow.dst_edge);
    EXPECT_FALSE(flow.core_path.empty());
  }
}

TEST(TrafficCompile, MeshPlansMatchThePerPairSearch) {
  // compile_mesh routes every flow from one BFS tree per source host; each
  // plan must equal the single-pair search bfs_core_path runs.
  for (const char* spec_text :
       {"gen:internet2:scale=9", "gen:waxman:n=80,seed=5"}) {
    topo::Scenario scenario = topogen::make_from_spec(spec_text);
    scenario.bottleneck_a.clear();  // mesh mode
    scenario.bottleneck_b.clear();
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      WorkloadSpec spec;
      spec.flows = 400;
      spec.seed = seed;
      const Workload workload(scenario, spec);
      const topo::Topology& t = workload.scenario().topology;
      ASSERT_EQ(workload.plan().size(), spec.flows);
      for (const FlowPlan& flow : workload.plan()) {
        ASSERT_EQ(flow.core_path,
                  topo::bfs_core_path(t, t.at(flow.src_edge),
                                      t.at(flow.dst_edge)))
            << spec_text << " seed " << seed << ": " << flow.src_edge
            << " -> " << flow.dst_edge;
      }
      // A tree read for another source is refused, not walked forever.
      const topo::NodeId a = t.at(workload.plan()[0].src_edge);
      const topo::NodeId b = t.at(workload.plan()[0].dst_edge);
      EXPECT_THROW((void)topo::core_path_from(t, topo::bfs_parents(t, a), b, a),
                   std::invalid_argument);
    }
  }
}

TEST(TrafficRun, ConcurrentFlowsShareTheBottleneckUnderRed) {
  WorkloadSpec spec;
  spec.flows = 48;
  spec.arrivals = ArrivalProcess::kUniform;
  spec.arrival_rate_per_s = 48.0;  // all started within the first second
  spec.sizes = SizeDistribution::kFixed;
  spec.fixed_segments = 150;
  spec.horizon_s = 20.0;
  spec.seed = 5;
  spec.host_fan = 4;
  const Workload workload(topogen::make_internet2({.red = true}), spec);
  const WorkloadResult result = workload.run();

  EXPECT_EQ(result.flows, 48u);
  // The bottleneck is 100 Mb/s; 48 x 150 segments finish comfortably
  // inside 20 s, so every finite flow must complete and quiesce.
  EXPECT_EQ(result.completed, 48u);
  EXPECT_EQ(result.segments_delivered, 48u * 150u);
  EXPECT_GT(result.peak_concurrent, 8u);  // genuinely concurrent, not serial
  EXPECT_GT(result.fct_p50_s, 0.0);
  EXPECT_GE(result.fct_p99_s, result.fct_p50_s);
  EXPECT_LT(result.fct_p99_s, spec.horizon_s);
  EXPECT_GT(result.goodput_p50_mbps, 0.0);
  EXPECT_LE(result.goodput_p99_mbps, 100.0);  // no flow beats the bottleneck
  EXPECT_GT(result.retransmit_share, 0.0);
  EXPECT_LT(result.retransmit_share, 1.0);
  // RED on a congested 100 Mb/s queue must fire early drops.
  EXPECT_GT(result.counters.drop_aqm_early, 0u);

  // Bit-identical re-run.
  const WorkloadResult rerun = workload.run();
  EXPECT_EQ(rerun.segments_delivered, result.segments_delivered);
  EXPECT_EQ(rerun.retransmits, result.retransmits);
  EXPECT_EQ(rerun.counters.drop_aqm_early, result.counters.drop_aqm_early);
  EXPECT_EQ(rerun.peak_concurrent, result.peak_concurrent);
  EXPECT_DOUBLE_EQ(rerun.fct_p99_s, result.fct_p99_s);
  EXPECT_DOUBLE_EQ(rerun.goodput_p50_mbps, result.goodput_p50_mbps);
}

// Per-flow numbers are measured over each flow's own lifetime, so a
// horizon far past the last completion changes none of them.
TEST(TrafficRun, FlowMetricsDoNotDependOnTheHorizon) {
  WorkloadSpec spec;
  spec.flows = 48;
  spec.arrivals = ArrivalProcess::kUniform;
  spec.arrival_rate_per_s = 48.0;
  spec.sizes = SizeDistribution::kFixed;
  spec.fixed_segments = 150;
  spec.seed = 5;
  spec.host_fan = 4;
  spec.horizon_s = 60.0;
  const WorkloadResult short_run =
      Workload(topogen::make_internet2({.red = true}), spec).run();
  spec.horizon_s = 3600.0;
  const WorkloadResult long_run =
      Workload(topogen::make_internet2({.red = true}), spec).run();
  ASSERT_EQ(short_run.completed, 48u);
  ASSERT_EQ(long_run.completed, 48u);
  EXPECT_EQ(long_run.segments_delivered, short_run.segments_delivered);
  EXPECT_DOUBLE_EQ(long_run.retransmit_share, short_run.retransmit_share);
  EXPECT_DOUBLE_EQ(long_run.fct_p50_s, short_run.fct_p50_s);
  EXPECT_DOUBLE_EQ(long_run.fct_p99_s, short_run.fct_p99_s);
  EXPECT_DOUBLE_EQ(long_run.goodput_p50_mbps, short_run.goodput_p50_mbps);
  EXPECT_DOUBLE_EQ(long_run.goodput_p99_mbps, short_run.goodput_p99_mbps);
  EXPECT_GT(short_run.goodput_p50_mbps, 0.1);
}

// The concurrency probe's count for two seeded workloads, pinned to the
// values the original all-flows scan produced: a Poisson mesh with
// heavy-tailed sizes and a uniform bottleneck ramp, in both of which early
// flows finish while later ones still arrive.
TEST(TrafficRun, PeakConcurrencyIsPinnedForSeededWorkloads) {
  WorkloadSpec mesh;
  mesh.flows = 120;
  mesh.arrival_rate_per_s = 400.0;
  mesh.sizes = SizeDistribution::kBoundedPareto;
  mesh.min_segments = 4;
  mesh.max_segments = 400;
  mesh.horizon_s = 5.0;
  mesh.goodput_bin_s = 0.05;
  mesh.seed = 17;
  const WorkloadResult mesh_result =
      Workload(topogen::make_waxman({.switches = 40, .seed = 4}), mesh).run();
  EXPECT_EQ(mesh_result.peak_concurrent, 11u);

  WorkloadSpec bottleneck;
  bottleneck.flows = 48;
  bottleneck.arrivals = ArrivalProcess::kUniform;
  bottleneck.arrival_rate_per_s = 48.0;
  bottleneck.sizes = SizeDistribution::kFixed;
  bottleneck.fixed_segments = 150;
  bottleneck.horizon_s = 20.0;
  bottleneck.seed = 5;
  bottleneck.host_fan = 4;
  const WorkloadResult bottleneck_result =
      Workload(topogen::make_internet2({.red = true}), bottleneck).run();
  EXPECT_EQ(bottleneck_result.peak_concurrent, 40u);
}

TEST(TrafficRun, RejectsDegenerateSpecs) {
  WorkloadSpec spec;
  spec.flows = 0;
  EXPECT_THROW((void)Workload(topogen::make_internet2({}), spec),
               std::invalid_argument);
  WorkloadSpec no_fan;
  no_fan.host_fan = 0;
  EXPECT_THROW((void)Workload(topogen::make_internet2({}), no_fan),
               std::invalid_argument);
}

}  // namespace
}  // namespace kar
