// Internet-scale encoding bench: Eq. 9 route-ID bit length and coprime-ID
// assignment cost across all four topogen families at 100/250/500/1000
// switches, compared against the optimal path-encoding lower bound (Hari
// et al.: a path through switches with out-degrees d_1..d_k needs at least
// ceil(sum log2 d_i) bits — one port choice per hop), plus a
// thousand-flow TCP workload through the Internet2 bottleneck under RED.
//
// For each (family, size) instance the bench:
//   * times the coprime-ID assignment (part of generation) — the pooled
//     assigner must stay near-linear to 1000 switches;
//   * samples `--paths` random switch pairs, routes each along its BFS
//     shortest path, and records KAR Eq. 9 bits, port-list bits, and the
//     optimal bound per path — the committed record holds the
//     bits-vs-path-length curve per family (EXPERIMENTS.md Fig. T1);
//   * checks the KAR/optimal ratio stays modest (IDs exceed degrees by
//     construction, so Eq. 9 tracks the bound within a constant factor).
//
// The workload section compiles `--flows` finite TCP flows (uniform
// arrivals inside a 10 ms ramp — shorter than any flow's minimum
// completion time, so every flow is simultaneously alive — fixed
// 40-segment transfers) against the Internet2 bottleneck with RED armed
// and asserts completion plus genuine concurrency (EXPERIMENTS.md
// Fig. T2).
//
// Regenerate the committed record with:
//   topogen_scale --out=BENCH_topogen.json
// The smoke registration runs a reduced sweep on every ctest build.
//
// Usage: topogen_scale [--sizes=100,250,500,1000] [--paths=30]
//                      [--flows=1000] [--horizon=3600] [--seed=1]
//                      [--min-concurrent=0] [--out=PATH]
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "routing/encodings.hpp"
#include "routing/paths.hpp"
#include "runner/jsonl.hpp"
#include "topogen/topogen.hpp"
#include "traffic/workload.hpp"

namespace {

using kar::topo::NodeId;
using kar::topo::NodeKind;
using kar::topo::Scenario;

struct FamilyPoint {
  std::string family;
  std::size_t requested = 0;
  std::size_t switches = 0;
  double build_ms = 0.0;  ///< Generation incl. coprime-ID assignment.
  /// Aggregated per path length: mean bits over sampled shortest paths.
  struct CurveBin {
    std::size_t count = 0;
    double kar_bits = 0;
    double portlist_bits = 0;
    double optimal_bits = 0;
  };
  std::map<std::size_t, CurveBin> curve;  ///< key: core hops on the path.
};

Scenario build(const std::string& family, std::size_t size,
               std::uint64_t seed) {
  if (family == "fat-tree") {
    // Nearest even k with 5k^2/4 close to `size`.
    const auto k = static_cast<std::size_t>(
        2.0 * std::round(std::sqrt(4.0 * static_cast<double>(size) / 5.0) / 2.0));
    return kar::topogen::make_fat_tree({.k = std::max<std::size_t>(k, 2)});
  }
  if (family == "internet2") {
    return kar::topogen::make_internet2(
        {.scale = std::max<std::size_t>(1, (size + 5) / 11)});
  }
  if (family == "waxman") {
    return kar::topogen::make_waxman({.switches = size, .seed = seed});
  }
  return kar::topogen::make_barabasi_albert({.switches = size, .seed = seed});
}

/// Optimal path-encoding bound: ceil(sum log2(out-degree)) over the path's
/// switches (each hop must at minimum name one of the switch's ports).
double optimal_bits(const kar::topo::Topology& topo,
                    const std::vector<NodeId>& path) {
  double bits = 0;
  for (const NodeId node : path) {
    if (topo.kind(node) != NodeKind::kCoreSwitch) continue;
    bits += std::log2(static_cast<double>(topo.port_count(node)));
  }
  return std::ceil(bits);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const std::string sizes_csv = flags.get_string("sizes", "100,250,500,1000");
  const auto path_samples =
      static_cast<std::size_t>(flags.get_int("paths", 30));
  const auto flow_count = static_cast<std::size_t>(flags.get_int("flows", 1000));
  // Senders stop offering new data at the horizon, so it must comfortably
  // exceed the congestion-collapsed completion time of the slowest flow —
  // with a synchronized 1000-flow burst and 60 s max RTO the tail runs
  // tens of sim-minutes out. Simulated time is nearly free: the collapsed
  // link is mostly idle, so events stay sparse.
  const double horizon_s = flags.get_double("horizon", 3600.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto min_concurrent =
      static_cast<std::size_t>(flags.get_int("min-concurrent", 0));
  const std::string out_path = flags.get_string("out", "");
  if (kar::common::report_unread(flags, "topogen_scale")) return 2;

  std::vector<std::size_t> sizes;
  for (const std::string& token : kar::common::split(sizes_csv, ',')) {
    sizes.push_back(static_cast<std::size_t>(std::stoul(token)));
  }

  bool pass = true;
  std::vector<FamilyPoint> points;
  const std::vector<std::string> families = {"fat-tree", "internet2", "waxman",
                                             "ba"};
  for (const std::string& family : families) {
    for (const std::size_t size : sizes) {
      FamilyPoint point;
      point.family = family;
      point.requested = size;
      const auto t0 = std::chrono::steady_clock::now();
      const Scenario scenario = build(family, size, seed);
      point.build_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      const kar::topo::Topology& topo = scenario.topology;
      const auto switches = topo.nodes_of_kind(NodeKind::kCoreSwitch);
      point.switches = switches.size();

      kar::common::Rng rng(kar::common::derive_seed(seed, point.switches));
      for (std::size_t i = 0; i < path_samples; ++i) {
        const NodeId src = switches[rng.below(switches.size())];
        NodeId dst = src;
        while (dst == src) dst = switches[rng.below(switches.size())];
        const auto path = kar::routing::shortest_path(topo, src, dst);
        if (!path) continue;  // generators emit connected graphs; belt only
        const auto kar_cost = kar::routing::primary_header_cost(
            topo, path->nodes, kar::routing::HeaderScheme::kKarRns);
        const auto portlist_cost = kar::routing::primary_header_cost(
            topo, path->nodes, kar::routing::HeaderScheme::kPortList);
        auto& bin = point.curve[path->nodes.size()];
        ++bin.count;
        bin.kar_bits += static_cast<double>(kar_cost.bits);
        bin.portlist_bits += static_cast<double>(portlist_cost.bits);
        bin.optimal_bits += optimal_bits(topo, path->nodes);
      }
      for (auto& [hops, bin] : point.curve) {
        bin.kar_bits /= static_cast<double>(bin.count);
        bin.portlist_bits /= static_cast<double>(bin.count);
        bin.optimal_bits /= static_cast<double>(bin.count);
        // Eq. 9 must track the optimal bound within a modest factor. The
        // gap is structural: KAR IDs are *globally* pairwise coprime, so a
        // switch in a 1000-node graph carries ~log2(n log n) bits even
        // when its degree is 3, while the optimal bound charges only
        // log2(degree). Worst observed is ~11x (Internet2 degree-3 rings
        // at 1000 switches); 16x still catches assignment regressions
        // (e.g. IDs growing faster than the n-th coprime).
        if (bin.optimal_bits > 0 && bin.kar_bits > 16 * bin.optimal_bits) {
          std::cerr << family << " n=" << size << " hops=" << hops
                    << ": kar " << bin.kar_bits << " bits vs optimal "
                    << bin.optimal_bits << " — ratio blew past 16x\n";
          pass = false;
        }
      }
      points.push_back(std::move(point));
    }
  }

  kar::common::TextTable table({"family", "switches", "build ms",
                                "mean hops", "kar bits", "optimal bits",
                                "ratio"});
  for (const FamilyPoint& point : points) {
    double hops_sum = 0, kar_sum = 0, opt_sum = 0;
    std::size_t n = 0;
    for (const auto& [hops, bin] : point.curve) {
      hops_sum += static_cast<double>(hops) * static_cast<double>(bin.count);
      kar_sum += bin.kar_bits * static_cast<double>(bin.count);
      opt_sum += bin.optimal_bits * static_cast<double>(bin.count);
      n += bin.count;
    }
    const double dn = static_cast<double>(std::max<std::size_t>(n, 1));
    table.add_row({point.family, std::to_string(point.switches),
                   kar::common::fmt_double(point.build_ms, 2),
                   kar::common::fmt_double(hops_sum / dn, 1),
                   kar::common::fmt_double(kar_sum / dn, 1),
                   kar::common::fmt_double(opt_sum / dn, 1),
                   kar::common::fmt_double(
                       opt_sum > 0 ? kar_sum / opt_sum : 0.0, 2)});
  }
  std::cout << "=== Eq. 9 bits vs optimal path encoding (" << path_samples
            << " sampled shortest paths per instance) ===\n"
            << table.render();

  // -- heavy-traffic workload through the Internet2 bottleneck under RED --
  kar::traffic::WorkloadSpec spec;
  spec.flows = flow_count;
  spec.arrivals = kar::traffic::ArrivalProcess::kUniform;
  // 10 ms ramp: even an uncongested 40-segment flow needs ~15 ms (slow
  // start over a 3 ms RTT), so no flow can finish before the last arrives
  // and peak concurrency genuinely reaches `flows`.
  spec.arrival_rate_per_s = static_cast<double>(flow_count) * 100.0;
  spec.sizes = kar::traffic::SizeDistribution::kFixed;
  spec.fixed_segments = 40;
  spec.horizon_s = horizon_s;
  spec.seed = seed;
  spec.host_fan = 8;
  const auto w0 = std::chrono::steady_clock::now();
  const kar::traffic::Workload workload(
      kar::topogen::make_internet2({.red = true}), spec);
  const kar::traffic::WorkloadResult result = workload.run();
  const double workload_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - w0)
                                 .count();

  std::cout << "\n=== " << flow_count
            << " finite TCP flows through the Internet2 bottleneck (RED on, "
            << "100 Mb/s) ===\n"
            << "completed " << result.completed << "/" << result.flows
            << ", peak concurrent " << result.peak_concurrent
            << ", RED early drops " << result.counters.drop_aqm_early
            << ", retransmit share "
            << kar::common::fmt_double(result.retransmit_share, 3)
            << "\nper-flow FCT p50/p99 "
            << kar::common::fmt_double(result.fct_p50_s * 1e3, 1) << "/"
            << kar::common::fmt_double(result.fct_p99_s * 1e3, 1)
            << " ms, goodput p50/p99 "
            << kar::common::fmt_double(result.goodput_p50_mbps, 3) << "/"
            << kar::common::fmt_double(result.goodput_p99_mbps, 3)
            << " Mb/s, sim end "
            << kar::common::fmt_double(result.sim_end_s, 1) << " s, wall "
            << kar::common::fmt_double(workload_ms, 0) << " ms\n";
  if (result.completed != result.flows) {
    std::cerr << "workload: " << (result.flows - result.completed)
              << " flows missed the horizon\n";
    pass = false;
  }
  if (result.counters.drop_aqm_early == 0) {
    std::cerr << "workload: RED never fired on a congested bottleneck\n";
    pass = false;
  }
  if (result.peak_concurrent < min_concurrent) {
    std::cerr << "workload: peak concurrency " << result.peak_concurrent
              << " below required " << min_concurrent << '\n';
    pass = false;
  }

  if (!out_path.empty()) {
    std::string points_json = "[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const FamilyPoint& point = points[i];
      std::string curve_json = "[";
      bool first = true;
      for (const auto& [hops, bin] : point.curve) {
        if (!first) curve_json += ',';
        first = false;
        kar::runner::JsonObject entry;
        entry.field("path_nodes", static_cast<std::uint64_t>(hops))
            .field("samples", static_cast<std::uint64_t>(bin.count))
            .field("kar_bits", bin.kar_bits)
            .field("portlist_bits", bin.portlist_bits)
            .field("optimal_bits", bin.optimal_bits);
        curve_json += entry.str();
      }
      curve_json += ']';
      kar::runner::JsonObject record;
      record.field("family", point.family)
          .raw("provenance", kar::bench::provenance_json())
          .field("requested", static_cast<std::uint64_t>(point.requested))
          .field("switches", static_cast<std::uint64_t>(point.switches))
          .field("build_ms", point.build_ms)
          .raw("curve", curve_json);
      if (i > 0) points_json += ',';
      points_json += record.str();
    }
    points_json += ']';

    kar::runner::JsonObject workload_json;
    workload_json.field("flows", static_cast<std::uint64_t>(result.flows))
        .field("completed", static_cast<std::uint64_t>(result.completed))
        .field("peak_concurrent",
               static_cast<std::uint64_t>(result.peak_concurrent))
        .field("segments_delivered", result.segments_delivered)
        .field("retransmits", result.retransmits)
        .field("aqm_early_drops", result.counters.drop_aqm_early)
        .field("queue_overflow_drops", result.counters.drop_queue_overflow)
        .field("retransmit_share", result.retransmit_share)
        .field("fct_p50_s", result.fct_p50_s)
        .field("fct_p99_s", result.fct_p99_s)
        .field("goodput_p50_mbps", result.goodput_p50_mbps)
        .field("goodput_p99_mbps", result.goodput_p99_mbps)
        .field("sim_end_s", result.sim_end_s)
        .field("wall_ms", workload_ms);

    kar::runner::JsonObject record;
    record.field("bench", "topogen_scale")
        .raw("provenance", kar::bench::provenance_json())
        .field("sizes", sizes_csv)
        .field("path_samples", static_cast<std::uint64_t>(path_samples))
        .field("seed", seed)
        .raw("encoding", points_json)
        .raw("workload", workload_json.str())
        .field("pass", pass);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "topogen_scale: cannot open " << out_path << '\n';
      return 2;
    }
    out << record.str() << '\n';
    std::cout << "recorded " << out_path << '\n';
  }
  return pass ? 0 : 1;
}
