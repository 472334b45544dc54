// fig4_tcp: paper Fig. 4 on the 15-node experimental network with partial
// protection. One window-limited bulk TCP flow per curve (none, hp, avp,
// nip, in turn); link SW7-SW13 is down for the middle third of each run.
// The experiment is built the way bench/bench_util.hpp's
// run_tcp_experiment builds it, from the same paper parameters, with timing
// points between setup and the event loop.
#include <iterator>

#include "alloc_count.hpp"
#include "bench_util.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"
#include "transport/flows.hpp"
#include "workloads.hpp"

namespace kar::perfbench {
namespace {

/// Simulated seconds per curve; the failure window is its middle third.
constexpr double kDurationS = 6.0;
/// NIP must keep this share of its pre-failure goodput during the failure
/// (the paper reports ~150 of 200 Mb/s).
constexpr double kNipRetainedMin = 0.75;

struct Curve {
  const char* name;
  dataplane::DeflectionTechnique technique;
};
constexpr Curve kCurves[] = {
    {"none", dataplane::DeflectionTechnique::kNone},
    {"hp", dataplane::DeflectionTechnique::kHotPotato},
    {"avp", dataplane::DeflectionTechnique::kAnyValidPort},
    {"nip", dataplane::DeflectionTechnique::kNotInputPort},
};

struct CurveRun {
  SimLayers layers;
  double before_mbps = 0.0;
  double during_mbps = 0.0;
  std::uint64_t delivered_segments = 0;
  std::uint64_t next_expected = 0;
  std::uint64_t retransmits = 0;
  std::size_t wide_routes = 0;
};

sim::NetworkConfig network_config(const Curve& curve, std::uint64_t seed) {
  sim::NetworkConfig config;
  config.technique = curve.technique;
  config.seed = seed;
  return config;
}

/// One curve's experiment: the constructor is the setup (scenario,
/// controller, Network, route encodes, flow), run() the event loop.
class CurveSim {
 public:
  CurveSim(const Curve& curve, std::uint64_t seed, double duration_s)
      : duration_s_(duration_s),
        scenario_(topo::make_experimental15(bench::paper_link_params())),
        controller_(scenario_.topology),
        net_(scenario_.topology, controller_, network_config(curve, seed)),
        dispatcher_(net_),
        forward_(controller_.encode_scenario(scenario_.route,
                                             topo::ProtectionLevel::kPartial)),
        reverse_(controller_.encode_scenario(
            bench::reverse_for_experimental15(scenario_.route),
            topo::ProtectionLevel::kPartial)),
        flow_(net_, dispatcher_, forward_, reverse_, /*flow_id=*/1,
              bench::TcpExperiment::window_limited_defaults(),
              /*goodput_bin_s=*/1.0) {
    flow_.start_at(0.0);
    net_.fail_link_at(t_fail(), "SW7", "SW13");
    net_.repair_link_at(t_repair(), "SW7", "SW13");
    flow_.stop_at(duration_s_);
  }
  CurveSim(const CurveSim&) = delete;
  CurveSim& operator=(const CurveSim&) = delete;

  CurveRun run(bool traced) {
    CurveRun out;
    if (traced) net_.events().set_profile(&out.layers.profile);
    const std::uint64_t allocations_before = alloc_count();
    set_alloc_counting(traced);
    const Clock::time_point t0 = Clock::now();
    out.layers.events = net_.events().run_until(duration_s_);
    out.layers.loop_wall_s = seconds_since(t0);
    set_alloc_counting(false);
    out.layers.allocations = alloc_count() - allocations_before;
    net_.events().set_profile(nullptr);

    const auto& series = flow_.receiver().goodput();
    out.before_mbps = series.mbps_between(1.0, t_fail());
    out.during_mbps = series.mbps_between(t_fail() + 1.0, t_repair());
    out.delivered_segments = flow_.receiver().stats().delivered_segments;
    out.next_expected = flow_.receiver().next_expected();
    out.retransmits = flow_.sender().stats().retransmits;
    out.layers.hops = net_.counters().hops;
    out.layers.cache = net_.residue_cache_stats();
    out.wide_routes = (forward_.bit_length > 64 ? 1 : 0) +
                      (reverse_.bit_length > 64 ? 1 : 0);
    return out;
  }

 private:
  [[nodiscard]] double t_fail() const { return duration_s_ / 3.0; }
  [[nodiscard]] double t_repair() const { return 2.0 * duration_s_ / 3.0; }

  double duration_s_;
  topo::Scenario scenario_;
  routing::Controller controller_;
  sim::Network net_;
  transport::FlowDispatcher dispatcher_;
  routing::EncodedRoute forward_;
  routing::EncodedRoute reverse_;
  transport::BulkTransferFlow flow_;
};

/// The setup of a whole unit: all four curves built, none run.
void setup_unit(std::uint64_t seed, double duration_s) {
  for (const Curve& curve : kCurves) {
    const CurveSim sim(curve, seed, duration_s);
  }
}

/// All four curves, in turn.
struct Unit {
  SimLayers layers;
  double wall_s = 0.0;  ///< Whole unit, setup included.
  double paced_s = 0.0;  ///< The event loops, rescaled one by one.
  std::uint64_t delivered_segments = 0;
  std::uint64_t retransmits = 0;
  std::size_t wide_routes = 0;
  std::size_t routes = 0;
  std::vector<std::string> failures;
};

/// With `pace`, each curve's event loop is rescaled as it ends, so a host
/// speed change within the unit is tracked curve by curve.
Unit run_unit(std::uint64_t seed, double duration_s, bool traced,
              HostPace* pace = nullptr) {
  Unit unit;
  const Clock::time_point t0 = Clock::now();
  for (const Curve& curve : kCurves) {
    const Clock::time_point setup_t0 = Clock::now();
    CurveSim sim(curve, seed, duration_s);
    const double setup_s = seconds_since(setup_t0);
    CurveRun run = sim.run(traced);
    if (pace != nullptr) unit.paced_s += pace->rescale(run.layers.loop_wall_s);
    run.layers.setup_s = setup_s;
    unit.layers.add(run.layers);
    unit.delivered_segments += run.delivered_segments;
    unit.retransmits += run.retransmits;
    unit.wide_routes += run.wide_routes;
    unit.routes += 2;
    const std::string name = curve.name;
    if (run.delivered_segments == 0 ||
        run.delivered_segments != run.next_expected) {
      unit.failures.push_back(name + ": receiver stream is not in order");
    } else if (curve.technique == dataplane::DeflectionTechnique::kNone &&
               run.during_mbps != 0.0) {
      unit.failures.push_back(name + ": delivered data during the failure");
    } else if (curve.technique ==
                   dataplane::DeflectionTechnique::kNotInputPort &&
               !(run.during_mbps >= kNipRetainedMin * run.before_mbps &&
                 run.before_mbps > 0.0)) {
      unit.failures.push_back(name + ": kept " +
                              std::to_string(run.during_mbps) + " of " +
                              std::to_string(run.before_mbps) + " Mb/s");
    }
  }
  unit.wall_s = seconds_since(t0);
  unit.layers.traced_wall_s = unit.wall_s;
  return unit;
}

}  // namespace

SimLayers fig4_traced_unit(std::uint64_t seed, double duration_s) {
  return run_unit(seed, duration_s, /*traced=*/true).layers;
}

Report run_fig4_tcp(const Options& options) {
  Report report;
  report.param("topology", "experimental15");
  report.param("protection", "partial");
  report.param("curves", "none,hp,avp,nip");
  report.param("failed_link", "SW7-SW13");
  report.param("sim_seconds_per_curve", kDurationS);

  std::vector<Unit> plain;
  std::vector<Unit> traced;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  const auto record = [&report](const Unit& unit) {
    report.attempted += std::size(kCurves);
    report.failed += unit.failures.size();
    for (const std::string& failure : unit.failures) {
      report.check(false, failure);
    }
  };
  HostPace pace;
  repeat_for(options.seconds, options.trace ? 2 : 3, [&] {
    plain.push_back(run_unit(options.seed, kDurationS, false,
                             options.trace ? nullptr : &pace));
    record(plain.back());
    if (!options.trace) {
      wall_s.push_back(plain.back().paced_s);
      setup_s.push_back(pace.rescale(
          per_call_s([&options] { setup_unit(options.seed, kDurationS); })));
    } else {
      traced.push_back(run_unit(options.seed, kDurationS, true));
      record(traced.back());
    }
  });

  for (const Unit& unit : plain) {
    report.check(unit.layers.events == plain.front().layers.events &&
                     unit.layers.hops == plain.front().layers.hops,
                 "event or hop counts differ between units of one seed");
  }
  const Unit& first = plain.front();
  report.witness("delivered_segments", first.delivered_segments);
  report.witness("retransmits", first.retransmits);

  if (!options.trace) {
    report.witness("sim.events", first.layers.events);
    report.witness("sim.hops", first.layers.hops);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(wall_s), "s");
    report.samples.emplace_back("setup_s", setup_s);
    report.samples.emplace_back("wall_s", wall_s);
    report.samples.emplace_back("reference_s", pace.reference_s());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return report;
  }

  // Per-layer numbers from the traced unit of median wall time; every
  // traced unit must repeat the same exact counts.
  std::vector<double> traced_wall_s;
  for (const Unit& unit : traced) {
    traced_wall_s.push_back(unit.wall_s);
    report.check(unit.layers.events == first.layers.events &&
                     unit.layers.hops == first.layers.hops &&
                     unit.layers.allocations ==
                         traced.front().layers.allocations,
                 "traced units of one seed differ in events, hops or "
                 "allocations");
  }
  const Unit& chosen =
      median_item(traced, [](const Unit& unit) { return unit.wall_s; });
  report_sim_layers(report, chosen.layers);
  report.metric("rns.wide_route_share",
                static_cast<double>(chosen.wide_routes) /
                    static_cast<double>(chosen.routes),
                "share");
  std::vector<double> plain_wall_s;
  for (const Unit& unit : plain) plain_wall_s.push_back(unit.wall_s);
  report.metric("trace_overhead_s",
                median(traced_wall_s) - median(plain_wall_s), "s");
  return report;
}

}  // namespace kar::perfbench
