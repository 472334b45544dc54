// Failure-reaction comparison (paper §1): the "traditional approach" —
// notify the controller, wait for a recomputed route — versus KAR's
// data-plane deflection.
//
//   "While it improves failure reaction time, the source still must wait
//    to receive the notification message. Until that failure notification
//    is received, packets that had already left the source node are
//    dropped."
//
// Method: constant-rate probes AS1 -> AS3 on the 15-node network;
// SW7-SW13 fails at t=1 s. Modes:
//   * controller reaction with notification+recompute delay D (swept):
//     no deflection; after D the source stamps a failure-avoiding route;
//   * KAR deflection (NIP, partial protection): no controller involvement.
// Reported: packets lost, loss window, delivery rate.
//
// Usage: controller_reaction [--rate-pps=2000] [--seconds=4] [--seed=1]
#include <iostream>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"
#include "transport/udp.hpp"

namespace {

using kar::common::TextTable;
using kar::common::fmt_double;
using kar::dataplane::DeflectionTechnique;
using kar::topo::ProtectionLevel;

struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

Outcome run_mode(DeflectionTechnique technique, ProtectionLevel level,
                 double reaction_delay_s, bool controller_reacts,
                 double rate_pps, double seconds, std::uint64_t seed) {
  kar::topo::Scenario s = kar::topo::make_experimental15();
  kar::routing::Controller controller(s.topology);
  kar::sim::NetworkConfig config;
  config.technique = technique;
  config.seed = seed;
  kar::sim::Network net(s.topology, controller, config);
  kar::transport::FlowDispatcher dispatcher(net);
  const auto route = controller.encode_scenario(s.route, level);
  kar::transport::CbrProbe probe(net, dispatcher, route, /*flow_id=*/1,
                                 1.0 / rate_pps, /*payload_bytes=*/200);
  probe.start_at(0.0);
  const double t_fail = 1.0;
  net.fail_link_at(t_fail, "SW7", "SW13");
  if (controller_reacts) {
    net.events().schedule_at(t_fail + reaction_delay_s, [&] {
      // The controller now knows; recompute avoiding failed links and push
      // the new route ID to the ingress edge.
      kar::routing::PathOptions options;
      options.ignore_failures = false;
      kar::routing::Controller aware(net.topology(), options);
      const auto fresh = aware.route_between(net.topology().at("AS1"),
                                             net.topology().at("AS3"));
      if (fresh) probe.set_route(*fresh);
    });
  }
  probe.stop_at(seconds);
  net.events().run_until(seconds + 1.0);
  return Outcome{probe.sent(), probe.received()};
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const double rate_pps = flags.get_double("rate-pps", 2000.0);
  const double seconds = flags.get_double("seconds", 4.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (kar::common::report_unread(flags, "controller_reaction")) return 2;

  std::cout << "=== Failure reaction: controller notification vs KAR "
               "deflection (15-node net, SW7-SW13 fails at t=1 s) ===\n"
            << rate_pps << " probes/s for " << seconds << " s\n\n";

  TextTable table({"mode", "reaction delay", "lost packets", "delivery rate",
                   "approx loss window (ms)"});
  for (const double delay : {0.010, 0.050, 0.100, 0.250, 0.500}) {
    const Outcome o =
        run_mode(DeflectionTechnique::kNone, ProtectionLevel::kUnprotected,
                 delay, /*controller_reacts=*/true, rate_pps, seconds, seed);
    const auto lost = o.sent - o.received;
    table.add_row({"controller reroute", fmt_double(delay * 1e3, 0) + " ms",
                   std::to_string(lost),
                   fmt_double(100.0 * o.received / o.sent, 2) + "%",
                   fmt_double(static_cast<double>(lost) / rate_pps * 1e3, 1)});
  }
  {
    const Outcome o =
        run_mode(DeflectionTechnique::kNone, ProtectionLevel::kUnprotected,
                 0.0, /*controller_reacts=*/false, rate_pps, seconds, seed);
    table.add_row({"no reaction at all", "-",
                   std::to_string(o.sent - o.received),
                   fmt_double(100.0 * o.received / o.sent, 2) + "%", "-"});
  }
  {
    const Outcome o = run_mode(DeflectionTechnique::kNotInputPort,
                               ProtectionLevel::kPartial, 0.0,
                               /*controller_reacts=*/false, rate_pps, seconds,
                               seed);
    table.add_row({"KAR deflection (nip+partial)", "0 (data plane)",
                   std::to_string(o.sent - o.received),
                   fmt_double(100.0 * o.received / o.sent, 2) + "%",
                   fmt_double((o.sent - o.received) / rate_pps * 1e3, 1)});
  }
  std::cout << table.render()
            << "\n(controller reaction loses exactly the failure-to-reroute "
               "window of in-flight traffic — the paper's Hitless argument; "
               "KAR's loss is at most the packets already on the dead wire)\n";
  return 0;
}
