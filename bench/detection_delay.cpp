// Failure-detection delay sensitivity. KAR's liveness argument assumes a
// switch notices a dead local link essentially instantly (loss of signal).
// With slower detection (e.g. BFD intervals), traffic is blackholed into
// the dead port until the timer fires and only then do deflections begin.
// This bench sweeps the detection delay and measures the loss window —
// KAR's recovery time budget is exactly the local detection time, while
// the controller-reaction baseline pays detection + notification +
// recomputation (see bench/controller_reaction).
//
// Usage: detection_delay [--rate-pps=2000] [--seconds=4] [--seed=1]
#include <iostream>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topology/builders.hpp"
#include "transport/udp.hpp"

int main(int argc, char** argv) {
  using namespace kar;
  const auto flags = common::Flags::parse_cli(argc, argv);
  const double rate_pps = flags.get_double("rate-pps", 2000.0);
  const double seconds = flags.get_double("seconds", 4.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (common::report_unread(flags, "detection_delay")) return 2;

  std::cout << "=== Failure-detection delay vs loss (15-node net, NIP + "
               "partial protection, SW7-SW13 fails at t=1 s) ===\n"
            << rate_pps << " probes/s for " << seconds << " s\n\n";

  common::TextTable table({"detection delay", "lost packets",
                           "loss window (ms)", "delivery rate"});
  for (const double detect : {0.0, 0.001, 0.005, 0.010, 0.050, 0.200}) {
    topo::Scenario s = topo::make_experimental15();
    const routing::Controller controller(s.topology);
    sim::NetworkConfig config;
    config.technique = dataplane::DeflectionTechnique::kNotInputPort;
    config.failure_detection_delay_s = detect;
    config.seed = seed;
    sim::Network net(s.topology, controller, config);
    transport::FlowDispatcher dispatcher(net);
    const auto route =
        controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial);
    transport::CbrProbe probe(net, dispatcher, route, 1, 1.0 / rate_pps, 200);
    probe.start_at(0.0);
    net.fail_link_at(1.0, "SW7", "SW13");
    probe.stop_at(seconds);
    net.events().run_until(seconds + 1.0);
    const auto lost = probe.sent() - probe.received();
    table.add_row({common::fmt_double(detect * 1e3, 1) + " ms",
                   std::to_string(lost),
                   common::fmt_double(static_cast<double>(lost) / rate_pps * 1e3, 1),
                   common::fmt_double(100.0 * probe.received() / probe.sent(), 2) +
                       "%"});
  }
  std::cout << table.render()
            << "\n(loss tracks the detection window one-for-one: KAR's "
               "recovery budget is purely local detection; nothing waits on "
               "a controller)\n";
  return 0;
}
