#include "experiments/tcp_experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "transport/flows.hpp"

namespace kar::experiments {

TcpRunResult run_tcp_experiment(TcpExperiment experiment) {
  routing::Controller controller(experiment.scenario.topology);
  sim::NetworkConfig config;
  config.technique = experiment.technique;
  config.seed = experiment.seed;
  sim::Network net(experiment.scenario.topology, controller, config);

  std::optional<obs::NetworkObserver> observer;
  if (experiment.metrics != nullptr || experiment.trace != nullptr) {
    obs::NetworkObserverOptions observer_options;
    observer_options.metrics = experiment.metrics;
    observer_options.trace = experiment.trace;
    observer_options.labels = experiment.obs_labels;
    observer_options.tid = experiment.obs_tid;
    observer.emplace(net, observer_options);
    observer->install();
  }
  if (experiment.event_profile != nullptr) {
    net.events().set_profile(experiment.event_profile);
  }

  transport::FlowDispatcher dispatcher(net);
  const auto forward =
      controller.encode_scenario(experiment.scenario.route, experiment.level);
  const auto reverse =
      controller.encode_scenario(experiment.reverse_route, experiment.level);
  transport::BulkTransferFlow flow(net, dispatcher, forward, reverse,
                                   /*flow_id=*/1, experiment.tcp,
                                   experiment.bin_s);
  if (experiment.metrics != nullptr || experiment.trace != nullptr) {
    transport::TcpObservability sinks;
    sinks.metrics = experiment.metrics;
    sinks.trace = experiment.trace;
    sinks.labels = experiment.obs_labels;
    flow.sender().set_observability(sinks);
  }
  if (experiment.trace != nullptr && experiment.cwnd_sample_interval_s > 0.0) {
    // Periodic cwnd counter samples: read-only observers of the sender, so
    // they cannot perturb the simulation.
    obs::TraceRecorder* trace = experiment.trace;
    const std::uint32_t tid = experiment.obs_tid;
    for (double t = experiment.cwnd_sample_interval_s; t < experiment.t_end;
         t += experiment.cwnd_sample_interval_s) {
      net.events().schedule_at(t, [&net, &flow, trace, tid] {
        const auto fmt = [](double v) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", v);
          return std::string(buf);
        };
        obs::TraceRecord record;
        record.cat = obs::TraceCategory::kTcp;
        record.name = "tcp cwnd flow 1";
        record.ts_s = net.now();
        record.counter = true;
        record.tid = tid;
        record.id = 1;
        record.args = {{"cwnd", fmt(flow.sender().cwnd_segments())},
                       {"ssthresh", fmt(flow.sender().ssthresh_segments())}};
        trace->record(record);
      });
    }
  }
  flow.start_at(0.0);
  if (experiment.failed_link) {
    net.fail_link_at(experiment.t_fail, experiment.failed_link->first,
                     experiment.failed_link->second);
    net.repair_link_at(experiment.t_repair, experiment.failed_link->first,
                       experiment.failed_link->second);
  }
  flow.stop_at(experiment.t_end);
  net.events().run_until(experiment.t_end);

  TcpRunResult result;
  const auto& series = flow.receiver().goodput();
  const auto bins = static_cast<std::size_t>(experiment.t_end / experiment.bin_s);
  result.timeline_mbps.reserve(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    result.timeline_mbps.push_back(series.bin_mbps(b));
  }
  result.before_mbps = series.mbps_between(1.0, experiment.t_fail);
  result.during_mbps =
      series.mbps_between(experiment.t_fail + experiment.bin_s,
                          std::min(experiment.t_repair, experiment.t_end));
  result.after_mbps =
      series.mbps_between(experiment.t_repair + experiment.bin_s, experiment.t_end);
  result.overall_mbps = series.mbps_between(1.0, experiment.t_end);
  result.out_of_order = flow.receiver().stats().out_of_order_segments;
  result.fast_retransmits = flow.sender().stats().fast_retransmits;
  result.timeouts = flow.sender().stats().timeouts;
  result.deflections = net.counters().deflections;
  result.reencodes = net.counters().reencodes;
  result.drops = net.counters().total_drops();
  return result;
}

double single_failure_run(const TcpExperiment& base, std::size_t r,
                          double seconds) {
  TcpExperiment experiment = base;  // fresh topology per run
  experiment.seed = base.seed + r * 7919;
  experiment.t_fail = 0.0;              // failure active from the start
  experiment.t_repair = seconds + 1.0;  // never repaired during the run
  experiment.t_end = seconds;
  const TcpRunResult result = run_tcp_experiment(std::move(experiment));
  // iperf reports the whole-run average; skip the first second of slow
  // start like the paper's 5-second steady-state runs effectively do.
  return result.overall_mbps;
}

std::vector<double> repeated_failure_runs(const TcpExperiment& base,
                                          std::size_t runs, double seconds) {
  std::vector<double> samples;
  samples.reserve(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    samples.push_back(single_failure_run(base, r, seconds));
  }
  return samples;
}

}  // namespace kar::experiments
