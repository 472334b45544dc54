#include "obs/instrument.hpp"

#include <utility>

namespace kar::obs {

namespace {

Labels with_label(Labels labels, std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return labels;
}

}  // namespace

NetworkObserver::NetworkObserver(sim::Network& network,
                                 NetworkObserverOptions options)
    : net_(&network), trace_(options.trace), tid_(options.tid) {
  if (options.metrics == nullptr) return;
  MetricsRegistry& reg = *options.metrics;
  const Labels& base = options.labels;
  injected_ =
      reg.counter("kar_packets_injected_total", "Packets injected", base);
  delivered_ =
      reg.counter("kar_packets_delivered_total", "Packets delivered", base);
  hops_ = reg.counter("kar_hops_total", "Per-hop forwarding decisions", base);
  reencodes_ = reg.counter("kar_reencodes_total",
                           "Wrong-edge controller re-encodes", base);
  bounces_ = reg.counter("kar_bounces_total",
                         "Wrong-edge bounces back into the core", base);
  link_down_ = reg.counter("kar_link_transitions_total", "Link transitions",
                           with_label(base, "state", "down"));
  link_up_ = reg.counter("kar_link_transitions_total", "Link transitions",
                         with_label(base, "state", "up"));
  delivery_latency_ = reg.histogram(
      "kar_delivery_latency_seconds", "Inject-to-deliver latency",
      {1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1},
      base);
  delivery_hops_ =
      reg.histogram("kar_delivery_hops", "Hops taken by delivered packets",
                    {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128}, base);
  const topo::Topology& topo = net_->topology();
  for (const topo::NodeId node :
       topo.nodes_of_kind(topo::NodeKind::kCoreSwitch)) {
    deflections_by_switch_.emplace(
        node,
        reg.counter("kar_deflections_total", "Deflected forwarding decisions",
                    with_label(base, "switch", std::string(topo.name(node)))));
  }
  for (const auto reason :
       {dataplane::DropReason::kNoViablePort, dataplane::DropReason::kLinkFailed,
        dataplane::DropReason::kQueueOverflow,
        dataplane::DropReason::kTtlExceeded,
        dataplane::DropReason::kAqmEarly}) {
    drops_by_reason_.emplace(
        static_cast<std::uint8_t>(reason),
        reg.counter("kar_drops_total", "Dropped packets",
                    with_label(base, "reason", to_string(reason))));
  }
  // Data-plane residue-cache hit/miss/eviction counters: registered here,
  // updated inline by the forwarding fast path (docs/performance.md).
  network.attach_dataplane_metrics(reg, base);
}

void NetworkObserver::on_trace(const sim::TraceEvent& event) {
  const topo::Topology& topo = net_->topology();
  switch (event.kind) {
    case sim::TraceEvent::Kind::kInject:
      injected_.inc();
      break;
    case sim::TraceEvent::Kind::kHop: {
      hops_.inc();
      if (!event.deflected) break;
      if (auto it = deflections_by_switch_.find(event.node);
          it != deflections_by_switch_.end()) {
        it->second.inc();
      }
      if (trace_ != nullptr) {
        TraceRecord record;
        record.cat = TraceCategory::kDeflection;
        record.name = "deflect";
        record.node = topo.name(event.node);
        record.ts_s = event.time;
        record.tid = tid_;
        record.id = event.packet_id;
        record.args = {{"out_port", std::to_string(event.out_port)},
                       {"in_port", std::to_string(event.in_port)}};
        if (event.packet != nullptr &&
            topo.kind(event.node) == topo::NodeKind::kCoreSwitch) {
          record.args.emplace_back(
              "residue", std::to_string(event.packet->kar.route_id.mod_u64(
                             topo.switch_id(event.node))));
        }
        trace_->record(record);
      }
      break;
    }
    case sim::TraceEvent::Kind::kDeliver: {
      delivered_.inc();
      // The packet carries its own injection time and hop count.
      delivery_latency_.observe(event.time - event.packet->created_at);
      delivery_hops_.observe(static_cast<double>(event.packet->hop_count));
      break;
    }
    case sim::TraceEvent::Kind::kDrop: {
      if (auto it =
              drops_by_reason_.find(static_cast<std::uint8_t>(event.drop_reason));
          it != drops_by_reason_.end()) {
        it->second.inc();
      }
      if (trace_ != nullptr) {
        TraceRecord record;
        record.cat = TraceCategory::kPacket;
        record.name = "drop";
        record.node = topo.name(event.node);
        record.ts_s = event.time;
        record.tid = tid_;
        record.id = event.packet_id;
        record.args = {{"reason", to_string(event.drop_reason)}};
        trace_->record(record);
      }
      break;
    }
    case sim::TraceEvent::Kind::kReencode:
    case sim::TraceEvent::Kind::kBounce: {
      const bool reencode = event.kind == sim::TraceEvent::Kind::kReencode;
      (reencode ? reencodes_ : bounces_).inc();
      if (trace_ != nullptr) {
        TraceRecord record;
        record.cat = TraceCategory::kController;
        record.name = reencode ? "reencode" : "bounce";
        record.node = topo.name(event.node);
        record.ts_s = event.time;
        record.tid = tid_;
        record.id = event.packet_id;
        trace_->record(record);
      }
      break;
    }
  }
}

void NetworkObserver::on_link_state(topo::LinkId link, bool up) {
  (up ? link_up_ : link_down_).inc();
  if (trace_ == nullptr) return;
  const topo::Topology& topo = net_->topology();
  const topo::Link& l = topo.link(link);
  TraceRecord record;
  record.cat = TraceCategory::kLink;
  record.name = up ? "link-up" : "link-down";
  record.node = topo.name(l.a.node);
  record.ts_s = net_->now();
  record.tid = tid_;
  record.args = {{"peer", std::string(topo.name(l.b.node))},
                 {"link", std::to_string(link)}};
  trace_->record(record);
}

void NetworkObserver::install() {
  net_->set_trace_hook(
      [this](const sim::TraceEvent& event) { on_trace(event); });
  net_->set_link_state_hook(
      [this](topo::LinkId link, bool up) { on_link_state(link, up); });
}

}  // namespace kar::obs
