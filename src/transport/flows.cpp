#include "transport/flows.hpp"

#include <stdexcept>

namespace kar::transport {

void FlowDispatcher::register_endpoint(topo::NodeId edge, std::uint64_t flow_id,
                                       PacketHandler handler) {
  if (!handler) throw std::invalid_argument("FlowDispatcher: null handler");
  const Key key{edge, flow_id};
  if (!handlers_.emplace(key, std::move(handler)).second) {
    throw std::invalid_argument("FlowDispatcher: duplicate endpoint");
  }
  if (!installed_[edge]) {
    installed_[edge] = true;
    net_->set_delivery_handler(edge, [this, edge](const dataplane::Packet& packet) {
      const auto it = handlers_.find(Key{edge, packet.flow_id});
      if (it == handlers_.end()) {
        ++unclaimed_;
        return;
      }
      it->second(packet);
    });
  }
}

BulkTransferFlow::BulkTransferFlow(sim::Network& network, FlowDispatcher& dispatcher,
                                   routing::EncodedRoute forward,
                                   routing::EncodedRoute reverse,
                                   std::uint64_t flow_id, TcpParams params,
                                   double goodput_bin_s)
    : net_(&network), forward_(std::move(forward)), reverse_(std::move(reverse)) {
  if (forward_.src_edge != reverse_.dst_edge ||
      forward_.dst_edge != reverse_.src_edge) {
    throw std::invalid_argument(
        "BulkTransferFlow: reverse route must mirror the forward route");
  }
  sender_ = std::make_unique<TcpSender>(network, forward_, flow_id, params);
  receiver_ =
      std::make_unique<TcpReceiver>(network, reverse_, flow_id, params, goodput_bin_s);

  // Data segments surface at the destination edge; ACKs at the source edge.
  dispatcher.register_endpoint(
      forward_.dst_edge, flow_id, [this](const dataplane::Packet& packet) {
        if (const auto* segment =
                std::get_if<dataplane::TcpSegment>(&packet.transport);
            segment && segment->has_data) {
          receiver_->on_data(*segment);
        }
      });
  dispatcher.register_endpoint(
      forward_.src_edge, flow_id, [this](const dataplane::Packet& packet) {
        if (const auto* segment =
                std::get_if<dataplane::TcpSegment>(&packet.transport);
            segment && !segment->has_data) {
          sender_->on_ack(*segment);
        }
      });
}

void BulkTransferFlow::start_at(double time) {
  net_->events().schedule_at(time, sim::EventKind::kTraffic,
                             [this] { sender_->start(); });
}

void BulkTransferFlow::stop_at(double time) {
  net_->events().schedule_at(time, sim::EventKind::kTraffic,
                             [this] { sender_->stop(); });
}

}  // namespace kar::transport
