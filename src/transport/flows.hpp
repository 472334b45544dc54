// Flow plumbing: demultiplexes edge deliveries to transport endpoints and
// bundles a TCP sender/receiver pair into an iperf-like bulk-transfer flow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "routing/encoded_route.hpp"
#include "sim/network.hpp"
#include "transport/tcp.hpp"

namespace kar::transport {

/// Demultiplexes packets delivered at edge nodes to per-flow callbacks
/// keyed by (edge, flow id). Installs itself as the network's delivery
/// handler for each edge it learns about.
class FlowDispatcher {
 public:
  explicit FlowDispatcher(sim::Network& network) : net_(&network) {}

  using PacketHandler = std::function<void(const dataplane::Packet&)>;

  /// Registers `handler` for packets of `flow_id` delivered at `edge`.
  /// Throws std::invalid_argument on duplicate registration.
  void register_endpoint(topo::NodeId edge, std::uint64_t flow_id,
                         PacketHandler handler);

  /// Packets delivered with no registered endpoint (e.g. late stragglers
  /// after a flow was torn down).
  [[nodiscard]] std::uint64_t unclaimed_packets() const noexcept {
    return unclaimed_;
  }

 private:
  struct Key {
    topo::NodeId edge;
    std::uint64_t flow;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.edge) << 32) ^
                                        k.flow);
    }
  };

  sim::Network* net_;
  std::unordered_map<Key, PacketHandler, KeyHash> handlers_;
  std::unordered_map<topo::NodeId, bool> installed_;
  std::uint64_t unclaimed_ = 0;
};

/// An iperf-like bulk TCP transfer: unbounded data from the source edge to
/// the destination edge, ACKs flowing back on a reverse route, goodput
/// recorded in time bins. This is the measurement instrument behind
/// Figures 4, 5, 7 and 8.
class BulkTransferFlow {
 public:
  /// Routes are copied and kept alive by the flow. `forward` carries data
  /// src → dst; `reverse` carries ACKs dst → src.
  BulkTransferFlow(sim::Network& network, FlowDispatcher& dispatcher,
                   routing::EncodedRoute forward, routing::EncodedRoute reverse,
                   std::uint64_t flow_id, TcpParams params = {},
                   double goodput_bin_s = 1.0);

  BulkTransferFlow(const BulkTransferFlow&) = delete;
  BulkTransferFlow& operator=(const BulkTransferFlow&) = delete;

  /// Schedules transmission start/stop at absolute simulation times.
  void start_at(double time);
  void stop_at(double time);

  [[nodiscard]] TcpSender& sender() noexcept { return *sender_; }
  [[nodiscard]] TcpReceiver& receiver() noexcept { return *receiver_; }
  [[nodiscard]] const TcpSender& sender() const noexcept { return *sender_; }
  [[nodiscard]] const TcpReceiver& receiver() const noexcept { return *receiver_; }

  /// Mean goodput (payload bytes delivered in order) over [t0, t1) in Mb/s.
  [[nodiscard]] double goodput_mbps(double t0, double t1) const {
    return receiver_->goodput().mbps_between(t0, t1);
  }

 private:
  sim::Network* net_;
  routing::EncodedRoute forward_;
  routing::EncodedRoute reverse_;
  std::unique_ptr<TcpSender> sender_;
  std::unique_ptr<TcpReceiver> receiver_;
};

}  // namespace kar::transport
