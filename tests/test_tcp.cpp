#include "transport/tcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "topology/builders.hpp"
#include "transport/flows.hpp"
#include "transport/udp.hpp"

namespace kar::transport {
namespace {

using dataplane::DeflectionTechnique;
using topo::ProtectionLevel;
using topo::Scenario;

/// A 3-switch line with fast links: convenient TCP playground.
struct TcpFixture : public ::testing::Test {
  TcpFixture()
      : scenario(topo::make_line(3,
                                 topo::LinkParams{.rate_bps = 100e6,
                                                  .delay_s = 1e-3,
                                                  .queue_packets = 200})),
        controller(scenario.topology) {}

  routing::EncodedRoute forward_route() {
    return *controller.route_between(scenario.topology.at("SRC"),
                                     scenario.topology.at("DST"));
  }
  routing::EncodedRoute reverse_route() {
    return *controller.route_between(scenario.topology.at("DST"),
                                     scenario.topology.at("SRC"));
  }

  Scenario scenario;
  routing::Controller controller;
};

TEST_F(TcpFixture, BulkFlowDeliversInOrderAndFillsThePipe) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  TcpParams params;
  // Keep the window below pipe + queue capacity so the clean-line run is
  // genuinely lossless (the loss path is exercised elsewhere).
  params.receiver_window_segments = 128;
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(),
                        /*flow_id=*/1, params);
  flow.start_at(0.0);
  flow.stop_at(5.0);
  net.events().run_until(6.0);
  const auto& rx = flow.receiver().stats();
  EXPECT_GT(rx.delivered_segments, 1000u);
  EXPECT_EQ(rx.out_of_order_segments, 0u);  // clean line: no reordering
  // Goodput approaches the 100 Mb/s bottleneck (minus header overhead).
  const double mbps = flow.goodput_mbps(1.0, 5.0);
  EXPECT_GT(mbps, 80.0);
  EXPECT_LT(mbps, 100.0);
  // No losses on an idle line: no retransmissions either.
  EXPECT_EQ(flow.sender().stats().retransmits, 0u);
  EXPECT_EQ(dispatcher.unclaimed_packets(), 0u);
}

TEST_F(TcpFixture, FiniteFlowCompletesAndQuiesces) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  TcpParams params;
  params.limit_segments = 500;
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(), 1,
                        params);
  flow.start_at(0.0);
  EXPECT_FALSE(flow.sender().complete());
  net.events().run_all();  // must drain: a completed sender cancels its RTO
  EXPECT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().stats().delivered_segments, 500u);
  EXPECT_EQ(flow.sender().stats().segments_sent, 500u);  // clean line: no rtx
  EXPECT_TRUE(net.events().empty());
  EXPECT_LT(net.events().now(), 5.0);  // finished, not horizon-bound
}

TEST_F(TcpFixture, FiniteFlowRetransmitsTailLosses) {
  // Fail the line mid-transfer so segments (possibly the very tail of the
  // finite stream) are lost; after repair the flow must still complete
  // exactly once RTO-driven retransmission catches up.
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  TcpParams params;
  params.limit_segments = 300;
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(), 1,
                        params);
  flow.start_at(0.0);
  const auto& path = scenario.route.core_path;
  net.events().schedule_at(0.05, [&] {
    net.fail_link_now(*scenario.topology.link_between(
        scenario.topology.at(path[0]), scenario.topology.at(path[1])));
  });
  net.events().schedule_at(0.6, [&] {
    net.repair_link_now(*scenario.topology.link_between(
        scenario.topology.at(path[0]), scenario.topology.at(path[1])));
  });
  net.events().run_all();
  EXPECT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().stats().delivered_segments, 300u);
  EXPECT_GT(flow.sender().stats().retransmits, 0u);
  EXPECT_TRUE(net.events().empty());
}

TEST_F(TcpFixture, SlowStartGrowsCwndExponentially) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  TcpParams params;
  params.initial_cwnd_segments = 2;
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(), 1,
                        params);
  flow.start_at(0.0);
  // After a couple of RTTs (~4ms each) cwnd must have grown well beyond 2.
  net.events().run_until(0.05);
  EXPECT_GT(flow.sender().cwnd_segments(), 8.0);
}

TEST_F(TcpFixture, RtoRecoversFromTotalBlackout) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(), 1);
  flow.start_at(0.0);
  // Black out the middle of the line for 1.5 s; no deflection alternative
  // exists on a line, so the sender must RTO and retransmit after repair.
  const auto& mid = scenario.route.core_path[1];
  const auto& next = scenario.route.core_path[2];
  net.fail_link_at(0.5, mid, next);
  net.repair_link_at(2.0, mid, next);
  flow.stop_at(6.0);
  net.events().run_until(8.0);
  EXPECT_GT(flow.sender().stats().timeouts, 0u);
  EXPECT_GT(flow.sender().stats().retransmits, 0u);
  // Transfer resumed: bytes delivered after the repair.
  const double after = flow.receiver().goodput().mbps_between(3.0, 6.0);
  EXPECT_GT(after, 50.0);
  // Everything delivered exactly once per sequence number (cumulative
  // reassembly): delivered equals next_expected.
  EXPECT_EQ(flow.receiver().stats().delivered_segments,
            flow.receiver().next_expected());
}

TEST_F(TcpFixture, SenderStopsOfferingNewDataAfterStop) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(), 1);
  flow.start_at(0.0);
  flow.stop_at(1.0);
  net.events().run_until(1.0);
  const auto& st = flow.sender().stats();
  const auto new_data_at_stop = st.segments_sent - st.retransmits;
  net.events().run_until(3.0);
  // Retransmissions of in-flight data may continue, but no *new* data may
  // be offered after stop (a little slack for sends at exactly t=1.0).
  EXPECT_LE(st.segments_sent - st.retransmits, new_data_at_stop + 1);
}

TEST_F(TcpFixture, ReorderingTriggersSpuriousFastRetransmit) {
  // Reordering scenario: fig1 network with a failed primary link and AVP
  // deflection produces multi-path delivery and hence dup ACKs.
  Scenario fig1 = topo::make_fig1_network(topo::LinkParams{
      .rate_bps = 50e6, .delay_s = 1e-3, .queue_packets = 200});
  routing::Controller ctrl(fig1.topology);
  sim::NetworkConfig config;
  config.technique = DeflectionTechnique::kAnyValidPort;
  sim::Network net(fig1.topology, ctrl, config);
  FlowDispatcher dispatcher(net);
  const auto fwd = ctrl.encode_scenario(fig1.route, ProtectionLevel::kPartial);
  const auto rev = *ctrl.route_between(fig1.topology.at("D"), fig1.topology.at("S"));
  BulkTransferFlow flow(net, dispatcher, fwd, rev, 1);
  flow.start_at(0.0);
  net.fail_link_at(1.0, "SW7", "SW11");
  flow.stop_at(4.0);
  net.events().run_until(6.0);
  // AVP at SW7 sprays between SW4 and SW5 -> reordering at the receiver.
  EXPECT_GT(flow.receiver().stats().out_of_order_segments, 0u);
  EXPECT_GT(flow.sender().stats().fast_retransmits, 0u);
  EXPECT_GT(flow.sender().stats().dup_acks_received, 0u);
  // But connectivity held: goodput during the failure window is nonzero.
  EXPECT_GT(flow.receiver().goodput().mbps_between(1.5, 4.0), 1.0);
}

TEST_F(TcpFixture, MirroredRouteValidationRejectsBadPairs) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  EXPECT_THROW(BulkTransferFlow(net, dispatcher, forward_route(),
                                forward_route(), 1),
               std::invalid_argument);
}

TEST_F(TcpFixture, DispatcherRejectsDuplicateEndpoints) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  dispatcher.register_endpoint(scenario.topology.at("DST"), 7,
                               [](const dataplane::Packet&) {});
  EXPECT_THROW(dispatcher.register_endpoint(scenario.topology.at("DST"), 7,
                                            [](const dataplane::Packet&) {}),
               std::invalid_argument);
  EXPECT_THROW(dispatcher.register_endpoint(scenario.topology.at("DST"), 8,
                                            nullptr),
               std::invalid_argument);
}

TEST_F(TcpFixture, TwoConcurrentFlowsShareTheBottleneckFairly) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  BulkTransferFlow flow_a(net, dispatcher, forward_route(), reverse_route(), 1);
  BulkTransferFlow flow_b(net, dispatcher, forward_route(), reverse_route(), 2);
  flow_a.start_at(0.0);
  flow_b.start_at(0.0);
  flow_a.stop_at(8.0);
  flow_b.stop_at(8.0);
  net.events().run_until(10.0);
  const double a = flow_a.goodput_mbps(2.0, 8.0);
  const double b = flow_b.goodput_mbps(2.0, 8.0);
  EXPECT_GT(a + b, 70.0);   // jointly fill the pipe
  EXPECT_LT(a + b, 100.0);  // cannot exceed it
  // Rough fairness between identical Reno flows.
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.35);
}

TEST_F(TcpFixture, CbrProbeCountsLossDuringOutage) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  CbrProbe probe(net, dispatcher, forward_route(), /*flow_id=*/9,
                 /*interval_s=*/0.01, /*payload_bytes=*/100);
  probe.start_at(0.0);
  const auto& mid = scenario.route.core_path[1];
  const auto& next = scenario.route.core_path[2];
  net.fail_link_at(1.0, mid, next);
  net.repair_link_at(2.0, mid, next);
  probe.stop_at(3.0);
  net.events().run_until(4.0);
  EXPECT_EQ(probe.sent(), 300u);
  // Roughly one second of probes lost (no deflection path on a line).
  EXPECT_LT(probe.received(), 220u);
  EXPECT_GT(probe.received(), 180u);
}

// Karn's rule: no RTT sample from a segment that was retransmitted. The
// sender is driven by hand-made ACKs (data reaching DST has no receiver).
TEST_F(TcpFixture, KarnNoRttSampleFromRetransmittedSegmentAfterRto) {
  sim::Network net(scenario.topology, controller, {});
  const routing::EncodedRoute route = forward_route();
  TcpSender sender(net, route, /*flow_id=*/1);
  sender.start();               // segments 0..9 sent at t = 0
  net.events().run_until(1.5);  // the initial 1 s RTO fires; seq 0 resent
  ASSERT_EQ(sender.stats().timeouts, 1u);
  dataplane::TcpSegment ack;
  ack.ack = 1;
  sender.on_ack(ack);
  // Either transmission could be the one acknowledged: no sample at all.
  EXPECT_DOUBLE_EQ(sender.srtt_s(), 0.0);
}

TEST_F(TcpFixture, KarnSkipsFastRetransmittedSegmentsButSamplesTheRest) {
  sim::Network net(scenario.topology, controller, {});
  const routing::EncodedRoute route = forward_route();
  TcpSender sender(net, route, /*flow_id=*/1);
  sender.start();  // segments 0..9 sent at t = 0
  net.events().run_until(0.2);
  // Three SACKs above a hole at 0: fast retransmit of 0 (and of the
  // un-SACKed segments 4..9 as the recovery window fills).
  for (const std::uint64_t end : {2ULL, 3ULL, 4ULL}) {
    dataplane::TcpSegment dup;
    dup.ack = 0;
    dup.sack.push_back(dataplane::SackBlock{1, end});
    sender.on_ack(dup);
  }
  ASSERT_TRUE(sender.in_fast_recovery());
  dataplane::TcpSegment ack;
  ack.ack = 1;  // covers only the retransmitted segment 0
  sender.on_ack(ack);
  EXPECT_DOUBLE_EQ(sender.srtt_s(), 0.0);
  ack.ack = 5;  // 1..3 were sent once at t = 0; 4 was retransmitted
  sender.on_ack(ack);
  EXPECT_DOUBLE_EQ(sender.srtt_s(), 0.2);
}

// The RTO is one re-armable queue timer: restarting it on every ACK moves
// its one entry instead of leaving the superseded deadline queued, so the
// queue holds one event per packet on the wire plus a few flow-level ones.
TEST_F(TcpFixture, QueueHoldsOnlyLiveEventsOverALongBulkTransfer) {
  sim::Network net(scenario.topology, controller, {});
  FlowDispatcher dispatcher(net);
  TcpParams params;
  params.receiver_window_segments = 128;
  BulkTransferFlow flow(net, dispatcher, forward_route(), reverse_route(),
                        /*flow_id=*/1, params);
  flow.start_at(0.0);
  flow.stop_at(10.0);
  // Flow-level entries: the stop event and the RTO timer.
  constexpr std::size_t kFlowEntries = 2;
  std::size_t max_pending = 0;
  for (double t = 0.005; t < 10.0; t += 0.005) {
    net.events().run_until(t);
    max_pending = std::max(max_pending, net.events().pending());
    ASSERT_LE(net.events().pending(), net.packets_in_flight() + kFlowEntries)
        << "at t = " << t;
  }
  EXPECT_GT(flow.receiver().stats().delivered_segments, 50000u);
  EXPECT_GT(max_pending, 100u);  // the pipe was genuinely full
}

// A sender destroyed while its RTO is armed must never be called back
// (the sanitizer presets turn a stale callback into a use-after-free).
TEST_F(TcpFixture, DestroyedSenderIsNeverCalledByItsQueuedTimer) {
  sim::Network net(scenario.topology, controller, {});
  const routing::EncodedRoute route = forward_route();
  auto sender = std::make_unique<TcpSender>(net, route, /*flow_id=*/1);
  sender->start();  // segments 0..9 out at t = 0, RTO armed for t = 1
  net.events().run_until(0.5);
  ASSERT_EQ(sender->stats().timeouts, 0u);
  sender.reset();
  EXPECT_TRUE(net.events().empty());  // the segments arrived; no timer left
  net.events().run_all();
  // The released timer id serves the next sender, whose RTO does fire.
  TcpSender next(net, route, /*flow_id=*/2);
  next.start();
  net.events().run_until(net.now() + 1.5);
  EXPECT_EQ(next.stats().timeouts, 1u);
}

}  // namespace
}  // namespace kar::transport
