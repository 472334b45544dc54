// Reno/NewReno TCP with SACK and adaptive reordering detection, over the
// simulated KAR network.
//
// This is the measurement substrate that replaces iperf in the paper's
// evaluation. The mechanism that makes the paper's numbers move is TCP's
// sensitivity to *packet reordering*: deflected packets take longer paths,
// arrive out of order, trigger duplicate ACKs, and duplicate ACKs beyond
// the threshold trigger (spurious) fast retransmits and congestion-window
// reductions.
//
// Two operating points are supported, bracketing the paper's stack:
//   * plain NewReno (enable_sack = false): maximally reorder-sensitive;
//   * SACK + adaptive reordering (default): the receiver reports
//     out-of-order blocks (RFC 2018) and the sender, on discovering that a
//     presumed-lost segment was merely late, raises its duplicate-ACK
//     threshold like Linux's tcp_reordering metric — which is what let the
//     paper's emulated kernel stack hold ~75% of nominal throughput under
//     persistent deflection-induced reordering.
//
// Simplifications (documented, deliberate):
//   * sequence space counts MSS-sized segments, not bytes;
//   * no SYN/FIN handshake — flows are long-lived bulk transfers;
//   * every data segment is ACKed immediately (no delayed ACK);
//   * RTO per RFC 6298 with go-back-N retransmission after timeout.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/encoded_route.hpp"
#include "sim/network.hpp"
#include "stats/timeseries.hpp"

namespace kar::transport {

/// Optional observability sinks for a TCP sender (src/obs/). Both are
/// nullable; with neither attached the hot path pays a single branch.
/// Counters land in `metrics` (kar_tcp_* families, tagged with `labels`);
/// retransmit/RTO instants and cwnd counter samples land in `trace`.
struct TcpObservability {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::Labels labels;  ///< Constant labels, e.g. {{"flow", "1"}}.
};

/// Connection tuning knobs.
struct TcpParams {
  std::size_t mss_bytes = 1460;        ///< Payload bytes per data segment.
  double initial_rto_s = 1.0;          ///< RFC 6298 initial RTO.
  double min_rto_s = 0.2;              ///< Lower clamp (Linux-like).
  double max_rto_s = 60.0;
  std::uint64_t initial_cwnd_segments = 10;
  std::uint64_t receiver_window_segments = 512;
  std::uint32_t dupack_threshold = 3;  ///< Base duplicate-ACK threshold.
  bool enable_sack = true;             ///< RFC 2018 selective ACKs.
  /// Raise the effective dupack threshold when SACK reveals that a
  /// presumed-lost segment actually arrived late (Linux tcp_reordering).
  bool adaptive_reordering = true;
  std::uint32_t max_reordering = 300;  ///< Cap on the adapted threshold.
  /// Total data segments the flow offers; 0 = unbounded bulk transfer.
  /// Finite flows (the traffic engine's sized transfers) stop offering new
  /// data at this sequence; in-flight data is still retransmitted and the
  /// sender quiesces once everything is cumulatively ACKed.
  std::uint64_t limit_segments = 0;
  /// Multiplicative RTO timer jitter: each armed timer fires after
  /// rto * (1 + U[-jitter/2, +jitter/2]), drawn from a per-flow
  /// deterministic stream. Real stacks carry this kind of clock noise;
  /// without it a synchronized burst of flows phase-locks — every flow
  /// times out, collides, and re-doubles its RTO in lockstep forever
  /// (classic retry self-synchronization). 0 disables (legacy behavior,
  /// bit-exact).
  double rto_jitter = 0.0;
};

/// Sender-side counters for assertions and reporting.
struct TcpSenderStats {
  std::uint64_t segments_sent = 0;        ///< Data segments put on the wire.
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmits = 0;          ///< All retransmitted segments.
  std::uint64_t fast_retransmits = 0;     ///< Fast-retransmit entries.
  std::uint64_t timeouts = 0;             ///< RTO expirations.
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks_received = 0;
  std::uint64_t sacked_segments = 0;      ///< Scoreboard insertions.
  std::uint64_t reorder_events = 0;       ///< Detected late (not lost) segments.
  std::uint64_t max_reorder_distance = 0; ///< Largest observed displacement.
};

/// Bulk-data Reno/NewReno(+SACK) sender. Created stopped; call start().
class TcpSender {
 public:
  /// Sends along `data_route` (stamped via the network's ingress edge).
  /// The network and route must outlive the sender.
  TcpSender(sim::Network& network, const routing::EncodedRoute& data_route,
            std::uint64_t flow_id, TcpParams params = {});
  ~TcpSender();

  /// The RTO timer's handler refers to this object.
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begins (unbounded) bulk transmission at the current simulation time.
  void start();
  /// Stops offering new data (in-flight data still gets retransmitted).
  void stop();

  /// Feeds an arriving (pure) ACK to the sender. Wired up by BulkTransferFlow.
  void on_ack(const dataplane::TcpSegment& segment);

  /// Attaches observability sinks (idempotent; call before start()).
  void set_observability(const TcpObservability& sinks);

  [[nodiscard]] const TcpSenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double cwnd_segments() const noexcept { return cwnd_; }
  [[nodiscard]] double ssthresh_segments() const noexcept { return ssthresh_; }
  [[nodiscard]] double srtt_s() const noexcept { return srtt_; }
  [[nodiscard]] std::uint64_t flow_id() const noexcept { return flow_id_; }
  [[nodiscard]] bool in_fast_recovery() const noexcept { return in_recovery_; }
  /// True for finite flows (limit_segments != 0) once every offered
  /// segment has been cumulatively ACKed.
  [[nodiscard]] bool complete() const noexcept {
    return params_.limit_segments != 0 && snd_una_ >= params_.limit_segments;
  }
  /// Simulation time at which complete() became true; negative before.
  [[nodiscard]] double completion_time_s() const noexcept {
    return completed_at_s_;
  }
  /// Effective duplicate-ACK threshold after reordering adaptation.
  [[nodiscard]] std::uint32_t dupack_threshold() const noexcept {
    return dupthresh_;
  }

 private:
  void maybe_send();
  void send_segment(std::uint64_t seq, bool is_retransmit);
  void enter_fast_retransmit();
  /// SACK recovery (RFC 6675 pipe-style): fills the window with hole
  /// retransmissions first, then new data, based on an in-flight estimate.
  void recovery_send();
  /// First un-SACKed, un-retransmitted segment in [snd_una_, recover_).
  [[nodiscard]] std::optional<std::uint64_t> next_hole() const;
  void on_new_ack(std::uint64_t ack, std::uint64_t prev_highest_sacked);
  /// Merges SACK blocks into the scoreboard; returns true when new
  /// information arrived.
  bool merge_sack(const dataplane::SackList& blocks,
                  std::uint64_t prev_highest_sacked);
  void note_reordering(std::uint64_t distance);
  /// True when the loss-detection rule fires for snd_una_.
  [[nodiscard]] bool first_hole_lost() const;
  void restart_rto();
  void cancel_rto();
  void on_rto();
  void sample_rtt(std::uint64_t acked_up_to);
  /// Records a kTcp instant named `what` plus a cwnd counter sample.
  void trace_tcp(const char* what);

  sim::Network* net_;
  const routing::EncodedRoute* route_;
  std::uint64_t flow_id_;
  TcpParams params_;

  bool running_ = false;
  std::uint64_t snd_una_ = 0;   ///< Oldest unacknowledged segment.
  std::uint64_t snd_nxt_ = 0;   ///< Next segment index to transmit.
  std::uint64_t highest_sent_ = 0;  ///< One past the highest segment ever sent.
  double cwnd_ = 0;             ///< Congestion window (segments, fractional).
  double ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;
  std::uint32_t dupthresh_ = 3;  ///< Adapted duplicate-ACK threshold.
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;   ///< NewReno recovery point.
  double completed_at_s_ = -1.0;

  /// SACK scoreboard: segments above snd_una_ known to have arrived.
  std::set<std::uint64_t> scoreboard_;
  /// Segments retransmitted and not yet cumulatively ACKed (Karn + used to
  /// distinguish genuine reordering from retransmission arrivals).
  std::set<std::uint64_t> retransmitted_;

  // RFC 6298 state.
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double rto_ = 1.0;
  bool have_rtt_ = false;
  /// Set by restart_rto(), cleared by cancel_rto() only: a firing RTO
  /// stays "armed" through on_rto(), which re-arms it at its end.
  bool rto_armed_ = false;
  sim::EventQueue::TimerId rto_timer_ = 0;
  common::Rng jitter_rng_;  ///< Per-flow RTO jitter stream (rto_jitter > 0).

  /// Send timestamps of unretransmitted segments (Karn's rule), oldest
  /// first. New data always goes out above every earlier send, so pushing
  /// at the back keeps the queue ordered by seq. A retransmission turns
  /// its segment's entry into a tombstone (time < 0); sample_rtt pops the
  /// acked prefix. The live part is [send_head_, end); the consumed prefix
  /// is compacted away in place, so the steady state never allocates.
  struct SendStamp {
    std::uint64_t seq;
    double time;
  };
  std::vector<SendStamp> send_time_;
  std::size_t send_head_ = 0;

  // Observability (all inert until set_observability).
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter m_retransmits_;
  obs::Counter m_fast_retransmits_;
  obs::Counter m_timeouts_;
  obs::Counter m_reorder_events_;
  obs::Histogram m_rtt_;

  TcpSenderStats stats_;
};

/// Receiver-side counters.
struct TcpReceiverStats {
  std::uint64_t segments_received = 0;      ///< All data arrivals (incl. dups).
  std::uint64_t duplicate_segments = 0;     ///< Below the cumulative ACK.
  std::uint64_t out_of_order_segments = 0;  ///< Arrived above the expected seq.
  std::uint64_t acks_sent = 0;
  std::uint64_t delivered_segments = 0;     ///< In-order goodput, segments.
  std::uint64_t delivered_bytes = 0;        ///< In-order goodput, payload bytes.
};

/// TCP receiver: cumulative ACK + out-of-order reassembly buffer + SACK
/// block generation. Delivers in-order payload into a time-binned goodput
/// series.
class TcpReceiver {
 public:
  /// ACKs travel along `ack_route` (destination edge back to the source).
  TcpReceiver(sim::Network& network, const routing::EncodedRoute& ack_route,
              std::uint64_t flow_id, TcpParams params = {},
              double goodput_bin_s = 1.0);

  /// Feeds an arriving data segment. Wired up by BulkTransferFlow.
  void on_data(const dataplane::TcpSegment& segment);

  [[nodiscard]] const TcpReceiverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const stats::BinnedSeries& goodput() const noexcept {
    return goodput_;
  }
  [[nodiscard]] std::uint64_t next_expected() const noexcept { return next_expected_; }

  /// The SACK blocks that would accompany an ACK right now (exposed for
  /// tests); first block contains `latest_seq` when it is buffered.
  [[nodiscard]] dataplane::SackList sack_blocks(std::uint64_t latest_seq) const;

 private:
  void send_ack(std::uint64_t latest_seq);

  sim::Network* net_;
  const routing::EncodedRoute* route_;
  std::uint64_t flow_id_;
  TcpParams params_;
  std::uint64_t next_expected_ = 0;
  /// Out-of-order segments received (sparse, above next_expected_).
  std::map<std::uint64_t, std::uint32_t> ooo_;  // seq -> payload bytes
  stats::BinnedSeries goodput_;
  TcpReceiverStats stats_;
};

}  // namespace kar::transport
