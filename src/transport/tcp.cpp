#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace kar::transport {

using dataplane::Packet;
using dataplane::SackBlock;
using dataplane::SackList;
using dataplane::TcpSegment;

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(sim::Network& network, const routing::EncodedRoute& data_route,
                     std::uint64_t flow_id, TcpParams params)
    : net_(&network),
      route_(&data_route),
      flow_id_(flow_id),
      params_(params),
      cwnd_(static_cast<double>(params.initial_cwnd_segments)),
      ssthresh_(static_cast<double>(params.receiver_window_segments)),
      dupthresh_(params.dupack_threshold),
      rto_(params.initial_rto_s),
      jitter_rng_(common::derive_seed(flow_id, /*salt=*/0x52544f)) {
  rto_timer_ = net_->events().add_timer(sim::EventKind::kTransportTimer,
                                        [this] { on_rto(); });
}

TcpSender::~TcpSender() { net_->events().remove_timer(rto_timer_); }

void TcpSender::set_observability(const TcpObservability& sinks) {
  trace_ = sinks.trace;
  if (sinks.metrics != nullptr) {
    obs::MetricsRegistry& reg = *sinks.metrics;
    m_retransmits_ = reg.counter("kar_tcp_retransmits_total",
                                 "Retransmitted TCP segments", sinks.labels);
    m_fast_retransmits_ =
        reg.counter("kar_tcp_fast_retransmits_total",
                    "Fast-retransmit (dupack/SACK loss) entries", sinks.labels);
    m_timeouts_ = reg.counter("kar_tcp_timeouts_total", "RTO expirations",
                              sinks.labels);
    m_reorder_events_ = reg.counter(
        "kar_tcp_reorder_events_total",
        "Segments detected late (reordered), not lost", sinks.labels);
    m_rtt_ = reg.histogram(
        "kar_tcp_rtt_seconds", "Smoothed per-ACK RTT samples",
        {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0},
        sinks.labels);
  }
}

void TcpSender::trace_tcp(const char* what) {
  if (trace_ == nullptr) return;
  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  obs::TraceRecord instant;
  instant.cat = obs::TraceCategory::kTcp;
  instant.name = what;
  instant.ts_s = net_->now();
  instant.id = flow_id_;
  instant.args = {{"cwnd", fmt(cwnd_)},
                  {"ssthresh", fmt(ssthresh_)},
                  {"snd_una", std::to_string(snd_una_)},
                  {"dupthresh", std::to_string(dupthresh_)}};
  trace_->record(instant);
  // Counter sample so Perfetto/chrome://tracing draw cwnd as a track.
  obs::TraceRecord counter;
  counter.cat = obs::TraceCategory::kTcp;
  counter.name = "tcp cwnd flow " + std::to_string(flow_id_);
  counter.ts_s = net_->now();
  counter.counter = true;
  counter.id = flow_id_;
  counter.args = {{"cwnd", fmt(cwnd_)}, {"ssthresh", fmt(ssthresh_)}};
  trace_->record(counter);
}

void TcpSender::start() {
  running_ = true;
  maybe_send();
}

void TcpSender::stop() { running_ = false; }

void TcpSender::send_segment(std::uint64_t seq, bool is_retransmit) {
  if (seq >= highest_sent_) highest_sent_ = seq + 1;
  Packet packet;
  TcpSegment segment;
  segment.seq = seq;
  segment.has_data = true;
  segment.payload_bytes = static_cast<std::uint32_t>(params_.mss_bytes);
  packet.transport = segment;
  packet.flow_id = flow_id_;
  net_->edge_at(route_->src_edge).stamp(packet, *route_, params_.mss_bytes);
  net_->inject(route_->src_edge, std::move(packet));

  ++stats_.segments_sent;
  stats_.bytes_sent += params_.mss_bytes;
  if (is_retransmit) {
    ++stats_.retransmits;
    m_retransmits_.inc();
    // Karn: never sample RTT from retransmits — tombstone the stamp.
    const auto it = std::lower_bound(
        send_time_.begin() + static_cast<std::ptrdiff_t>(send_head_),
        send_time_.end(), seq,
        [](const SendStamp& stamp, std::uint64_t s) { return stamp.seq < s; });
    if (it != send_time_.end() && it->seq == seq) it->time = -1.0;
    retransmitted_.insert(seq);
  } else {
    send_time_.push_back(SendStamp{seq, net_->now()});
  }
  if (!rto_armed_) restart_rto();
}

void TcpSender::maybe_send() {
  if (!running_) return;
  const auto window = static_cast<std::uint64_t>(std::min(
      cwnd_, static_cast<double>(params_.receiver_window_segments)));
  while (snd_nxt_ < snd_una_ + window) {
    if (params_.limit_segments != 0 && snd_nxt_ >= params_.limit_segments) {
      break;  // finite flow: all offered data is sent (or in flight)
    }
    if (params_.enable_sack && snd_nxt_ < highest_sent_ &&
        scoreboard_.contains(snd_nxt_)) {
      // Go-back-N resend after an RTO: the receiver already holds this
      // segment (SACKed); skip it.
      ++snd_nxt_;
      continue;
    }
    // After an RTO snd_nxt_ is pulled back to snd_una_ (go-back-N), so
    // sends below highest_sent_ are retransmissions of the lost window.
    send_segment(snd_nxt_, /*is_retransmit=*/snd_nxt_ < highest_sent_);
    ++snd_nxt_;
  }
}

void TcpSender::restart_rto() {
  rto_armed_ = true;
  double delay = rto_;
  if (params_.rto_jitter > 0.0) {
    delay *= 1.0 + params_.rto_jitter * (jitter_rng_.uniform() - 0.5);
  }
  net_->events().arm_timer_at(rto_timer_, net_->now() + delay);
}

void TcpSender::cancel_rto() {
  rto_armed_ = false;
  net_->events().disarm_timer(rto_timer_);
}

void TcpSender::on_rto() {
  // RFC 6298 §5: collapse to one segment, back off the timer, retransmit
  // the oldest outstanding segment, and restart slow start.
  ++stats_.timeouts;
  m_timeouts_.inc();
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  trace_tcp("rto");
  rto_ = std::min(rto_ * 2.0, params_.max_rto_s);
  send_time_.clear();  // Karn: outstanding samples are invalid now
  send_head_ = 0;
  if (snd_una_ < highest_sent_) {
    // Go-back-N: everything outstanding is presumed lost; pull snd_nxt_
    // back so the window is retransmitted as the ACK clock restarts
    // (SACKed segments are skipped in maybe_send).
    snd_nxt_ = snd_una_;
    send_segment(snd_nxt_, /*is_retransmit=*/true);
    ++snd_nxt_;
  }
  restart_rto();
}

void TcpSender::sample_rtt(std::uint64_t acked_up_to) {
  // Sample from every segment below the cumulative ACK that still has a
  // valid (non-retransmitted) timestamp, taking the largest; pop them all.
  double sample = -1.0;
  while (send_head_ < send_time_.size() &&
         send_time_[send_head_].seq < acked_up_to) {
    const SendStamp& stamp = send_time_[send_head_++];
    if (stamp.time >= 0.0) sample = std::max(sample, net_->now() - stamp.time);
  }
  if (send_head_ == send_time_.size()) {
    send_time_.clear();
    send_head_ = 0;
  } else if (2 * send_head_ >= send_time_.size()) {
    send_time_.erase(send_time_.begin(),
                     send_time_.begin() + static_cast<std::ptrdiff_t>(send_head_));
    send_head_ = 0;
  }
  if (sample < 0.0) return;
  m_rtt_.observe(sample);
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    have_rtt_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, params_.min_rto_s, params_.max_rto_s);
}

void TcpSender::note_reordering(std::uint64_t distance) {
  ++stats_.reorder_events;
  m_reorder_events_.inc();
  stats_.max_reorder_distance = std::max(stats_.max_reorder_distance, distance);
  if (!params_.adaptive_reordering) return;
  // Linux tcp_reordering: the dupack threshold follows the largest
  // displacement ever observed (a late packet that far back was not lost).
  const auto candidate = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(distance + 1, params_.max_reordering));
  dupthresh_ = std::max(dupthresh_, std::max(candidate, params_.dupack_threshold));
}

bool TcpSender::merge_sack(const SackList& blocks,
                           std::uint64_t prev_highest_sacked) {
  bool news = false;
  for (const SackBlock& block : blocks) {
    const std::uint64_t begin = std::max(block.begin, snd_una_);
    const std::uint64_t end = std::min(block.end, snd_nxt_);
    for (std::uint64_t seq = begin; seq < end; ++seq) {
      if (scoreboard_.insert(seq).second) {
        news = true;
        ++stats_.sacked_segments;
        // A never-retransmitted segment SACKed *below* already-SACKed data
        // arrived late, not lost: that is reordering, not loss.
        if (seq < prev_highest_sacked && !retransmitted_.contains(seq)) {
          note_reordering(prev_highest_sacked - seq);
        }
      }
    }
  }
  return news;
}

bool TcpSender::first_hole_lost() const {
  if (params_.enable_sack) {
    // RFC 6675-style: enough SACKed segments above the hole.
    return scoreboard_.size() >= dupthresh_;
  }
  return dup_acks_ >= dupthresh_;
}

std::optional<std::uint64_t> TcpSender::next_hole() const {
  const std::uint64_t limit = std::min(recover_, snd_nxt_);
  for (std::uint64_t seq = snd_una_; seq < limit; ++seq) {
    if (!scoreboard_.contains(seq) && !retransmitted_.contains(seq)) {
      return seq;
    }
  }
  return std::nullopt;
}

void TcpSender::recovery_send() {
  // RFC 6675-style pipe accounting: segments lost before recovery started
  // (un-SACKed, un-retransmitted holes below recover_) are NOT in flight;
  // retransmissions and post-entry new data are.
  const auto window = static_cast<std::uint64_t>(std::min(
      cwnd_, static_cast<double>(params_.receiver_window_segments)));
  const std::uint64_t new_base = std::max(recover_, snd_una_);
  const auto sacked_above_recover = static_cast<std::uint64_t>(
      std::distance(scoreboard_.lower_bound(new_base), scoreboard_.end()));
  const std::uint64_t new_data_out =
      (snd_nxt_ > new_base ? snd_nxt_ - new_base : 0) - sacked_above_recover;
  std::uint64_t in_flight = retransmitted_.size() + new_data_out;
  while (in_flight < window) {
    if (const auto hole = next_hole()) {
      send_segment(*hole, /*is_retransmit=*/true);
    } else if (running_ && (params_.limit_segments == 0 ||
                            snd_nxt_ < params_.limit_segments)) {
      send_segment(snd_nxt_, /*is_retransmit=*/snd_nxt_ < highest_sent_);
      ++snd_nxt_;
    } else {
      break;
    }
    ++in_flight;
  }
}

void TcpSender::enter_fast_retransmit() {
  // RFC 5681 fast retransmit + NewReno/SACK recovery entry.
  ++stats_.fast_retransmits;
  m_fast_retransmits_.inc();
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = ssthresh_ + static_cast<double>(params_.dupack_threshold);
  in_recovery_ = true;
  recover_ = snd_nxt_;
  trace_tcp("fast-retransmit");
  send_segment(snd_una_, /*is_retransmit=*/true);
  if (params_.enable_sack) recovery_send();
  restart_rto();
}

void TcpSender::on_new_ack(std::uint64_t ack, std::uint64_t prev_highest_sacked) {
  const std::uint64_t newly_acked = ack - snd_una_;
  // Reordering detection on cumulative advance: a segment that was never
  // retransmitted, never SACKed, and is below already-SACKed data arrived
  // late through the network.
  if (prev_highest_sacked > 0) {
    for (std::uint64_t seq = snd_una_; seq < ack; ++seq) {
      if (seq < prev_highest_sacked && !retransmitted_.contains(seq) &&
          !scoreboard_.contains(seq)) {
        note_reordering(prev_highest_sacked - seq);
      }
    }
  }
  sample_rtt(ack);
  // Scoreboard bookkeeping: everything below the cumulative ACK is done.
  scoreboard_.erase(scoreboard_.begin(), scoreboard_.lower_bound(ack));
  retransmitted_.erase(retransmitted_.begin(), retransmitted_.lower_bound(ack));

  if (in_recovery_) {
    if (ack >= recover_) {
      // Full ACK: leave recovery (NewReno).
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      dup_acks_ = 0;
    } else {
      // Partial ACK: more holes remain below the recovery point.
      snd_una_ = ack;
      if (params_.enable_sack) {
        // Pipe-based repair: refill the window with hole retransmissions.
        recovery_send();
      } else {
        // Plain NewReno: one retransmission per partial ACK, deflated cwnd.
        send_segment(snd_una_, /*is_retransmit=*/true);
        cwnd_ = std::max(cwnd_ - static_cast<double>(newly_acked) + 1.0, 1.0);
        maybe_send();
      }
      restart_rto();
      return;
    }
  } else {
    dup_acks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked);  // slow start
    } else {
      cwnd_ += static_cast<double>(newly_acked) / cwnd_;  // congestion avoidance
    }
  }
  snd_una_ = ack;
  if (completed_at_s_ < 0.0 && complete()) completed_at_s_ = net_->now();
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  if (snd_una_ == snd_nxt_ && snd_una_ == highest_sent_) {
    cancel_rto();
  } else {
    restart_rto();
  }
  maybe_send();
}

void TcpSender::on_ack(const TcpSegment& segment) {
  ++stats_.acks_received;
  const std::uint64_t ack = segment.ack;
  if (ack < snd_una_) return;  // stale (reordered on the reverse path)

  const std::uint64_t prev_highest_sacked =
      scoreboard_.empty() ? 0 : *scoreboard_.rbegin() + 1;
  bool sack_news = false;
  if (params_.enable_sack && !segment.sack.empty()) {
    sack_news = merge_sack(segment.sack, prev_highest_sacked);
  }

  if (ack > snd_una_) {
    on_new_ack(ack, prev_highest_sacked);
    return;
  }
  if (snd_nxt_ == snd_una_) return;  // nothing outstanding

  ++stats_.dup_acks_received;
  ++dup_acks_;
  if (in_recovery_) {
    if (params_.enable_sack) {
      recovery_send();  // pipe shrank by one delivered segment
    } else {
      cwnd_ += 1.0;  // NewReno window inflation per extra dup ACK
      maybe_send();
    }
    return;
  }
  // Loss detection: SACK scoreboard occupancy or raw dupack count.
  if ((params_.enable_sack && (sack_news || !segment.sack.empty()) &&
       first_hole_lost()) ||
      (!params_.enable_sack && first_hole_lost())) {
    enter_fast_retransmit();
  }
  maybe_send();
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Network& network,
                         const routing::EncodedRoute& ack_route,
                         std::uint64_t flow_id, TcpParams params,
                         double goodput_bin_s)
    : net_(&network),
      route_(&ack_route),
      flow_id_(flow_id),
      params_(params),
      goodput_(goodput_bin_s) {}

SackList TcpReceiver::sack_blocks(std::uint64_t latest_seq) const {
  SackList blocks;
  if (!params_.enable_sack || ooo_.empty()) return blocks;
  // RFC 2018: the block containing the most recent arrival comes first.
  // Blocks are contiguous runs of the reassembly buffer.
  std::optional<SackBlock> latest;
  if (const auto it = ooo_.find(latest_seq); it != ooo_.end()) {
    SackBlock block{latest_seq, latest_seq + 1};
    for (auto lo = it; lo != ooo_.begin() &&
                       std::prev(lo)->first + 1 == block.begin;) {
      --lo;
      block.begin = lo->first;
    }
    for (auto hi = std::next(it); hi != ooo_.end() && hi->first == block.end;
         ++hi) {
      ++block.end;
    }
    latest = block;
    blocks.push_back(block);
  }
  // Then the highest remaining runs (newest data), up to 3 blocks in all.
  for (auto it = ooo_.rbegin();
       it != ooo_.rend() && blocks.size() < SackList::kMaxBlocks;) {
    SackBlock block{it->first, it->first + 1};
    for (++it; it != ooo_.rend() && it->first + 1 == block.begin; ++it) {
      block.begin = it->first;
    }
    if (!latest || latest->begin != block.begin) blocks.push_back(block);
  }
  return blocks;
}

void TcpReceiver::send_ack(std::uint64_t latest_seq) {
  Packet packet;
  TcpSegment segment;
  segment.ack = next_expected_;
  segment.has_data = false;
  segment.sack = sack_blocks(latest_seq);
  const std::size_t sack_option_bytes =
      segment.sack.empty() ? 0 : 2 + 8 * segment.sack.size();
  packet.transport = segment;
  packet.flow_id = flow_id_;
  net_->edge_at(route_->src_edge).stamp(packet, *route_, /*payload_bytes=*/0);
  packet.size_bytes += sack_option_bytes;
  net_->inject(route_->src_edge, std::move(packet));
  ++stats_.acks_sent;
}

void TcpReceiver::on_data(const TcpSegment& segment) {
  ++stats_.segments_received;
  const std::uint64_t seq = segment.seq;
  if (seq < next_expected_) {
    ++stats_.duplicate_segments;
  } else if (seq == next_expected_) {
    ++next_expected_;
    stats_.delivered_segments += 1;
    stats_.delivered_bytes += segment.payload_bytes;
    goodput_.add(net_->now(), static_cast<double>(segment.payload_bytes));
    // Drain any contiguous run from the reassembly buffer.
    auto it = ooo_.find(next_expected_);
    while (it != ooo_.end()) {
      stats_.delivered_segments += 1;
      stats_.delivered_bytes += it->second;
      goodput_.add(net_->now(), static_cast<double>(it->second));
      ooo_.erase(it);
      ++next_expected_;
      it = ooo_.find(next_expected_);
    }
  } else {
    ++stats_.out_of_order_segments;
    ooo_.emplace(seq, segment.payload_bytes);  // duplicate OOO arrivals collapse
  }
  // Immediate cumulative ACK on every arrival (dup ACKs included).
  send_ack(seq);
}

}  // namespace kar::transport
