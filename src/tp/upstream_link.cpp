#include "tp/upstream_link.hpp"

#include <unistd.h>

#include <algorithm>

#include "common/time_util.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::tp {

UpstreamLink::UpstreamLink(const LinkConfig& config, clk::Clock& clock, FrameSink sink)
    : config_(config),
      clock_(clock),
      sink_(std::move(sink)),
      replay_(config.replay_batches, config.replay_bytes) {}

Status UpstreamLink::send_hello() {
  if (config_.replay_batches > 0) awaiting_ack_ = true;
  ByteBuffer out;
  xdr::Encoder enc(out);
  put_type(MsgType::hello, enc);
  encode_hello({config_.node, kProtocolVersion, config_.incarnation, config_.capabilities},
               enc);
  return sink_(std::move(out));
}

Status UpstreamLink::send_heartbeat() {
  ByteBuffer out;
  xdr::Encoder enc(out);
  put_type(MsgType::heartbeat, enc);
  ++heartbeats_sent_;
  return sink_(std::move(out));
}

Status UpstreamLink::ship_batch(ByteBuffer payload) {
  if (config_.replay_batches > 0) {
    Status st = replay_.retain(payload.view());
    if (!st) return st;
    if (credit_active_) {
      // Paced mode: every send goes through the window gate, in sequence
      // order. A batch the window cannot take right now simply waits in the
      // replay buffer — the next replenishing grant pumps it out.
      const std::uint32_t seq = replay_.entries().back().batch_seq;
      st = pump_sends();
      if (!st) return st;
      if (link_ready_ && !awaiting_ack_ && next_unsent_seq_ <= seq) ++paced_batches_;
      return Status::ok();
    }
    // Link down or session not yet acknowledged: the batch stays in the
    // replay buffer and goes out — in sequence order — on the next
    // HELLO_ACK. Sending it now would let a fresh batch overtake older
    // unacked ones and the peer would discard the replays as duplicates.
    if (!link_ready_ || awaiting_ack_) return Status::ok();
    if (!replay_.empty()) {
      const ReplayBuffer::Entry& newest = replay_.entries().back();
      next_unsent_seq_ = newest.batch_seq + 1;
      if (send_high_water_ < next_unsent_seq_) send_high_water_ = next_unsent_seq_;
    }
  } else if (!link_ready_) {
    return Status::ok();  // replay disabled: the batch is simply lost
  }
  return sink_(std::move(payload));
}

Status UpstreamLink::resend_unacked() {
  if (credit_active_) {
    // Go-back-N under pacing: everything unacked becomes unsent again and
    // re-ships through the window gate — the replay respects whatever
    // window the reopened session granted, not the pre-loss one.
    rewind_unsent();
    return pump_sends();
  }
  for (const auto& entry : replay_.entries()) {
    ByteBuffer copy;
    copy.append(entry.frame.view());
    Status st = sink_(std::move(copy));
    if (!st) return st;
    ++batches_replayed_;
  }
  if (!replay_.empty()) {
    next_unsent_seq_ = replay_.entries().back().batch_seq + 1;
    if (send_high_water_ < next_unsent_seq_) send_high_water_ = next_unsent_seq_;
  }
  return Status::ok();
}

std::uint64_t UpstreamLink::outstanding_records() const noexcept {
  std::uint64_t records = 0;
  for (const auto& entry : replay_.entries()) {
    if (entry.batch_seq >= next_unsent_seq_) break;
    records += entry.record_count;
  }
  return records;
}

std::uint64_t UpstreamLink::outstanding_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& entry : replay_.entries()) {
    if (entry.batch_seq >= next_unsent_seq_) break;
    bytes += entry.frame.size();
  }
  return bytes;
}

void UpstreamLink::rewind_unsent() noexcept {
  next_unsent_seq_ = replay_.empty() ? next_unsent_seq_ : replay_.entries().front().batch_seq;
}

void UpstreamLink::begin_stall() noexcept {
  if (stall_started_at_ == 0) stall_started_at_ = clock_.now();
}

void UpstreamLink::end_stall() noexcept {
  if (stall_started_at_ != 0) {
    const TimeMicros now = clock_.now();
    if (now > stall_started_at_) credit_stalled_us_ += now - stall_started_at_;
    stall_started_at_ = 0;
  }
}

Status UpstreamLink::pump_sends() {
  if (!link_ready_ || awaiting_ack_) return Status::ok();
  const auto& entries = replay_.entries();
  if (entries.empty()) {
    end_stall();
    return Status::ok();
  }
  // Evictions may have removed unsent entries from the front; the oldest
  // batch still buffered is the oldest that can ever be sent.
  if (next_unsent_seq_ < entries.front().batch_seq) {
    next_unsent_seq_ = entries.front().batch_seq;
  }
  std::uint64_t out_records = outstanding_records();
  std::uint64_t out_bytes = outstanding_bytes();
  std::size_t index = 0;
  while (index < entries.size() && entries[index].batch_seq < next_unsent_seq_) ++index;
  while (index < entries.size() && link_ready_) {
    const ReplayBuffer::Entry& entry = entries[index];
    const bool fits =
        out_records + entry.record_count <= window_records_ &&
        (window_bytes_ == 0 || out_bytes + entry.frame.size() <= window_bytes_);
    // Progress guarantee: a batch bigger than the whole window ships once
    // nothing is outstanding — a shrunk (even zero) window stalls the
    // stream, never deadlocks it.
    if (!fits && out_records > 0) {
      begin_stall();
      return Status::ok();
    }
    if (!fits && window_records_ == 0) {
      // Zero window with an empty pipe: the peer asked for silence; wait
      // for a replenishing grant rather than forcing the batch through.
      begin_stall();
      return Status::ok();
    }
    ByteBuffer copy;
    copy.append(entry.frame.view());
    const std::uint32_t seq = entry.batch_seq;
    const std::uint32_t records = entry.record_count;
    const std::size_t bytes = entry.frame.size();
    if (seq < send_high_water_) ++batches_replayed_;
    Status st = sink_(std::move(copy));
    if (!st) return st;
    out_records += records;
    out_bytes += bytes;
    next_unsent_seq_ = seq + 1;
    if (send_high_water_ < next_unsent_seq_) send_high_water_ = next_unsent_seq_;
    ++index;
  }
  if (index >= entries.size()) end_stall();
  return Status::ok();
}

void UpstreamLink::apply_credit(const std::optional<CreditGrant>& credit) {
  if (!credit) return;
  if (credit->incarnation != config_.incarnation) return;  // stale session's grant
  ++credit_grants_received_;
  if (config_.replay_batches == 0) return;
  credit_active_ = true;
  window_records_ = credit->window_records;
  window_bytes_ = credit->window_bytes;
  if (window_observer_) window_observer_(window_records_, window_bytes_);
}

Status UpstreamLink::handle_frame(ByteSpan payload) {
  xdr::Decoder decoder(payload);
  auto type = peek_type(decoder);
  if (!type) return type.status();
  switch (type.value()) {
    case MsgType::time_req: {
      // The sync master polls every peer alike; a relay answers in its
      // parent-relative timebase exactly as an EXS answers in its node's.
      auto req = decode_time_req(decoder);
      if (!req) return req.status();
      ByteBuffer out;
      xdr::Encoder enc(out);
      put_type(MsgType::time_resp, enc);
      encode_time_resp({req.value().request_id, corrected_now()}, enc);
      ++sync_polls_answered_;
      return sink_(std::move(out));
    }
    case MsgType::adjust: {
      auto adj = decode_adjust(decoder);
      if (!adj) return adj.status();
      correction_.fetch_add(adj.value().delta, std::memory_order_relaxed);
      ++sync_adjustments_;
      return Status::ok();
    }
    case MsgType::hello_ack: {
      auto ack = decode_hello_ack(decoder);
      if (!ack) return ack.status();
      ++acks_received_;
      apply_credit(ack.value().credit);
      if (config_.replay_batches == 0) return Status::ok();
      if (ack.value().incarnation != config_.incarnation) {
        // Ack for a previous session of this connection; a fresh one is on
        // its way.
        return Status::ok();
      }
      replay_.ack(ack.value().next_expected_seq);
      awaiting_ack_ = false;
      have_last_ack_ = true;
      last_batch_ack_expected_ = ack.value().next_expected_seq;
      return resend_unacked();
    }
    case MsgType::batch_ack: {
      auto ack = decode_batch_ack(decoder);
      if (!ack) return ack.status();
      ++acks_received_;
      const std::uint32_t prior_window = window_records_;
      apply_credit(ack.value().credit);
      if (config_.replay_batches == 0) return Status::ok();
      const std::uint32_t expected = ack.value().next_expected_seq;
      replay_.ack(expected);
      // Two consecutive acks naming the same cursor while we hold that very
      // batch means the peer lost it in flight (not merely lagging):
      // go-back-N resend from the cursor. A single stale ack is not enough —
      // acks race with batches legitimately in flight. A repeat whose grant
      // widens the window is a re-grant, not that signal: the peer's
      // pipeline drained while the batch at the cursor was still queued
      // ahead of its ordering thread.
      const bool regrant = credit_active_ && window_records_ > prior_window;
      const bool stuck =
          have_last_ack_ && expected == last_batch_ack_expected_ && !regrant;
      have_last_ack_ = true;
      last_batch_ack_expected_ = expected;
      if (stuck && !awaiting_ack_ && !replay_.empty() &&
          replay_.entries().front().batch_seq == expected) {
        return resend_unacked();
      }
      // Acked batches leave the outstanding set — the reopened window may
      // have room for batches a closed window parked in the replay buffer.
      if (credit_active_) return pump_sends();
      return Status::ok();
    }
    case MsgType::heartbeat:
      return Status::ok();  // liveness only; reception already refreshed rx time
    case MsgType::bye:
      saw_bye_ = true;
      return Status(Errc::closed, "peer said bye");
    default:
      return Status(Errc::malformed, "unexpected message type on an upstream link");
  }
}

void UpstreamLink::on_disconnect() noexcept {
  link_ready_ = false;
  awaiting_ack_ = false;
  have_last_ack_ = false;
  // Down-time is reconnect territory, not window pressure; don't let it
  // inflate the stall clock.
  end_stall();
}

Status UpstreamLink::on_reconnected() {
  link_ready_ = true;
  ++reconnects_;
  return send_hello();
}

LinkStats UpstreamLink::stats() const noexcept {
  LinkStats s;
  s.reconnects = reconnects_;
  s.batches_replayed = batches_replayed_;
  s.replay_evictions = replay_.evictions();
  s.heartbeats_sent = heartbeats_sent_;
  s.acks_received = acks_received_;
  s.replay_pending = replay_.size();
  s.credit_grants_received = credit_grants_received_;
  s.paced_batches = paced_batches_;
  s.credit_stalled_us = credit_stalled_us_;
  s.credit_active = credit_active_;
  s.sync_polls_answered = sync_polls_answered_;
  s.sync_adjustments = sync_adjustments_;
  if (credit_active_) {
    s.credit_window_records = window_records_;
    s.credit_window_bytes = window_bytes_;
  }
  return s;
}

std::uint64_t derive_incarnation() noexcept {
  const std::uint64_t incarnation = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                                    static_cast<std::uint64_t>(monotonic_micros());
  return incarnation == 0 ? 1 : incarnation;
}

// ---- reconnect schedule -----------------------------------------------------

TimeMicros ReconnectSchedule::backoff_delay() {
  TimeMicros delay = config_.backoff_base_us;
  for (std::uint32_t i = 1; i < failed_attempts_ && delay < config_.backoff_cap_us; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, config_.backoff_cap_us);
  if (config_.jitter > 0.0) {
    std::uniform_real_distribution<double> jitter(0.0, config_.jitter);
    delay += static_cast<TimeMicros>(static_cast<double>(delay) * jitter(jitter_rng_));
  }
  return delay;
}

bool ReconnectSchedule::record_failure(TimeMicros now) {
  ++failed_attempts_;
  if (config_.max_attempts > 0 && failed_attempts_ >= config_.max_attempts) return false;
  next_attempt_at_ = now + backoff_delay();
  return true;
}

}  // namespace brisk::tp
