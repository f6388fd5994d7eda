#include "lis/external_sensor.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>

#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "sensors/record_codec.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::lis {

tp::LinkConfig ExsCore::make_link_config(const ExsConfig& config) {
  tp::LinkConfig link;
  link.node = config.node;
  link.incarnation = config.incarnation;
  link.replay_batches = config.replay_buffer_batches;
  link.replay_bytes = config.replay_buffer_bytes;
  link.pace = config.pace;
  return link;
}

ExsCore::ExsCore(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
                 FrameSink sink)
    : config_(config),
      rings_(rings),
      clock_(clock),
      sink_(sink),
      batcher_(config, clock,
               [this](ByteBuffer payload) { return link_.ship_batch(std::move(payload)); }),
      link_(make_link_config(config), clock, std::move(sink)),
      flight_("exs-" + std::to_string(config.node)) {
  drain_scratch_.reserve(sensors::kMaxNativeRecordBytes);
  // Window-aware flush: never build a batch the session's largest grant
  // cannot take whole (0 keeps the configured maximum — the link's progress
  // guarantee covers the rare oversized leftover). The latest grant would
  // be the wrong cap: a backlog shrinks it transiently, tiny batches follow,
  // and the replay buffer, bounded in batches, fills and evicts. A core
  // lives for one incarnation, so the largest grant starts over with each.
  link_.set_window_observer(
      [this](std::uint32_t window_records, std::uint64_t) {
        if (window_records <= largest_grant_records_) return;
        largest_grant_records_ = window_records;
        batcher_.set_record_cap(window_records);
      });
  // Bridge the existing stats counters into the registry; the collector
  // runs on whatever thread snapshots (the EXS loop thread in daemons).
  metrics_.add_collector([this](metrics::SnapshotBuilder& out) {
    const ExsStats s = stats();
    out.counter("exs.records_forwarded", s.records_forwarded);
    out.counter("exs.batches_sent", s.batches_sent);
    out.counter("exs.bytes_sent", s.bytes_sent);
    out.counter("exs.ring_drops_seen", s.ring_drops_seen);
    out.counter("exs.transcode_errors", s.transcode_errors);
    out.counter("exs.sync_polls_answered", s.sync_polls_answered);
    out.counter("exs.sync_adjustments", s.sync_adjustments);
    out.counter("exs.reconnects", s.reconnects);
    out.counter("exs.batches_replayed", s.batches_replayed);
    out.counter("exs.replay_evictions", s.replay_evictions);
    out.counter("exs.heartbeats_sent", s.heartbeats_sent);
    out.counter("exs.acks_received", s.acks_received);
    out.gauge("exs.replay_pending", s.replay_pending);
    out.gauge("exs.correction_us", static_cast<std::uint64_t>(s.correction_us));
    out.counter("exs.loop_wakeups", s.loop_wakeups);
    out.counter("exs.burst_limited_drains", s.burst_limited_drains);
    out.counter("exs.credit_grants", s.credit_grants_received);
    out.counter("exs.paced_batches", s.paced_batches);
    out.counter("exs.credit_stalled_ms",
                static_cast<std::uint64_t>(s.credit_stalled_us) / 1000);
    out.gauge("exs.credit_window_records", s.credit_window_records);
    out.gauge("exs.credit_window_bytes", s.credit_window_bytes);
  });
}

Result<std::size_t> ExsCore::drain_rings() {
  const TimeMicros now = clock_.now();
  drain_interval_us_ = loop_wakeups_ > 0 ? now - last_drain_at_ : 0;
  last_drain_at_ = now;
  ++loop_wakeups_;
  std::size_t drained = 0;
  const std::uint32_t slots = rings_.claimed_slots();
  // Round-robin across slots so one chatty producer cannot starve others.
  bool progress = true;
  while (progress && drained < config_.drain_burst) {
    progress = false;
    for (std::uint32_t i = 0; i < slots && drained < config_.drain_burst; ++i) {
      auto ring = rings_.slot(i);
      if (!ring) continue;
      drain_scratch_.clear();
      if (!ring.value().try_pop(drain_scratch_)) continue;
      progress = true;
      ++drained;
      if (sensors::native_trace_present({drain_scratch_.data(), drain_scratch_.size()})) {
        // Node-clock stamp; the transcode below shifts every trace stamp by
        // the correction along with the record timestamp.
        (void)sensors::stamp_native_trace(drain_scratch_, sensors::TraceStage::exs_drain,
                                          clock_.now());
      }
      batcher_.set_ring_dropped_total(rings_.total_stats().dropped);
      Status st = batcher_.add_native_record(
          ByteSpan{drain_scratch_.data(), drain_scratch_.size()}, correction_);
      if (!st) {
        ++transcode_errors_;
        BRISK_LOG_WARN << "EXS transcode failed: " << st.to_string();
      } else {
        ++records_forwarded_;
      }
    }
  }
  last_drained_ = drained;
  burst_limited_ = drained >= config_.drain_burst;
  if (burst_limited_) ++burst_limited_drains_;
  return drained;
}

TimeMicros ExsCore::next_wait_us(TimeMicros now) const noexcept {
  if (burst_limited_ && !link_.send_blocked()) return 0;
  TimeMicros wait = config_.select_timeout_us;
  if (config_.batch_max_age_us > 0) {
    const TimeMicros age_left = batcher_.pending_records() > 0
                                    ? batcher_.opened_at() + config_.batch_max_age_us - now
                                    : config_.batch_max_age_us;
    wait = std::min(wait, std::max<TimeMicros>(age_left, 0));
  }
  if (last_drained_ > 0 && drain_interval_us_ > 0) {
    // At the rate the rings filled since the previous drain, this long
    // until they hold what the open (or next) batch still takes.
    const double fill_us = static_cast<double>(batcher_.records_to_fill()) *
                           static_cast<double>(drain_interval_us_) /
                           static_cast<double>(last_drained_);
    if (fill_us < static_cast<double>(wait)) {
      wait = std::min(wait, std::max(static_cast<TimeMicros>(fill_us), kMinLoopWaitUs));
    }
  }
  return wait;
}

Status ExsCore::handle_frame(ByteSpan payload) {
  xdr::Decoder decoder(payload);
  auto type = tp::peek_type(decoder);
  if (!type) return type.status();
  switch (type.value()) {
    case tp::MsgType::time_req: {
      auto req = tp::decode_time_req(decoder);
      if (!req) return req.status();
      ByteBuffer out;
      xdr::Encoder enc(out);
      tp::put_type(tp::MsgType::time_resp, enc);
      tp::encode_time_resp({req.value().request_id, corrected_now()}, enc);
      ++sync_polls_answered_;
      return sink_(std::move(out));
    }
    case tp::MsgType::adjust: {
      auto adj = tp::decode_adjust(decoder);
      if (!adj) return adj.status();
      correction_ += adj.value().delta;
      ++sync_adjustments_;
      return Status::ok();
    }
    default:
      if (tp::UpstreamLink::owns_frame(type.value())) {
        return link_.handle_frame(type.value(), decoder);
      }
      return Status(Errc::malformed, "unexpected message type at EXS");
  }
}

Status ExsCore::emit_metrics() {
  const auto samples = metrics_.snapshot();
  auto records = metrics::snapshot_to_records(samples, config_.node, clock_.now(),
                                              metrics_sequence_);
  std::array<std::uint8_t, sensors::kMaxNativeRecordBytes> buf;
  for (const auto& record : records) {
    auto native = sensors::encode_native_into(record, buf);
    if (!native) {
      ++transcode_errors_;
      continue;
    }
    // Through the batcher like any drained ring record: same correction,
    // same batching, same replay coverage across reconnects.
    Status st = batcher_.add_native_record(native.value(), correction_);
    if (!st) return st;
    ++records_forwarded_;
  }
  // Flight events ride out with the snapshot, stamped with the snapshot
  // time (the at_us field keeps the true event time).
  for (const metrics::FlightEvent& event : flight_.drain_new(flight_cursor_)) {
    auto record = sensors::make_event_record(config_.node, metrics_sequence_++, clock_.now(),
                                             event.kind, event.subject, event.value, event.at);
    auto native = sensors::encode_native_into(record, buf);
    if (!native) {
      ++transcode_errors_;
      continue;
    }
    Status st = batcher_.add_native_record(native.value(), correction_);
    if (!st) return st;
    ++records_forwarded_;
  }
  return Status::ok();
}

ExsStats ExsCore::stats() const noexcept {
  const tp::LinkStats link = link_.stats();
  ExsStats s;
  s.records_forwarded = records_forwarded_;
  s.batches_sent = batcher_.batches_sent();
  s.bytes_sent = batcher_.bytes_sent();
  s.ring_drops_seen = const_cast<shm::MultiRing&>(rings_).total_stats().dropped;
  s.transcode_errors = transcode_errors_;
  s.sync_polls_answered = sync_polls_answered_;
  s.sync_adjustments = sync_adjustments_;
  s.correction_us = correction_;
  s.loop_wakeups = loop_wakeups_;
  s.burst_limited_drains = burst_limited_drains_;
  s.reconnects = link.reconnects;
  s.batches_replayed = link.batches_replayed;
  s.replay_evictions = link.replay_evictions;
  s.heartbeats_sent = link.heartbeats_sent;
  s.acks_received = link.acks_received;
  s.replay_pending = link.replay_pending;
  s.credit_grants_received = link.credit_grants_received;
  s.paced_batches = link.paced_batches;
  s.credit_stalled_us = link.credit_stalled_us;
  s.credit_window_records = link.credit_window_records;
  s.credit_window_bytes = link.credit_window_bytes;
  return s;
}

// ---- ExternalSensor ---------------------------------------------------------

namespace {

tp::ReconnectConfig make_reconnect_config(const ExsConfig& config) {
  tp::ReconnectConfig reconnect;
  reconnect.backoff_base_us = config.reconnect_backoff_base_us;
  reconnect.backoff_cap_us = config.reconnect_backoff_cap_us;
  reconnect.jitter = config.reconnect_jitter;
  reconnect.max_attempts = config.max_reconnect_attempts;
  return reconnect;
}

}  // namespace

ExternalSensor::ExternalSensor(const ExsConfig& config, net::TcpSocket socket)
    : config_(config),
      socket_(std::move(socket)),
      outbox_(config.outbox_bytes),
      loop_(net::make_poller(config.poller)),
      reconnect_(make_reconnect_config(config), config.node ^ config.incarnation) {}

Result<std::unique_ptr<ExternalSensor>> ExternalSensor::connect(
    const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
    const std::string& ism_host, std::uint16_t ism_port) {
  Status valid = config.validate();
  if (!valid) return valid;
  ExsConfig effective = config;
  if (effective.incarnation == 0) {
    // One process lifetime = one incarnation; lets the ISM tell a reconnect
    // of the same EXS (resume the batch_seq cursor) from a restarted one
    // (start over at zero).
    effective.incarnation =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        static_cast<std::uint64_t>(monotonic_micros());
    if (effective.incarnation == 0) effective.incarnation = 1;
  }
  auto socket = net::TcpSocket::connect(ism_host, ism_port);
  if (!socket) return socket.status();
  Status st = socket.value().set_nodelay(true);
  if (!st) return st;

  auto exs = std::unique_ptr<ExternalSensor>(
      new ExternalSensor(effective, std::move(socket).value()));
  ExternalSensor* raw = exs.get();
  exs->ism_host_ = ism_host;
  exs->ism_port_ = ism_port;
  exs->connected_ = true;
  exs->last_rx_us_ = monotonic_micros();
  exs->core_ = std::make_unique<ExsCore>(
      effective, rings, clock, [raw](ByteBuffer payload) {
        if (!raw->connected_) return Status::ok();  // link down: replay covers it
        Status wr = raw->write_out(payload.view());
        if (!wr) raw->handle_disconnect();
        // Transport loss is survived by the reconnect loop; the caller
        // (drain/flush) must not treat it as a fatal error.
        return Status::ok();
      });
  st = exs->core_->send_hello();
  if (!st) return st;
  if (!exs->connected_) return Status(Errc::closed, "ISM connection lost during hello");

  st = exs->socket_.set_nonblocking(true);
  if (!st) return st;
  st = exs->watch_socket();
  if (!st) return st;
  exs->loop_->set_idle([raw] {
    Status cy = raw->cycle();
    if (!cy) {
      BRISK_LOG_ERROR << "EXS cycle failed: " << cy.to_string();
      raw->loop_->stop();
    }
  });
  return exs;
}

Status ExternalSensor::watch_socket() {
  net::Readiness interest = net::Readiness::readable;
  if (want_writable_) interest = interest | net::Readiness::writable;
  return loop_->watch(socket_.fd(), interest, [this](int, net::Readiness ready) {
    if (any(ready & net::Readiness::writable)) {
      // The kernel buffer drained: flush deferred frames, then drop the
      // writable subscription once the outbox is empty again.
      Status flushed = outbox_.pump(socket_);
      if (!flushed) {
        BRISK_LOG_WARN << "EXS node " << config_.node
                       << ": outbox flush failed: " << flushed.to_string();
        handle_disconnect();
        return;
      }
      if (outbox_.empty()) last_tx_us_ = monotonic_micros();
      update_write_interest();
    }
    if (!any(ready & net::Readiness::readable)) return;
    Status pump = pump_socket();
    if (!pump && pump.code() != Errc::would_block) {
      if (core_->saw_bye()) {
        peer_closed_ = true;
        loop_->stop();
      } else {
        BRISK_LOG_WARN << "EXS node " << config_.node
                       << ": ISM link error: " << pump.to_string();
        handle_disconnect();
      }
    }
  });
}

Status ExternalSensor::write_out(ByteSpan frame) {
  Status st = fault_.write_frame(socket_, outbox_, frame);
  if (st.code() == Errc::buffer_full) {
    // The outbox itself is at its cap: the ISM has stopped reading well
    // past one kernel buffer of data. Block here — bounded — so ring
    // backpressure (and, with credits off, the stage-6 stall semantics)
    // is preserved; past the deadline the link counts as lost.
    const TimeMicros deadline = monotonic_micros() + config_.send_stall_timeout_us;
    core_->flight().record(sensors::EventKind::watermark_stall, config_.node,
                           outbox_.pending_bytes(), core_->corrected_now());
    for (;;) {
      Status pumped = outbox_.pump(socket_);
      if (!pumped) {
        update_write_interest();
        return pumped;
      }
      // The fault decision for this frame already ran above; the retry
      // enqueues the surviving payload directly.
      st = outbox_.enqueue_frame(frame);
      if (st.code() != Errc::buffer_full) break;
      if (monotonic_micros() >= deadline) {
        update_write_interest();
        return Status(Errc::timeout, "EXS outbox wedged past send stall timeout");
      }
      sleep_micros(1'000);
    }
    if (st) st = outbox_.pump(socket_);
  }
  if (st) last_tx_us_ = monotonic_micros();
  update_write_interest();
  return st;
}

void ExternalSensor::update_write_interest() {
  const bool want = !outbox_.empty();
  if (want == want_writable_ || !connected_ || !socket_.valid()) return;
  want_writable_ = want;
  Status st = watch_socket();  // upsert with the new interest mask
  if (!st && want) want_writable_ = false;  // cycle()'s flush is the fallback
}

Status ExternalSensor::pump_socket() {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    auto n = socket_.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n) {
      if (n.status().code() == Errc::would_block) return Status::ok();
      return n.status();
    }
    if (n.value() == 0) return Status(Errc::closed, "ISM closed connection");
    last_rx_us_ = monotonic_micros();
    frame_reader_.feed(ByteSpan{chunk, n.value()});
    for (;;) {
      auto frame = frame_reader_.next();
      if (!frame) return frame.status();
      if (!frame.value().has_value()) break;
      Status st = core_->handle_frame(frame.value()->view());
      if (!st) return st;
    }
  }
}

void ExternalSensor::handle_disconnect() {
  if (!connected_) return;
  connected_ = false;
  if (socket_.valid()) {
    (void)loop_->unwatch(socket_.fd());
    socket_.close();
  }
  frame_reader_ = net::FrameReader{};
  // Deferred frames die with the connection; replay re-ships what matters.
  outbox_ = net::FrameSendBuffer(config_.outbox_bytes);
  want_writable_ = false;
  core_->on_disconnect();
  reconnect_.arm(monotonic_micros());  // first retry on the next cycle
  BRISK_LOG_WARN << "EXS node " << config_.node
                 << ": lost ISM connection, entering reconnect";
}

void ExternalSensor::maybe_reconnect() {
  if (!reconnect_.due(monotonic_micros())) return;
  auto socket = net::TcpSocket::connect(ism_host_, ism_port_);
  if (socket) {
    net::TcpSocket fresh = std::move(socket).value();
    Status st = fresh.set_nodelay(true);
    if (st) st = fresh.set_nonblocking(true);
    if (st) {
      socket_ = std::move(fresh);
      st = watch_socket();
      if (st) {
        connected_ = true;
        reconnect_.record_success();
        last_rx_us_ = monotonic_micros();
        ++reconnects_;
        core_->flight().record(sensors::EventKind::reconnect, config_.node, reconnects_,
                               core_->corrected_now());
        BRISK_LOG_INFO << "EXS node " << config_.node << ": reconnected to ISM";
        // Re-hello; the HELLO_ACK cursor triggers replay of unacked batches.
        (void)core_->on_reconnected();
        return;
      }
      (void)loop_->unwatch(socket_.fd());
      socket_.close();
    }
  }
  if (!reconnect_.record_failure(monotonic_micros())) {
    BRISK_LOG_ERROR << "EXS node " << config_.node << ": giving up after "
                    << reconnect_.failed_attempts() << " reconnect attempts";
    loop_->stop();
  }
}

Status ExternalSensor::cycle() {
  if (metrics::consume_flight_dump_request()) metrics::dump_flight_recorders(stderr);
  if (!connected_ && !loop_->stopped()) maybe_reconnect();
  // Rings keep draining while the link is down: records flow into batches
  // and batches into the bounded replay buffer, whose evictions (if any)
  // are the declared loss.
  auto drained = core_->drain_rings();
  if (!drained) return drained.status();
  Status st = core_->maybe_flush();
  if (!st) return st;
  const TimeMicros now = monotonic_micros();
  if (connected_ && config_.heartbeat_period_us > 0 &&
      now - last_tx_us_ >= config_.heartbeat_period_us) {
    (void)core_->send_heartbeat();
  }
  if (config_.metrics_interval_us > 0) {
    if (last_metrics_us_ == 0) {
      last_metrics_us_ = now;  // baseline: first snapshot one interval in
    } else if (now - last_metrics_us_ >= config_.metrics_interval_us) {
      last_metrics_us_ = now;
      Status em = core_->emit_metrics();
      if (!em) return em;
    }
  }
  if (connected_ && config_.ism_silence_timeout_us > 0 &&
      now - last_rx_us_ > config_.ism_silence_timeout_us) {
    BRISK_LOG_WARN << "EXS node " << config_.node
                   << ": ISM silent past timeout, dropping half-open link";
    handle_disconnect();
  }
  return Status::ok();
}

Status ExternalSensor::run() {
  while (!loop_->stopped()) {
    auto polled = loop_->poll_once(core_->next_wait_us(core_->clock().now()));
    if (!polled) return polled.status();
  }
  return Status::ok();
}

Status ExternalSensor::run_for(TimeMicros duration) {
  const TimeMicros deadline = monotonic_micros() + duration;
  while (monotonic_micros() < deadline && !loop_->stopped() && !peer_closed_) {
    const TimeMicros wait = std::min(core_->next_wait_us(core_->clock().now()),
                                     deadline - monotonic_micros());
    auto polled = loop_->poll_once(wait);
    if (!polled) return polled.status();
  }
  return Status::ok();
}

}  // namespace brisk::lis
