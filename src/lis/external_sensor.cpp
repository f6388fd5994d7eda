#include "lis/external_sensor.hpp"

#include <algorithm>
#include <array>

#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "sensors/record_codec.hpp"

namespace brisk::lis {

tp::LinkConfig ExsCore::make_link_config(const ExsConfig& config) {
  tp::LinkConfig link;
  link.node = config.node;
  link.incarnation = config.incarnation;
  link.replay_batches = config.replay_buffer_batches;
  link.replay_bytes = config.replay_buffer_bytes;
  return link;
}

ExsCore::ExsCore(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
                 FrameSink sink)
    : config_(config),
      rings_(rings),
      clock_(clock),
      batcher_(config, clock,
               [this](ByteBuffer payload) { return link_.ship_batch(std::move(payload)); }),
      link_(make_link_config(config), clock, std::move(sink)),
      flight_("exs-" + std::to_string(config.node)) {
  drain_scratch_.reserve(sensors::kMaxNativeRecordBytes);
  slots_.reserve(rings_.slot_count());
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
  const TimeMicros correction = link_.correction();
  std::size_t drained = 0;
  // Slot handles live across passes so their cached cursors do; a slot
  // claimed since the last pass gets its handle here.
  const std::uint32_t claimed = rings_.claimed_slots();
  while (slots_.size() < claimed) {
    auto ring = rings_.slot(static_cast<std::uint32_t>(slots_.size()));
    if (!ring) break;
    slots_.push_back(ring.value());
  }
  // The drop total every batch carries, read once per pass.
  std::uint64_t ring_dropped = 0;
  for (const shm::RingBuffer& ring : slots_) ring_dropped += ring.stats().dropped;
  batcher_.set_ring_dropped_total(ring_dropped);
  // Round-robin across slots so one chatty producer cannot starve others.
  bool progress = true;
  while (progress && drained < config_.drain_burst) {
    progress = false;
    for (std::size_t i = 0; i < slots_.size() && drained < config_.drain_burst; ++i) {
      drain_scratch_.clear();
      if (!slots_[i].try_pop(drain_scratch_)) continue;
      progress = true;
      ++drained;
      if (sensors::native_trace_present({drain_scratch_.data(), drain_scratch_.size()})) {
        // Node-clock stamp; the transcode below shifts every trace stamp by
        // the correction along with the record timestamp.
        (void)sensors::stamp_native_trace(drain_scratch_, sensors::TraceStage::exs_drain,
                                          clock_.now());
      }
      Status st = batcher_.add_native_record(
          ByteSpan{drain_scratch_.data(), drain_scratch_.size()}, correction);
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

Status ExsCore::emit_metrics() {
  const TimeMicros correction = link_.correction();
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
    Status st = batcher_.add_native_record(native.value(), correction);
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
    Status st = batcher_.add_native_record(native.value(), correction);
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
  s.sync_polls_answered = link.sync_polls_answered;
  s.sync_adjustments = link.sync_adjustments;
  s.correction_us = link_.correction();
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

tp::ClientConfig make_client_config(const ExsConfig& config, const std::string& ism_host,
                                    std::uint16_t ism_port) {
  tp::ClientConfig client;
  client.host = ism_host;
  client.port = ism_port;
  client.poller = config.poller;
  client.outbox_bytes = config.outbox_bytes;
  client.send_stall_timeout_us = config.send_stall_timeout_us;
  client.heartbeat_period_us = config.heartbeat_period_us;
  client.silence_timeout_us = config.ism_silence_timeout_us;
  client.reconnect.backoff_base_us = config.reconnect_backoff_base_us;
  client.reconnect.backoff_cap_us = config.reconnect_backoff_cap_us;
  client.reconnect.jitter = config.reconnect_jitter;
  client.reconnect.max_attempts = config.max_reconnect_attempts;
  client.log_name = "EXS node " + std::to_string(config.node);
  return client;
}

}  // namespace

ExternalSensor::ExternalSensor(const ExsConfig& config, shm::MultiRing rings,
                               clk::Clock& clock, const std::string& ism_host,
                               std::uint16_t ism_port)
    : config_(config),
      core_(std::make_unique<ExsCore>(config, rings, clock,
                                      [this](ByteBuffer payload) {
                                        // Transport loss is survived by the
                                        // reconnect loop; the caller
                                        // (drain/flush) must not treat it as
                                        // a fatal error.
                                        (void)client_.send(payload.view());
                                        return Status::ok();
                                      })),
      client_(make_client_config(config, ism_host, ism_port), core_->link()) {
  client_.set_flight_recorder(&core_->flight());
}

Result<std::unique_ptr<ExternalSensor>> ExternalSensor::connect(
    const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
    const std::string& ism_host, std::uint16_t ism_port) {
  Status valid = config.validate();
  if (!valid) return valid;
  ExsConfig effective = config;
  if (effective.incarnation == 0) effective.incarnation = tp::derive_incarnation();
  auto exs = std::unique_ptr<ExternalSensor>(
      new ExternalSensor(effective, rings, clock, ism_host, ism_port));
  Status st = exs->client_.connect();
  if (!st) return st;
  ExternalSensor* raw = exs.get();
  exs->client_.poller().set_idle([raw] {
    Status cy = raw->cycle();
    if (!cy) {
      BRISK_LOG_ERROR << "EXS cycle failed: " << cy.to_string();
      raw->stop();
    }
  });
  return exs;
}

Status ExternalSensor::cycle() {
  if (metrics::consume_flight_dump_request()) metrics::dump_flight_recorders(stderr);
  if (!client_.service()) {
    stop();  // the ISM said BYE, or the reconnect budget is spent
    return Status::ok();
  }
  // Rings keep draining while the link is down: records flow into batches
  // and batches into the bounded replay buffer, whose evictions (if any)
  // are the declared loss.
  auto drained = core_->drain_rings();
  if (!drained) return drained.status();
  Status st = core_->maybe_flush();
  if (!st) return st;
  if (config_.metrics_interval_us > 0) {
    const TimeMicros now = monotonic_micros();
    if (last_metrics_us_ == 0) {
      last_metrics_us_ = now;  // baseline: first snapshot one interval in
    } else if (now - last_metrics_us_ >= config_.metrics_interval_us) {
      last_metrics_us_ = now;
      Status em = core_->emit_metrics();
      if (!em) return em;
    }
  }
  return Status::ok();
}

Status ExternalSensor::run() {
  net::Poller& loop = client_.poller();
  while (!loop.stopped()) {
    auto polled = loop.poll_once(core_->next_wait_us(core_->clock().now()));
    if (!polled) return polled.status();
  }
  return Status::ok();
}

Status ExternalSensor::run_for(TimeMicros duration) {
  net::Poller& loop = client_.poller();
  const TimeMicros deadline = monotonic_micros() + duration;
  while (monotonic_micros() < deadline && !loop.stopped()) {
    const TimeMicros wait = std::min(core_->next_wait_us(core_->clock().now()),
                                     deadline - monotonic_micros());
    auto polled = loop.poll_once(wait);
    if (!polled) return polled.status();
  }
  return Status::ok();
}

}  // namespace brisk::lis
