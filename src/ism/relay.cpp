#include "ism/relay.hpp"

#include <algorithm>
#include <chrono>

#include "common/time_util.hpp"
#include "sensors/metrics_record.hpp"
#include "tp/wire.hpp"

namespace brisk::ism {

namespace {

tp::LinkConfig make_link_config(const RelayConfig& config) {
  tp::LinkConfig link;
  link.node = config.relay_node;
  link.incarnation = config.incarnation;
  link.capabilities = tp::kCapabilityOrderedStream;
  link.replay_batches = config.replay_batches;
  link.replay_bytes = config.replay_bytes;
  return link;
}

tp::ClientConfig make_client_config(const RelayConfig& config) {
  tp::ClientConfig client;
  client.host = config.parent_host;
  client.port = config.parent_port;
  client.poller = config.poller;
  client.outbox_bytes = config.outbox_bytes;
  client.send_stall_timeout_us = config.send_stall_timeout_us;
  client.heartbeat_period_us = config.heartbeat_period_us;
  client.reconnect = config.reconnect;
  client.log_name = "relay " + std::to_string(config.relay_node);
  return client;
}

}  // namespace

Result<std::shared_ptr<RelayEgress>> RelayEgress::connect(const RelayConfig& config,
                                                          clk::Clock& clock) {
  RelayConfig cfg = config;
  if (cfg.incarnation == 0) cfg.incarnation = tp::derive_incarnation();
  auto relay = std::shared_ptr<RelayEgress>(new RelayEgress(cfg, clock));
  Status st = relay->client_.connect();
  if (!st) return st;
  relay->thread_ = std::thread([raw = relay.get()] { raw->run(); });
  return relay;
}

RelayEgress::RelayEgress(const RelayConfig& config, clk::Clock& clock)
    : config_(config),
      queue_(config.queue_records),
      link_(make_link_config(config), clock,
            [this](ByteBuffer payload) {
              // Egress thread only. Transport loss is survived by the
              // reconnect schedule; the link must not see it as fatal.
              (void)client_.send(payload.view());
              return Status::ok();
            }),
      client_(make_client_config(config), link_),
      builder_(config.relay_node),
      aggregator_(config.relay_node, config.metrics_flush_period_us) {}

RelayEgress::~RelayEgress() { stop(); }

void RelayEgress::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

Status RelayEgress::accept(const sensors::Record& record) {
  // Delivery thread. The queue bounds how far the pipeline can run ahead
  // of a slow parent link; spinning here turns into merge backpressure,
  // which in turn shrinks the credit grants this relay hands its own EXSes.
  sensors::Record copy = record;
  while (!queue_.try_push(std::move(copy))) {
    queue_stalls_.fetch_add(1, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_relaxed)) return Status::ok();  // shutting down: drop
    std::this_thread::yield();
  }
  return Status::ok();
}

void RelayEgress::tick(TimeMicros watermark) {
  // The pipeline's release watermark is monotone; a plain store suffices.
  if (watermark != INT64_MIN) tick_watermark_.store(watermark, std::memory_order_relaxed);
}

Status RelayEgress::drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  const TimeMicros deadline = monotonic_micros() + config_.drain_timeout_us;
  while (!drained_.load(std::memory_order_relaxed) && monotonic_micros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool clean = drained_.load(std::memory_order_relaxed);
  stop();
  if (!clean) {
    return Status(Errc::timeout, "relay egress drain timed out with batches unacked");
  }
  return Status::ok();
}

RelayEgressStats RelayEgress::stats() const {
  RelayEgressStats s;
  s.records_forwarded = records_forwarded_.load(std::memory_order_relaxed);
  s.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  s.queue_stalls = queue_stalls_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(link_mutex_);
  s.metrics_absorbed = aggregator_.absorbed();
  s.aggregated_flushes = aggregator_.flushes();
  s.link = link_.stats();
  s.sync_polls_answered = s.link.sync_polls_answered;
  s.sync_adjustments = s.link.sync_adjustments;
  s.reconnects = s.link.reconnects;
  return s;
}

void RelayEgress::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lk(link_mutex_);
      Status st = cycle();
      if (!st) client_.handle_disconnect();
    }
    // Readable wakes the thread for parent acks and sync polls; writable
    // (subscribed only while the outbox holds deferred bytes) the moment
    // the kernel buffer drains.
    (void)client_.poller().poll_once(config_.poll_timeout_us);
  }
}

Status RelayEgress::cycle() {
  if (!client_.service()) {
    // The parent said BYE (nothing more will be acked) or the reconnect
    // budget is spent: the egress is done.
    if (link_.saw_bye()) drained_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    return Status::ok();
  }
  if (!client_.connected()) return Status::ok();
  // Capture the promise *before* draining the queue: any record this cycle
  // does not see was delivered after this tick value was published, and the
  // pipeline delivers in sorted order, so its timestamp is >= the promise.
  // Reading the tick afterwards could promise over a record that slipped
  // into the queue in between.
  const TimeMicros promised_wm = tick_watermark_.load(std::memory_order_relaxed);
  Status st = service_queue();
  if (!st) return st;
  const bool draining = drain_requested_.load(std::memory_order_relaxed);
  st = flush_aggregates(draining && queue_.empty());
  if (!st) return st;
  st = maybe_seal(draining && queue_.empty());
  if (!st) return st;
  const TimeMicros now = monotonic_micros();
  if (builder_.empty() && queue_.empty() && config_.idle_watermark_period_us > 0 &&
      now - last_wm_tx_us_ >= config_.idle_watermark_period_us) {
    st = send_idle_watermark(promised_wm);
    if (!st) return st;
  }
  if (draining && !drained_.load(std::memory_order_relaxed) && queue_.empty() &&
      builder_.empty() && client_.pending_bytes() == 0 && link_.replay().empty() &&
      !link_.awaiting_ack()) {
    // Everything shipped and acked (outbox included — a deferred frame must
    // not be overtaken by the goodbye): say goodbye. The parent flushes
    // this relay's merge lane on the BYE, releasing records the watermark
    // still gated.
    ByteBuffer out;
    xdr::Encoder enc(out);
    tp::put_type(tp::MsgType::bye, enc);
    st = client_.send(out.view());
    if (!st) return st;
    drained_.store(true, std::memory_order_relaxed);
  }
  return Status::ok();
}

Status RelayEgress::service_queue() {
  sensors::Record record;
  while (queue_.try_pop(record)) {
    // Relay-originated self-instrumentation carries the reserved metrics
    // node id; stamp it with the relay's identity so snapshots from
    // different relays stay distinguishable at the root.
    if (config_.aggregate_metrics && record.node != sensors::kIsmMetricsNodeId &&
        sensors::is_metrics_record(record)) {
      // In-tree aggregation: subtree 0xFF01 records are absorbed here and
      // leave as one merged "agg." snapshot per flush period. The relay's
      // own snapshot (reserved node id, re-stamped below) and 0xFF02/0xFF03
      // records always pass through.
      sensors::apply_time_delta(record, link_.correction());
      aggregator_.absorb(record);
      continue;
    }
    if (record.node == sensors::kIsmMetricsNodeId) record.node = config_.relay_node;
    sensors::apply_time_delta(record, link_.correction());
    if (builder_.empty()) batch_started_at_ = monotonic_micros();
    last_record_ts_ = std::max(last_record_ts_, record.timestamp);
    Status st = builder_.add_record(record);
    if (!st) return st;
    records_forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (builder_.record_count() >= config_.batch_max_records ||
        builder_.payload_bytes() >= config_.batch_max_bytes) {
      st = maybe_seal(true);
      if (!st) return st;
    }
  }
  return Status::ok();
}

Status RelayEgress::flush_aggregates(bool force) {
  if (!config_.aggregate_metrics) return Status::ok();
  const TimeMicros now = monotonic_micros();
  if (force ? !aggregator_.pending() : !aggregator_.due(now)) return Status::ok();
  // The flush rides the sorted stream, so its timestamp must sit at or
  // above everything already promised or shipped — and above every absorbed
  // subtree record, whose values it carries.
  const TimeMicros flush_ts =
      std::max({last_record_ts_, wm_out_, aggregator_.max_absorbed_ts()});
  std::vector<sensors::Record> records = aggregator_.flush(flush_ts, now);
  for (sensors::Record& record : records) {
    if (builder_.empty()) batch_started_at_ = monotonic_micros();
    last_record_ts_ = std::max(last_record_ts_, record.timestamp);
    Status st = builder_.add_record(record);
    if (!st) return st;
    records_forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (builder_.record_count() >= config_.batch_max_records ||
        builder_.payload_bytes() >= config_.batch_max_bytes) {
      st = maybe_seal(true);
      if (!st) return st;
    }
  }
  return Status::ok();
}

Status RelayEgress::maybe_seal(bool force) {
  if (builder_.empty()) return Status::ok();
  const TimeMicros now = monotonic_micros();
  const bool aged = batch_started_at_ != 0 && now - batch_started_at_ >= config_.batch_max_age_us;
  if (!force && !aged && builder_.record_count() < config_.batch_max_records &&
      builder_.payload_bytes() < config_.batch_max_bytes) {
    return Status::ok();
  }
  // The relay output stream is (timestamp, node) sorted, so the last record
  // in this batch bounds everything the relay will ever send after it.
  wm_out_ = std::max(wm_out_, last_record_ts_);
  builder_.set_watermark(wm_out_);
  ByteBuffer payload = builder_.finish();
  batch_started_at_ = 0;
  Status st = link_.ship_batch(std::move(payload));
  if (!st) return st;
  batches_sent_.fetch_add(1, std::memory_order_relaxed);
  last_wm_tx_us_ = monotonic_micros();
  return Status::ok();
}

Status RelayEgress::send_idle_watermark(TimeMicros tick_wm) {
  // The pipeline's release watermark is the newest timestamp it has
  // delivered; by sortedness every future record is >= it. Until the relay
  // has released anything there is nothing safe to promise.
  if (tick_wm == INT64_MIN) return Status::ok();
  const TimeMicros candidate = tick_wm + link_.correction();
  if (candidate <= wm_out_) {
    last_wm_tx_us_ = monotonic_micros();  // nothing new to promise; re-arm
    return Status::ok();
  }
  wm_out_ = candidate;
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::relay_watermark, enc);
  tp::encode_relay_watermark({config_.relay_node, wm_out_}, enc);
  Status st = client_.send(out.view());
  if (st) last_wm_tx_us_ = monotonic_micros();
  return st;
}

}  // namespace brisk::ism
