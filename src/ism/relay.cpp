#include "ism/relay.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
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
  link.pace = config.pace;
  return link;
}

std::uint64_t derive_incarnation() {
  return (static_cast<std::uint64_t>(::getpid()) << 32) ^
         static_cast<std::uint64_t>(monotonic_micros());
}

}  // namespace

Result<std::shared_ptr<RelayEgress>> RelayEgress::connect(const RelayConfig& config,
                                                          clk::Clock& clock) {
  RelayConfig cfg = config;
  if (cfg.incarnation == 0) cfg.incarnation = derive_incarnation();
  auto socket = net::TcpSocket::connect(cfg.parent_host, cfg.parent_port);
  if (!socket) return socket.status();
  Status st = socket.value().set_nodelay(true);
  if (!st) return st;
  auto relay =
      std::shared_ptr<RelayEgress>(new RelayEgress(cfg, clock, std::move(socket).value()));
  st = relay->link_.send_hello();
  if (!st) return st;
  st = relay->socket_.set_nonblocking(true);
  if (!st) return st;
  relay->connected_.store(true, std::memory_order_relaxed);
  relay->thread_ = std::thread([raw = relay.get()] { raw->run(); });
  return relay;
}

RelayEgress::RelayEgress(const RelayConfig& config, clk::Clock& clock, net::TcpSocket socket)
    : config_(config),
      clock_(clock),
      socket_(std::move(socket)),
      outbox_(config.outbox_bytes),
      queue_(config.queue_records),
      link_(make_link_config(config), clock,
            [this](ByteBuffer payload) {
              // Egress thread only. Transport loss is survived by the
              // reconnect schedule; the link must not see it as fatal.
              Status st = send_frame(payload.view());
              if (!st) handle_disconnect();
              return Status::ok();
            }),
      builder_(config.relay_node),
      reconnect_(config.reconnect,
                 static_cast<std::uint64_t>(config.relay_node) ^ config.incarnation),
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
  s.sync_polls_answered = sync_polls_answered_.load(std::memory_order_relaxed);
  s.sync_adjustments = sync_adjustments_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(link_mutex_);
  s.metrics_absorbed = aggregator_.absorbed();
  s.aggregated_flushes = aggregator_.flushes();
  s.link = link_.stats();
  return s;
}

void RelayEgress::run() {
  // The poller is the egress thread's wait primitive: readable wakes it for
  // parent acks/sync polls, writable (subscribed only while the outbox has
  // deferred bytes) wakes it the moment the kernel buffer drains. A
  // backend that fails to construct degrades to plain fixed-interval naps.
  poller_ = net::make_poller(config_.poller);
  watch_socket();
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lk(link_mutex_);
      Status st = cycle();
      if (!st) {
        if (link_.saw_bye()) {
          // Parent shut down cleanly; nothing more will be acked.
          drained_.store(true, std::memory_order_relaxed);
          return;
        }
        handle_disconnect();
      }
    }
    if (poller_ && watched_fd_ >= 0) {
      (void)poller_->poll_once(config_.poll_timeout_us);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(config_.poll_timeout_us));
    }
  }
}

Status RelayEgress::send_frame(ByteSpan payload) {
  Status st = outbox_.enqueue_frame(payload);
  if (st.code() == Errc::buffer_full) {
    // The outbox cap is the relay's backpressure boundary: block here (the
    // egress thread only — the pipeline keeps filling the SPSC queue) until
    // the parent drains enough or the stall window closes the link.
    const TimeMicros deadline = monotonic_micros() + config_.send_stall_timeout_us;
    if (metrics::FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
      flight->record(sensors::EventKind::watermark_stall, config_.relay_node,
                     outbox_.pending_bytes(), clock_.now());
    }
    for (;;) {
      Status pump_st = outbox_.pump(socket_);
      if (!pump_st) return pump_st;
      st = outbox_.enqueue_frame(payload);
      if (st.code() != Errc::buffer_full) break;
      if (monotonic_micros() >= deadline) {
        return Status(Errc::timeout, "relay outbox wedged past send stall timeout");
      }
      sleep_micros(1'000);
    }
  }
  if (!st) return st;
  Status pump_st = outbox_.pump(socket_);
  if (pump_st) last_tx_us_ = monotonic_micros();
  update_write_interest();
  return pump_st;
}

void RelayEgress::watch_socket() {
  if (!poller_) return;
  if (watched_fd_ >= 0 && watched_fd_ != socket_.fd()) unwatch_socket();
  if (!socket_.valid() || !connected_.load(std::memory_order_relaxed)) return;
  net::Readiness interest = net::Readiness::readable;
  if (want_writable_) interest = interest | net::Readiness::writable;
  // Wake-only callback: the cycle that follows poll_once() does all the
  // actual socket work under link_mutex_.
  Status st = poller_->watch(socket_.fd(), interest, [](int, net::Readiness) {});
  watched_fd_ = st ? socket_.fd() : -1;
}

void RelayEgress::unwatch_socket() {
  if (poller_ && watched_fd_ >= 0) (void)poller_->unwatch(watched_fd_);
  watched_fd_ = -1;
}

void RelayEgress::update_write_interest() {
  const bool want = !outbox_.empty();
  if (want == want_writable_) return;
  want_writable_ = want;
  watch_socket();
}

Status RelayEgress::cycle() {
  if (!connected_.load(std::memory_order_relaxed)) {
    maybe_reconnect();
    if (!connected_.load(std::memory_order_relaxed)) return Status::ok();
  }
  if (!outbox_.empty()) {
    // The poller woke us because the kernel buffer drained (or the nap
    // expired); flush deferred frames before generating new ones.
    Status st = outbox_.pump(socket_);
    if (!st) return st;
    if (outbox_.empty()) last_tx_us_ = monotonic_micros();
    update_write_interest();
  }
  Status st = pump_socket();
  if (!st) return st;
  // Capture the promise *before* draining the queue: any record this cycle
  // does not see was delivered after this tick value was published, and the
  // pipeline delivers in sorted order, so its timestamp is >= the promise.
  // Reading the tick afterwards could promise over a record that slipped
  // into the queue in between.
  const TimeMicros promised_wm = tick_watermark_.load(std::memory_order_relaxed);
  st = service_queue();
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
  if (config_.heartbeat_period_us > 0 && now - last_tx_us_ >= config_.heartbeat_period_us) {
    st = link_.send_heartbeat();
    if (!st) return st;
  }
  if (draining && !drained_.load(std::memory_order_relaxed) && queue_.empty() &&
      builder_.empty() && outbox_.empty() && link_.replay().empty() &&
      !link_.awaiting_ack()) {
    // Everything shipped and acked (outbox included — a deferred frame must
    // not be overtaken by the goodbye): say goodbye. The parent flushes
    // this relay's merge lane on the BYE, releasing records the watermark
    // still gated.
    ByteBuffer out;
    xdr::Encoder enc(out);
    tp::put_type(tp::MsgType::bye, enc);
    st = send_frame(out.view());
    if (!st) return st;
    drained_.store(true, std::memory_order_relaxed);
  }
  return Status::ok();
}

Status RelayEgress::pump_socket() {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    auto n = socket_.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n) {
      if (n.status().code() == Errc::would_block) return Status::ok();
      return n.status();
    }
    if (n.value() == 0) return Status(Errc::closed, "parent ISM closed connection");
    frame_reader_.feed(ByteSpan{chunk, n.value()});
    for (;;) {
      auto frame = frame_reader_.next();
      if (!frame) return frame.status();
      if (!frame.value().has_value()) break;
      Status st = handle_frame(frame.value()->view());
      if (!st) return st;
    }
  }
}

Status RelayEgress::handle_frame(ByteSpan payload) {
  xdr::Decoder decoder(payload);
  auto type = tp::peek_type(decoder);
  if (!type) return type.status();
  switch (type.value()) {
    case tp::MsgType::time_req: {
      // The parent's clock-sync master polls the relay exactly as it would
      // an EXS; answer with the relay clock plus the parent-relative
      // correction accumulated so far.
      auto req = tp::decode_time_req(decoder);
      if (!req) return req.status();
      ByteBuffer out;
      xdr::Encoder enc(out);
      tp::put_type(tp::MsgType::time_resp, enc);
      tp::encode_time_resp(
          {req.value().request_id,
           clock_.now() + correction_.load(std::memory_order_relaxed)},
          enc);
      sync_polls_answered_.fetch_add(1, std::memory_order_relaxed);
      return send_frame(out.view());
    }
    case tp::MsgType::adjust: {
      auto adj = tp::decode_adjust(decoder);
      if (!adj) return adj.status();
      correction_.fetch_add(adj.value().delta, std::memory_order_relaxed);
      sync_adjustments_.fetch_add(1, std::memory_order_relaxed);
      return Status::ok();
    }
    default:
      if (tp::UpstreamLink::owns_frame(type.value())) {
        return link_.handle_frame(type.value(), decoder);
      }
      return Status(Errc::malformed, "unexpected message type at relay egress");
  }
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
      sensors::apply_time_delta(record, correction_.load(std::memory_order_relaxed));
      aggregator_.absorb(record);
      continue;
    }
    if (record.node == sensors::kIsmMetricsNodeId) record.node = config_.relay_node;
    sensors::apply_time_delta(record, correction_.load(std::memory_order_relaxed));
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
  const TimeMicros candidate = tick_wm + correction_.load(std::memory_order_relaxed);
  if (candidate <= wm_out_) {
    last_wm_tx_us_ = monotonic_micros();  // nothing new to promise; re-arm
    return Status::ok();
  }
  wm_out_ = candidate;
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::relay_watermark, enc);
  tp::encode_relay_watermark({config_.relay_node, wm_out_}, enc);
  Status st = send_frame(out.view());
  if (st) last_wm_tx_us_ = monotonic_micros();
  return st;
}

void RelayEgress::handle_disconnect() {
  if (!connected_.load(std::memory_order_relaxed)) return;
  connected_.store(false, std::memory_order_relaxed);
  unwatch_socket();
  socket_.close();
  frame_reader_ = net::FrameReader{};
  // Deferred frames die with the connection; the replay buffer re-ships
  // everything that matters after the reconnect handshake.
  outbox_ = net::FrameSendBuffer(config_.outbox_bytes);
  want_writable_ = false;
  link_.on_disconnect();
  reconnect_.arm(monotonic_micros());
  BRISK_LOG_WARN << "relay " << config_.relay_node
                 << ": lost parent ISM connection, entering reconnect";
}

void RelayEgress::maybe_reconnect() {
  if (!reconnect_.due(monotonic_micros())) return;
  auto socket = net::TcpSocket::connect(config_.parent_host, config_.parent_port);
  if (socket) {
    net::TcpSocket fresh = std::move(socket).value();
    Status st = fresh.set_nodelay(true);
    if (st) st = fresh.set_nonblocking(true);
    if (st) {
      socket_ = std::move(fresh);
      connected_.store(true, std::memory_order_relaxed);
      watch_socket();
      reconnect_.record_success();
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (metrics::FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
        flight->record(sensors::EventKind::reconnect, config_.relay_node,
                       reconnects_.load(std::memory_order_relaxed), clock_.now());
      }
      // Watermarks are cumulative promises; after replay the parent's lane
      // watermark catches back up with the next batch or idle frame.
      BRISK_LOG_INFO << "relay " << config_.relay_node << ": reconnected to parent ISM";
      (void)link_.on_reconnected();
      return;
    }
  }
  if (!reconnect_.record_failure(monotonic_micros())) {
    BRISK_LOG_ERROR << "relay " << config_.relay_node << ": giving up after "
                    << reconnect_.failed_attempts() << " reconnect attempts";
    stop_.store(true, std::memory_order_relaxed);
  }
}

}  // namespace brisk::ism
