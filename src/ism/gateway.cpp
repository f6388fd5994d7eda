#include "ism/gateway.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "clock/clock.hpp"
#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::ism {

namespace {

/// Below this many pending outbox bytes, queued frames are moved into the
/// outbox — keeps the socket fed without letting one subscriber's encode
/// burst monopolize the fan-out cycle.
constexpr std::size_t kOutboxLowWater = 64u << 10;

/// Read chunk for consumer control frames (SUBSCRIBE/UNSUBSCRIBE are tiny).
constexpr std::size_t kReadChunk = 4096;

/// Records the fan-out thread routes from the lane before it services the
/// subscribers again. Routing a whole burst first would pile it into each
/// subscriber's bounded queue, whose overflow drops the oldest frames even
/// for a consumer that keeps up; below the default queue depth, a burst
/// reaches the sockets slice by slice instead.
constexpr std::size_t kPumpSliceRecords = 256;

ByteBuffer encode_agg_frame(const tp::AggWindow& window) {
  ByteBuffer frame;
  xdr::Encoder enc(frame);
  tp::put_type(tp::MsgType::sub_agg, enc);
  tp::encode_agg_window(window, enc);
  return frame;
}

}  // namespace

std::shared_ptr<const ByteBuffer> encode_data_frame(const sensors::Record& record) {
  std::array<std::uint8_t, kMaxOutputRecordBytes> buf;
  auto payload = encode_output_into(record, buf);
  if (!payload) return nullptr;
  auto frame = std::make_shared<ByteBuffer>(  // u32 message type + opaque
      sizeof(std::uint32_t) + xdr::Encoder::opaque_wire_size(payload.value().size()));
  xdr::Encoder enc(*frame);
  tp::put_type(tp::MsgType::sub_data, enc);
  enc.put_opaque(payload.value());
  return frame;
}

Status GatewayConfig::validate() const {
  if (lane_records < 2) return Status(Errc::invalid_argument, "gateway lane too small");
  if (queue_records == 0) return Status(Errc::invalid_argument, "gateway queue depth 0");
  if (max_queue_records < queue_records) {
    return Status(Errc::invalid_argument, "gateway max queue < default queue");
  }
  if (outbox_bytes < 4096) return Status(Errc::invalid_argument, "gateway outbox too small");
  if (agg_window_us <= 0) return Status(Errc::invalid_argument, "gateway agg window <= 0");
  if (overrun_grace_us < 0) return Status(Errc::invalid_argument, "gateway overrun grace < 0");
  if (max_subscribers == 0) return Status(Errc::invalid_argument, "gateway max subscribers 0");
  return Status::ok();
}

ConsumerGateway::ConsumerGateway(const GatewayConfig& config) : config_(config) {}

Result<std::shared_ptr<ConsumerGateway>> ConsumerGateway::create(const GatewayConfig& config) {
  Status valid = config.validate();
  if (!valid) return valid;
  std::shared_ptr<ConsumerGateway> gateway(new ConsumerGateway(config));
  if (config.tcp_enabled) {
    Status st = gateway->start_tcp();
    if (!st) return st;
  }
  return gateway;
}

ConsumerGateway::~ConsumerGateway() { stop_fanout(); }

void ConsumerGateway::stop_fanout() noexcept {
  if (!tcp_running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  wakeup_.signal();
  if (fanout_thread_.joinable()) fanout_thread_.join();
}

// ---- pipeline-facing Sink ----------------------------------------------------

RunResult ConsumerGateway::accept_run(std::span<const sensors::Record> run) {
  RunResult result;
  result.accepted = run.size();
  records_in_.fetch_add(run.size(), std::memory_order_relaxed);

  // One snapshot and one bump per counter per run, whatever its length.
  const auto locals = local_snapshot();
  for (const auto& sub : *locals) {
    std::uint64_t matched = 0;
    std::uint64_t delivered = 0;
    if (sub->kind == tp::SubscriptionKind::stream) {
      // Each contiguous matched stretch reaches the sink in one call.
      std::size_t begin = 0;
      for (std::size_t i = 0; i <= run.size(); ++i) {
        if (i < run.size() && sub->filter.matches(run[i])) continue;
        if (i > begin) {
          const RunResult st = sub->sink->accept_run(run.subspan(begin, i - begin));
          matched += i - begin;
          delivered += st.accepted;
          if (!st.status.is_ok() && result.status.is_ok()) result.status = st.status;
        }
        begin = i + 1;
      }
    } else {
      std::lock_guard<std::mutex> lk(agg_mutex_);
      for (const sensors::Record& record : run) {
        if (!sub->filter.matches(record)) continue;
        ++matched;
        agg_accumulate(sub->agg, sub->window_us, record, [&](const tp::AggWindow& w) {
          sub->agg_fn(w);
          sub->counters->agg_windows.fetch_add(1, std::memory_order_relaxed);
          ++delivered;
          agg_windows_.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    if (matched != 0) sub->counters->matched.fetch_add(matched, std::memory_order_relaxed);
    if (delivered != 0) sub->counters->delivered.fetch_add(delivered, std::memory_order_relaxed);
  }

  // Feed the TCP fan-out thread only while someone is subscribed — an idle
  // gateway costs the pipeline one atomic load per run.
  if (tcp_running_.load(std::memory_order_relaxed) &&
      tcp_subscriber_count_.load(std::memory_order_relaxed) > 0) {
    bool wake = false;
    for (const sensors::Record& record : run) {
      const bool was_empty = lane_->empty();
      sensors::Record copy = record;
      if (!lane_->try_push(std::move(copy))) {
        const std::uint64_t total = lane_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (auto* flight = flight_.load(std::memory_order_acquire)) {
          flight->record(sensors::EventKind::lane_drop, 0, total,
                         clk::SystemClock::instance().now());
        }
      } else if (was_empty) {
        wake = true;
      }
    }
    if (wake) wakeup_.signal();
  }
  return result;
}

Status ConsumerGateway::flush() {
  const auto locals = local_snapshot();
  Status first_error = Status::ok();
  for (const auto& sub : *locals) {
    if (sub->kind != tp::SubscriptionKind::stream) continue;
    Status st = sub->sink->flush();
    if (!st && first_error.is_ok()) first_error = st;
  }
  return first_error;
}

void ConsumerGateway::tick(TimeMicros watermark) {
  const auto locals = local_snapshot();
  bool any_agg = false;
  for (const auto& sub : *locals) {
    if (sub->kind == tp::SubscriptionKind::stream) {
      sub->sink->tick(watermark);
    } else {
      any_agg = true;
    }
  }
  if (any_agg) {
    std::lock_guard<std::mutex> lk(agg_mutex_);
    for (const auto& sub : *locals) {
      if (sub->kind != tp::SubscriptionKind::aggregate) continue;
      agg_close_due(sub->agg, watermark, [&](const tp::AggWindow& w) {
        sub->agg_fn(w);
        sub->counters->agg_windows.fetch_add(1, std::memory_order_relaxed);
        sub->counters->delivered.fetch_add(1, std::memory_order_relaxed);
        agg_windows_.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  if (tcp_running_.load(std::memory_order_relaxed) &&
      tcp_subscriber_count_.load(std::memory_order_relaxed) > 0) {
    const TimeMicros prev = tcp_tick_watermark_.load(std::memory_order_relaxed);
    if (watermark > prev) {
      tcp_tick_watermark_.store(watermark, std::memory_order_release);
      wakeup_.signal();
    }
  }
}

Status ConsumerGateway::drain() {
  // Seal every open in-process aggregation window, then drain the sinks.
  const auto locals = local_snapshot();
  {
    std::lock_guard<std::mutex> lk(agg_mutex_);
    for (const auto& sub : *locals) {
      if (sub->kind != tp::SubscriptionKind::aggregate) continue;
      agg_close_due(sub->agg, std::numeric_limits<TimeMicros>::max(),
                    [&](const tp::AggWindow& w) {
                      sub->agg_fn(w);
                      sub->counters->agg_windows.fetch_add(1, std::memory_order_relaxed);
                      sub->counters->delivered.fetch_add(1, std::memory_order_relaxed);
                      agg_windows_.fetch_add(1, std::memory_order_relaxed);
                    });
    }
  }
  Status first_error = Status::ok();
  for (const auto& sub : *locals) {
    if (sub->kind != tp::SubscriptionKind::stream) continue;
    Status st = sub->sink->drain();
    if (!st && first_error.is_ok()) first_error = st;
  }

  // Hand the fan-out thread a drain request: flush the lane, seal TCP
  // aggregation windows, push queues out. Bounded wait — a consumer that
  // stopped reading must not wedge ISM shutdown.
  if (tcp_running_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lk(drain_mutex_);
      drain_done_ = false;
    }
    drain_requested_.store(true, std::memory_order_release);
    wakeup_.signal();
    std::unique_lock<std::mutex> lk(drain_mutex_);
    const bool done = drain_cv_.wait_for(
        lk, std::chrono::microseconds(config_.drain_timeout_us), [this] { return drain_done_; });
    if (!done && first_error.is_ok()) {
      first_error = Status(Errc::timeout, "gateway drain timed out");
    }
  }
  return first_error;
}

// ---- in-process subscriptions ------------------------------------------------

Status ConsumerGateway::add_local(std::shared_ptr<LocalSub> sub) {
  if (sub->name.empty()) return Status(Errc::invalid_argument, "empty subscriber name");
  std::lock_guard<std::mutex> lk(mutation_mutex_);
  const auto current = local_snapshot();
  for (const auto& existing : *current) {
    if (existing->name == sub->name) {
      return Status(Errc::already_exists, "subscriber '" + sub->name + "' already registered");
    }
  }
  add_stats_entry(sub->name, /*tcp=*/false, sub->counters);
  auto next = std::make_shared<LocalList>(*current);
  next->push_back(std::move(sub));
  std::atomic_store_explicit(&locals_, std::shared_ptr<const LocalList>(std::move(next)),
                             std::memory_order_release);
  return Status::ok();
}

Status ConsumerGateway::subscribe(std::string name, std::shared_ptr<Sink> sink,
                                  SubscriptionOptions options) {
  if (!sink) return Status(Errc::invalid_argument, "null sink");
  auto sub = std::make_shared<LocalSub>();
  sub->name = std::move(name);
  sub->filter = std::move(options.filter);
  sub->kind = tp::SubscriptionKind::stream;
  sub->sink = std::move(sink);
  sub->counters = std::make_shared<SubCounters>();
  return add_local(std::move(sub));
}

Status ConsumerGateway::subscribe_aggregate(std::string name, AggWindowFn fn,
                                            SubscriptionOptions options) {
  if (!fn) return Status(Errc::invalid_argument, "null aggregate callback");
  auto sub = std::make_shared<LocalSub>();
  sub->name = std::move(name);
  sub->filter = std::move(options.filter);
  sub->kind = tp::SubscriptionKind::aggregate;
  sub->agg_fn = std::move(fn);
  sub->window_us = options.agg_window_us > 0 ? options.agg_window_us : config_.agg_window_us;
  sub->counters = std::make_shared<SubCounters>();
  return add_local(std::move(sub));
}

bool ConsumerGateway::unsubscribe(const std::string& name) {
  std::lock_guard<std::mutex> lk(mutation_mutex_);
  const auto current = local_snapshot();
  auto next = std::make_shared<LocalList>();
  next->reserve(current->size());
  std::shared_ptr<LocalSub> removed;
  for (const auto& sub : *current) {
    if (!removed && sub->name == name) {
      removed = sub;
      continue;
    }
    next->push_back(sub);
  }
  if (!removed) return false;
  std::atomic_store_explicit(&locals_, std::shared_ptr<const LocalList>(std::move(next)),
                             std::memory_order_release);
  removed->counters->connected.store(false, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<Sink> ConsumerGateway::find(const std::string& name) const {
  const auto current = local_snapshot();
  for (const auto& sub : *current) {
    if (sub->name == name) return sub->sink;
  }
  return nullptr;
}

std::vector<std::string> ConsumerGateway::names() const {
  const auto current = local_snapshot();
  std::vector<std::string> out;
  out.reserve(current->size());
  for (const auto& sub : *current) out.push_back(sub->name);
  return out;
}

std::size_t ConsumerGateway::subscriber_count() const {
  return local_snapshot()->size() + tcp_subscriber_count_.load(std::memory_order_relaxed);
}

// ---- aggregation -------------------------------------------------------------

template <typename EmitFn>
void ConsumerGateway::agg_accumulate(AggState& state, TimeMicros window_us,
                                     const sensors::Record& record, EmitFn&& emit) {
  // Windows are aligned to absolute timestamp multiples of the window width
  // (floor division toward -inf), so every subscriber with the same width
  // sees the same boundaries regardless of when it joined.
  TimeMicros start = record.timestamp / window_us * window_us;
  if (record.timestamp < 0 && record.timestamp % window_us != 0) start -= window_us;

  if (state.open && record.timestamp >= state.window_end) {
    emit(agg_seal(state));
  }
  if (!state.open) {
    state.open = true;
    state.window_start = start;
    state.window_end = start + window_us;
  }
  // A late record (OOB expiry drain, merge inversion) below the open window
  // still counts into it — the merge promised no *in-order* record behind
  // the watermark, not that none exist.
  auto& key = state.keys[{record.node, record.sensor}];
  if (key.has_last) {
    const TimeMicros gap = record.timestamp - key.last_ts;
    if (!key.gaps) key.gaps = std::make_unique<metrics::Histogram>();
    key.gaps->record(gap > 0 ? static_cast<std::uint64_t>(gap) : 0);
  }
  key.count++;
  key.last_ts = record.timestamp;
  key.has_last = true;
}

template <typename EmitFn>
void ConsumerGateway::agg_close_due(AggState& state, TimeMicros watermark, EmitFn&& emit) {
  if (state.open && state.window_end <= watermark) {
    emit(agg_seal(state));
  }
}

tp::AggWindow ConsumerGateway::agg_seal(AggState& state) {
  tp::AggWindow window;
  window.window_start = state.window_start;
  window.window_end = state.window_end;
  window.keys.reserve(state.keys.size());
  for (const auto& [id, key] : state.keys) {  // std::map: already (node, sensor) sorted
    tp::AggWindow::Key out;
    out.node = id.first;
    out.sensor = id.second;
    out.count = key.count;
    if (key.gaps) {
      for (std::size_t i = 0; i < metrics::Histogram::kBucketCount; ++i) {
        const std::uint64_t count = key.gaps->bucket_count_at(i);
        if (count > 0) out.gap_buckets.emplace_back(metrics::Histogram::bucket_bound(i), count);
      }
    }
    window.keys.push_back(std::move(out));
  }
  state.keys.clear();
  state.open = false;
  return window;
}

// ---- TCP fan-out thread ------------------------------------------------------

Status ConsumerGateway::start_tcp() {
  auto listener = net::TcpListener::listen(config_.consumer_port);
  if (!listener) return listener.status();
  listener_ = std::move(listener).value();
  Status nb = listener_.set_nonblocking(true);
  if (!nb) return nb;
  listen_port_ = listener_.port();

  auto wakeup = net::WakeupPipe::create();
  if (!wakeup) return wakeup.status();
  wakeup_ = std::move(wakeup).value();

  lane_ = std::make_unique<SpscQueue<sensors::Record>>(config_.lane_records);
  poller_ = net::make_poller(config_.poller);

  Status st = poller_->watch(listener_.fd(), [this](int, net::Readiness) { on_listener_ready(); });
  if (!st) return st;
  st = poller_->watch(wakeup_.fd(), [this](int, net::Readiness) { wakeup_.drain(); });
  if (!st) return st;

  tcp_running_.store(true, std::memory_order_release);
  fanout_thread_ = std::thread([this] { fanout_loop(); });
  return Status::ok();
}

void ConsumerGateway::fanout_loop() {
  TimeMicros closed_watermark = std::numeric_limits<TimeMicros>::min();
  bool backlog = false;
  while (!stop_.load(std::memory_order_acquire)) {
    // A lane backlog is fanned out a slice per pass: the pass after a
    // partial pump polls without waiting.
    auto polled = poller_->poll_once(backlog ? 0 : config_.poll_timeout_us);
    if (!polled) {
      BRISK_LOG_ERROR << "gateway poll failed: " << polled.status().message();
      break;
    }

    // tick(W) is published after the records at or below W entered the
    // lane, so W may seal windows only once this pass has routed every
    // record that was in the lane when W was read: a window sealed ahead of
    // its records would reopen and reach the consumer twice.
    const TimeMicros watermark = tcp_tick_watermark_.load(std::memory_order_acquire);
    backlog = pump_lane();
    if (!backlog && watermark > closed_watermark) {
      close_due_tcp_windows(watermark);
      closed_watermark = watermark;
    }

    // Service every subscriber: queue → outbox → socket, overrun policy.
    // Collect fds first — service_sub may disconnect (erase from conns_).
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, sub] : conns_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns_.find(fd);
      if (it != conns_.end()) service_sub(fd, *it->second);
    }

    if (drain_requested_.load(std::memory_order_acquire)) drain_tcp();
  }

  // Thread exit: drop every connection.
  for (auto& [fd, sub] : conns_) {
    poller_->unwatch(fd);
    if (sub->subscribed) {
      sub->counters->connected.store(false, std::memory_order_relaxed);
      tcp_subscriber_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  conns_.clear();
}

void ConsumerGateway::on_listener_ready() {
  for (;;) {
    auto accepted = listener_.accept();
    if (!accepted) return;  // would_block or transient error: next cycle
    net::TcpSocket socket = std::move(accepted).value();
    if (conns_.size() >= config_.max_subscribers) {
      BRISK_LOG_WARN << "gateway refusing consumer: at max_subscribers="
                     << config_.max_subscribers;
      continue;  // socket closes on scope exit
    }
    (void)socket.set_nonblocking(true);
    (void)socket.set_nodelay(true);
    const int fd = socket.fd();
    auto sub = std::make_unique<TcpSub>(std::move(socket), config_.outbox_bytes);
    tcp_accepted_.fetch_add(1, std::memory_order_relaxed);
    Status st = poller_->watch(
        fd, [this](int ready_fd, net::Readiness ready) { on_conn_ready(ready_fd, ready); });
    if (!st) continue;
    conns_.emplace(fd, std::move(sub));
  }
}

void ConsumerGateway::on_conn_ready(int fd, net::Readiness ready) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  TcpSub& sub = *it->second;

  if (any(ready & net::Readiness::readable)) {
    std::uint8_t chunk[kReadChunk];
    for (;;) {
      auto got = sub.socket.read_some(MutableByteSpan(chunk, sizeof(chunk)));
      if (!got) {
        if (got.status().code() == Errc::would_block) break;
        disconnect(fd, "read error");
        return;
      }
      if (got.value() == 0) {
        disconnect(fd, "peer closed");
        return;
      }
      sub.reader.feed(ByteSpan(chunk, got.value()));
      if (got.value() < sizeof(chunk)) break;
    }
    for (;;) {
      auto frame = sub.reader.next();
      if (!frame) {
        disconnect(fd, "malformed frame");
        return;
      }
      if (!frame.value().has_value()) break;
      handle_frame(fd, sub, frame.value()->view());
      if (conns_.find(fd) == conns_.end()) return;  // handler disconnected us
    }
  }

  if (any(ready & net::Readiness::writable)) {
    auto it2 = conns_.find(fd);
    if (it2 != conns_.end()) service_sub(fd, *it2->second);
  }
}

void ConsumerGateway::handle_frame(int fd, TcpSub& sub, ByteSpan payload) {
  xdr::Decoder dec(payload);
  auto type = tp::peek_type(dec);
  if (!type) {
    disconnect(fd, "unreadable frame");
    return;
  }
  switch (type.value()) {
    case tp::MsgType::subscribe: {
      auto req = tp::decode_subscribe(dec);
      if (!req) {
        disconnect(fd, "malformed subscribe");
        return;
      }
      handle_subscribe(fd, sub, req.value());
      return;
    }
    case tp::MsgType::unsubscribe: {
      auto req = tp::decode_unsubscribe(dec);
      if (!req || !sub.subscribed || req.value().subscription_id != sub.id) return;
      finish_tcp_subscription(sub);
      return;
    }
    default:
      disconnect(fd, "unexpected consumer frame");
      return;
  }
}

void ConsumerGateway::handle_subscribe(int fd, TcpSub& sub, const tp::SubscribeRequest& req) {
  tp::SubscribeAck ack;
  auto reject = [&](std::string why) {
    ack.accepted = false;
    ack.message = std::move(why);
  };

  auto filter = SubscriptionFilter::parse(req.filter);
  if (!filter) {
    reject(std::string("bad filter: ") + filter.status().message());
  } else if (req.kind != tp::SubscriptionKind::stream &&
             req.kind != tp::SubscriptionKind::aggregate) {
    reject("unknown subscription kind");
  } else {
    std::string name = req.name.empty() ? "tcp-" + std::to_string(next_sub_id_) : req.name;
    bool taken = false;
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      for (const auto& entry : stats_entries_) {
        if (entry.name == name && entry.counters->connected.load(std::memory_order_relaxed)) {
          taken = true;
          break;
        }
      }
    }
    // Local names are also live stats entries, so one scan covers both.
    if (taken) {
      reject("subscriber name '" + name + "' in use");
    } else {
      if (sub.subscribed) finish_tcp_subscription(sub);  // re-subscribe replaces
      sub.subscribed = true;
      sub.id = next_sub_id_++;
      sub.name = std::move(name);
      sub.kind = req.kind;
      sub.filter = std::move(filter).value();
      sub.queue_cap = std::clamp<std::size_t>(
          req.queue_records > 0 ? req.queue_records : config_.queue_records, 1,
          config_.max_queue_records);
      sub.window_us =
          req.agg_window_us > 0 ? static_cast<TimeMicros>(req.agg_window_us) : config_.agg_window_us;
      sub.queue.clear();
      sub.agg = AggState{};
      sub.overrun_since = 0;
      sub.counters = std::make_shared<SubCounters>();
      add_stats_entry(sub.name, /*tcp=*/true, sub.counters);
      tcp_subscriber_count_.fetch_add(1, std::memory_order_relaxed);
      ack.accepted = true;
      ack.subscription_id = sub.id;
      BRISK_LOG_INFO << "gateway subscriber '" << sub.name << "' id=" << sub.id
                     << " kind=" << (sub.kind == tp::SubscriptionKind::stream ? "stream" : "agg")
                     << " filter='" << sub.filter.describe() << "' queue=" << sub.queue_cap;
    }
  }

  ByteBuffer frame;
  xdr::Encoder enc(frame);
  tp::put_type(tp::MsgType::subscribe_ack, enc);
  tp::encode_subscribe_ack(ack, enc);
  if (!sub.outbox.enqueue_frame(frame.view())) {
    disconnect(fd, "ack enqueue failed");
    return;
  }
  service_sub(fd, sub);
}

/// Ends the subscription but keeps the connection: seal the open agg
/// window, stop counting the subscriber as live.
void ConsumerGateway::finish_tcp_subscription(TcpSub& sub) {
  if (!sub.subscribed) return;
  if (sub.kind == tp::SubscriptionKind::aggregate && sub.agg.open) {
    enqueue_agg(sub, agg_seal(sub.agg));
  }
  sub.subscribed = false;
  sub.counters->connected.store(false, std::memory_order_relaxed);
  tcp_subscriber_count_.fetch_sub(1, std::memory_order_relaxed);
}

bool ConsumerGateway::pump_lane() {
  sensors::Record record;
  for (std::size_t routed = 0; routed < kPumpSliceRecords; ++routed) {
    if (!lane_->try_pop(record)) return false;
    route_record(record);
  }
  return !lane_->empty();
}

void ConsumerGateway::route_record(const sensors::Record& record) {
  std::shared_ptr<const ByteBuffer> data_frame;  // one encode, shared fan-out
  for (auto& [fd, sub_ptr] : conns_) {
    TcpSub& sub = *sub_ptr;
    if (!sub.subscribed) continue;
    if (!sub.filter.matches(record)) continue;
    sub.counters->matched.fetch_add(1, std::memory_order_relaxed);
    if (sub.kind == tp::SubscriptionKind::stream) {
      if (!data_frame) {
        data_frame = encode_data_frame(record);
        if (!data_frame) {
          BRISK_LOG_WARN << "gateway failed to encode record for fan-out";
          return;
        }
      }
      enqueue_frame(sub, data_frame);
    } else {
      agg_accumulate(sub.agg, sub.window_us, record,
                     [&](const tp::AggWindow& w) { enqueue_agg(sub, w); });
    }
  }
}

void ConsumerGateway::enqueue_frame(TcpSub& sub, std::shared_ptr<const ByteBuffer> frame) {
  if (sub.queue.size() >= sub.queue_cap) {
    // Drop-oldest: the freshest data survives a stall, and the reader can
    // tell from its dropped counter (0xFF01 stream) that a gap exists.
    sub.queue.pop_front();
    sub.counters->dropped.fetch_add(1, std::memory_order_relaxed);
    if (auto* flight = flight_.load(std::memory_order_acquire)) {
      flight->record(sensors::EventKind::queue_drop, sub.id, sub.queue_cap,
                     clk::SystemClock::instance().now());
    }
    if (sub.overrun_since == 0) sub.overrun_since = monotonic_micros();
  }
  sub.queue.push_back(std::move(frame));
  sub.counters->queued.store(sub.queue.size(), std::memory_order_relaxed);
}

void ConsumerGateway::enqueue_agg(TcpSub& sub, const tp::AggWindow& window) {
  auto frame = std::make_shared<const ByteBuffer>(encode_agg_frame(window));
  sub.counters->agg_windows.fetch_add(1, std::memory_order_relaxed);
  agg_windows_.fetch_add(1, std::memory_order_relaxed);
  enqueue_frame(sub, std::move(frame));
}

void ConsumerGateway::service_sub(int fd, TcpSub& sub) {
  while (!sub.queue.empty() && sub.outbox.pending_bytes() < kOutboxLowWater) {
    Status st = sub.outbox.enqueue_frame(sub.queue.front()->view());
    if (!st) break;  // outbox at cap; keep the frame queued
    sub.queue.pop_front();
    sub.counters->delivered.fetch_add(1, std::memory_order_relaxed);
  }
  sub.counters->queued.store(sub.queue.size(), std::memory_order_relaxed);

  Status st = sub.outbox.pump(sub.socket);
  if (!st) {
    disconnect(fd, "write error");
    return;
  }

  // Overrun policy: recovered means the queue fell back to half its cap;
  // stuck past the grace period means eviction.
  if (sub.overrun_since != 0) {
    if (sub.queue.size() * 2 <= sub.queue_cap) {
      sub.overrun_since = 0;
    } else if (monotonic_micros() - sub.overrun_since >= config_.overrun_grace_us) {
      tcp_evicted_.fetch_add(1, std::memory_order_relaxed);
      if (auto* flight = flight_.load(std::memory_order_acquire)) {
        flight->record(sensors::EventKind::subscriber_evicted, sub.id,
                       sub.counters->dropped.load(std::memory_order_relaxed),
                       clk::SystemClock::instance().now());
      }
      BRISK_LOG_WARN << "gateway evicting slow consumer '" << sub.name << "' (dropped "
                     << sub.counters->dropped.load(std::memory_order_relaxed) << " frames)";
      disconnect(fd, "slow consumer");
      return;
    }
  }
  update_write_interest(fd, sub);
}

void ConsumerGateway::update_write_interest(int fd, TcpSub& sub) {
  const bool want = !sub.outbox.empty() || !sub.queue.empty();
  if (want == sub.want_writable) return;
  sub.want_writable = want;
  const net::Readiness interest =
      want ? (net::Readiness::readable | net::Readiness::writable) : net::Readiness::readable;
  (void)poller_->watch(
      fd, interest, [this](int ready_fd, net::Readiness ready) { on_conn_ready(ready_fd, ready); });
}

void ConsumerGateway::disconnect(int fd, const char* why) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  TcpSub& sub = *it->second;
  if (sub.subscribed) {
    sub.subscribed = false;
    sub.counters->connected.store(false, std::memory_order_relaxed);
    tcp_subscriber_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  BRISK_LOG_INFO << "gateway dropping consumer"
                 << (sub.name.empty() ? "" : (" '" + sub.name + "'")) << ": " << why;
  (void)poller_->unwatch(fd);
  conns_.erase(it);
}

void ConsumerGateway::close_due_tcp_windows(TimeMicros watermark) {
  for (auto& [fd, sub_ptr] : conns_) {
    TcpSub& sub = *sub_ptr;
    if (!sub.subscribed || sub.kind != tp::SubscriptionKind::aggregate) continue;
    agg_close_due(sub.agg, watermark, [&](const tp::AggWindow& w) { enqueue_agg(sub, w); });
  }
}

/// Shutdown flush on the fan-out thread: lane → queues → sockets, bounded
/// by the drain timeout (the poll loop keeps servicing while we wait).
void ConsumerGateway::drain_tcp() {
  bool pending = pump_lane();
  // Once the lane is empty, seal every open aggregation window so consumers
  // see the tail.
  for (auto& [fd, sub_ptr] : conns_) {
    TcpSub& sub = *sub_ptr;
    if (!pending && sub.subscribed && sub.kind == tp::SubscriptionKind::aggregate &&
        sub.agg.open) {
      enqueue_agg(sub, agg_seal(sub.agg));
    }
  }
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, sub] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    service_sub(fd, *it->second);
    it = conns_.find(fd);
    if (it != conns_.end() && (!it->second->queue.empty() || !it->second->outbox.empty())) {
      pending = true;
    }
  }
  if (pending && !stop_.load(std::memory_order_acquire)) return;  // keep polling
  drain_requested_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(drain_mutex_);
    drain_done_ = true;
  }
  drain_cv_.notify_all();
}

// ---- observability -----------------------------------------------------------

void ConsumerGateway::add_stats_entry(std::string name, bool tcp,
                                      std::shared_ptr<SubCounters> counters) {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  // A re-subscribed name replaces its dead predecessor's entry, so the
  // per-subscriber metric series stays single-valued.
  for (auto& entry : stats_entries_) {
    if (entry.name == name) {
      entry.tcp = tcp;
      entry.counters = std::move(counters);
      return;
    }
  }
  stats_entries_.push_back(StatsEntry{std::move(name), tcp, std::move(counters)});
}

GatewayStats ConsumerGateway::stats() const {
  GatewayStats out;
  out.records_in = records_in_.load(std::memory_order_relaxed);
  out.lane_drops = lane_drops_.load(std::memory_order_relaxed);
  out.tcp_accepted = tcp_accepted_.load(std::memory_order_relaxed);
  out.tcp_subscribers = tcp_subscriber_count_.load(std::memory_order_relaxed);
  out.tcp_evicted = tcp_evicted_.load(std::memory_order_relaxed);
  out.agg_windows = agg_windows_.load(std::memory_order_relaxed);
  return out;
}

std::vector<SubscriberStats> ConsumerGateway::subscriber_stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  std::vector<SubscriberStats> out;
  out.reserve(stats_entries_.size());
  for (const auto& entry : stats_entries_) {
    SubscriberStats s;
    s.name = entry.name;
    s.tcp = entry.tcp;
    s.connected = entry.counters->connected.load(std::memory_order_relaxed);
    s.matched = entry.counters->matched.load(std::memory_order_relaxed);
    s.delivered = entry.counters->delivered.load(std::memory_order_relaxed);
    s.dropped = entry.counters->dropped.load(std::memory_order_relaxed);
    s.queued = entry.counters->queued.load(std::memory_order_relaxed);
    s.agg_windows = entry.counters->agg_windows.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void ConsumerGateway::register_metrics(metrics::MetricsRegistry& registry) {
  registry.add_collector([this](metrics::SnapshotBuilder& builder) {
    const GatewayStats totals = stats();
    builder.counter("ism.gateway.records_in", totals.records_in);
    builder.counter("ism.gateway.lane_drops", totals.lane_drops);
    builder.counter("ism.gateway.tcp_accepted", totals.tcp_accepted);
    builder.gauge("ism.gateway.tcp_subscribers", totals.tcp_subscribers);
    builder.counter("ism.gateway.tcp_evicted", totals.tcp_evicted);
    builder.counter("ism.gateway.agg_windows", totals.agg_windows);
    for (const SubscriberStats& s : subscriber_stats()) {
      const std::string base = "ism.gateway.sub." + s.name;
      builder.counter(base + ".matched", s.matched);
      builder.counter(base + ".delivered", s.delivered);
      builder.counter(base + ".dropped", s.dropped);
      builder.gauge(base + ".queued", s.queued);
    }
  });
}

}  // namespace brisk::ism
