#include "tp/upstream_client.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/time_util.hpp"

namespace brisk::tp {

UpstreamClient::UpstreamClient(const ClientConfig& config, UpstreamLink& link)
    : config_(config),
      link_(link),
      poller_(net::make_poller(config.poller)),
      outbox_(config.outbox_bytes),
      reconnect_(config.reconnect, link.config().node ^ link.config().incarnation) {}

Status UpstreamClient::connect() {
  Status st = open();
  if (!st) return st;
  st = link_.send_hello();
  if (!st) return st;
  if (!connected()) return Status(Errc::closed, "upstream connection lost during hello");
  return Status::ok();
}

Status UpstreamClient::open() {
  auto socket = net::TcpSocket::connect(config_.host, config_.port);
  if (!socket) return socket.status();
  net::TcpSocket fresh = std::move(socket).value();
  Status st = fresh.set_nodelay(true);
  if (st) st = fresh.set_nonblocking(true);
  if (st) st = poller_->watch(fresh.fd(), net::Readiness::readable, on_ready());
  if (!st) return st;
  socket_ = std::move(fresh);
  connected_.store(true, std::memory_order_relaxed);
  last_rx_us_ = monotonic_micros();
  return Status::ok();
}

Status UpstreamClient::send(ByteSpan payload) {
  if (!connected()) return Status(Errc::closed, "upstream link down");
  Status st = write(payload);
  if (!st) handle_disconnect();
  return st;
}

Status UpstreamClient::write(ByteSpan payload) {
  Status st = fault_.write_frame(socket_, outbox_, payload);
  if (st.code() == Errc::buffer_full) {
    // The outbox itself is at its cap: the upstream has stopped reading
    // well past one kernel buffer of data. Block here — bounded — so the
    // backpressure reaches the sender (the EXS's rings, the relay's
    // queue); past the deadline the link counts as lost.
    const TimeMicros deadline = monotonic_micros() + config_.send_stall_timeout_us;
    record(sensors::EventKind::watermark_stall, outbox_.pending_bytes());
    for (;;) {
      Status pumped = outbox_.pump(socket_);
      if (!pumped) return pumped;
      // The fault decision for this frame already ran above; the retry
      // enqueues the surviving payload directly.
      st = outbox_.enqueue_frame(payload);
      if (st.code() != Errc::buffer_full) break;
      if (monotonic_micros() >= deadline) {
        return Status(Errc::timeout, "outbox wedged past send stall timeout");
      }
      sleep_micros(1'000);
    }
    if (st) st = outbox_.pump(socket_);
  }
  if (st) last_tx_us_ = monotonic_micros();
  update_write_interest();
  return st;
}

void UpstreamClient::update_write_interest() {
  const bool want = !outbox_.empty();
  if (want == want_writable_ || !connected()) return;
  const net::Readiness interest =
      want ? net::Readiness::readable | net::Readiness::writable : net::Readiness::readable;
  // On failure the old subscription stands, and so does the flag; the next
  // service() flushes the outbox either way.
  if (poller_->watch(socket_.fd(), interest, on_ready())) want_writable_ = want;
}

net::Poller::Callback UpstreamClient::on_ready() {
  // The poller only notes the readiness and wakes the owner's thread;
  // service() does the socket work.
  return [this](int, net::Readiness ready) { ready_ = ready_ | ready; };
}

Status UpstreamClient::service() {
  if (gave_up_) return Status(Errc::closed, "reconnect attempts exhausted");
  if (!connected()) {
    maybe_reconnect();
    if (gave_up_) return Status(Errc::closed, "reconnect attempts exhausted");
    if (!connected()) return Status::ok();
  }
  // Only what the last wait reported: no syscall that is bound to find
  // the socket not ready.
  const net::Readiness ready = std::exchange(ready_, net::Readiness::none);
  Status st = Status::ok();
  if (any(ready & net::Readiness::writable) && !outbox_.empty()) {
    // The kernel buffer drained: flush deferred frames before anything new
    // is generated.
    st = outbox_.pump(socket_);
    if (st && outbox_.empty()) last_tx_us_ = monotonic_micros();
    if (st) update_write_interest();
  }
  if (st && any(ready & net::Readiness::readable)) st = pump_socket();
  if (!st) {
    if (link_.saw_bye()) return st;  // clean shutdown, not a link failure
    BRISK_LOG_WARN << config_.log_name << ": upstream link error: " << st.to_string();
    handle_disconnect();
    return Status::ok();
  }
  if (!connected()) return Status::ok();  // a reply to an inbound frame failed
  const TimeMicros now = monotonic_micros();
  if (config_.heartbeat_period_us > 0 && now - last_tx_us_ >= config_.heartbeat_period_us) {
    (void)link_.send_heartbeat();
  }
  if (connected() && config_.silence_timeout_us > 0 &&
      now - last_rx_us_ > config_.silence_timeout_us) {
    BRISK_LOG_WARN << config_.log_name << ": upstream silent past timeout, dropping half-open link";
    handle_disconnect();
  }
  return Status::ok();
}

Status UpstreamClient::pump_socket() {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    auto n = socket_.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n) {
      if (n.status().code() == Errc::would_block) return Status::ok();
      return n.status();
    }
    if (n.value() == 0) return Status(Errc::closed, "upstream ISM closed the connection");
    last_rx_us_ = monotonic_micros();
    reader_.feed(ByteSpan{chunk, n.value()});
    for (;;) {
      auto frame = reader_.next();
      if (!frame) return frame.status();
      if (!frame.value().has_value()) break;
      Status st = link_.handle_frame(frame.value()->view());
      if (!st) return st;
      if (!connected()) return Status::ok();  // the reply's send dropped the link
    }
  }
}

void UpstreamClient::handle_disconnect() {
  if (!connected()) return;
  connected_.store(false, std::memory_order_relaxed);
  (void)poller_->unwatch(socket_.fd());
  socket_.close();
  reader_ = net::FrameReader{};
  // Deferred frames die with the connection; replay re-ships what matters.
  outbox_ = net::FrameSendBuffer(config_.outbox_bytes);
  want_writable_ = false;
  ready_ = net::Readiness::none;
  link_.on_disconnect();
  reconnect_.arm(monotonic_micros());  // first retry on the next service()
  BRISK_LOG_WARN << config_.log_name << ": lost upstream ISM connection, entering reconnect";
}

void UpstreamClient::maybe_reconnect() {
  if (!reconnect_.due(monotonic_micros())) return;
  if (open()) {
    reconnect_.record_success();
    BRISK_LOG_INFO << config_.log_name << ": reconnected to upstream ISM";
    // Re-hello; the HELLO_ACK cursor triggers replay of unacked batches.
    (void)link_.on_reconnected();
    record(sensors::EventKind::reconnect, link_.stats().reconnects);
    return;
  }
  if (!reconnect_.record_failure(monotonic_micros())) {
    BRISK_LOG_ERROR << config_.log_name << ": giving up after "
                    << reconnect_.failed_attempts() << " reconnect attempts";
    gave_up_ = true;
  }
}

void UpstreamClient::record(sensors::EventKind kind, std::uint64_t value) {
  if (metrics::FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
    flight->record(kind, link_.config().node, value, link_.corrected_now());
  }
}

}  // namespace brisk::tp
