// The socket half of a TP client: one implementation of "keep an upstream
// connection alive", beside the socket-free tp::UpstreamLink it drives.
//
// Two users:
//  * lis::ExternalSensor, the EXS daemon's connection to its ISM, and
//  * ism::RelayEgress, a relay ISM's connection to its parent.
//
// The client owns the TCP connection and everything that happens at it:
//  * inbound: the read loop and the FrameReader, handing every frame to
//    UpstreamLink::handle_frame;
//  * outbound: a FrameSendBuffer behind a net::FaultySocket, so a full
//    kernel send buffer defers whole frames instead of blocking; only when
//    the outbox itself hits its cap does a send fall back to a bounded
//    blocking flush (send_stall_timeout_us) — the backpressure that
//    ultimately slows the sender down. With no fault policy installed the
//    wire bytes are exactly the frames offered;
//  * the poller subscription: readable always, writable only while the
//    outbox holds deferred bytes (want-writable toggling). The callback
//    only notes the readiness and wakes the owner's thread; service() does
//    the socket work the readiness calls for;
//  * survival: on any transport error, or silence past silence_timeout_us,
//    it drops the socket, tells the link, and reconnects on a
//    ReconnectSchedule (exponential backoff + jitter) until the attempt
//    budget is spent;
//  * the heartbeat cadence.
//
// Threading: one thread (the EXS loop thread, or the relay's egress
// thread) calls everything except connected(), set_flight_recorder() and
// poller().stop(), which any thread may call.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "metrics/flight_recorder.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "tp/upstream_link.hpp"

namespace brisk::tp {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  net::PollerBackend poller = net::PollerBackend::select;
  /// Cap on deferred outbound bytes; past it a send blocks flushing for at
  /// most send_stall_timeout_us before the link counts as lost.
  std::size_t outbox_bytes = net::kDefaultSendBufferBytes;
  TimeMicros send_stall_timeout_us = 2'000'000;
  /// A heartbeat goes out when nothing else was sent for this long (0 = never).
  TimeMicros heartbeat_period_us = 1'000'000;
  /// Drop a link that delivered nothing for this long (0 = never).
  TimeMicros silence_timeout_us = 0;
  ReconnectConfig reconnect;
  /// Prefix of this client's log lines ("EXS node 3", "relay 101").
  std::string log_name = "upstream client";
};

class UpstreamClient {
 public:
  /// `link` must outlive the client, and its FrameSink must hand frames to
  /// this client's send().
  UpstreamClient(const ClientConfig& config, UpstreamLink& link);

  /// Opens the first connection and sends HELLO. It must succeed; later
  /// losses are survived by the reconnect schedule.
  Status connect();

  /// Sends one frame: through the fault policy into the outbox, then
  /// pumped as far as the socket takes it. Errc::closed while the link is
  /// down. A failure drops the connection (arming the reconnect) before it
  /// is returned.
  Status send(ByteSpan payload);

  /// One client cycle, run after each wait on poller(): reconnects when
  /// due, flushes deferred frames once the socket is writable, reads and
  /// dispatches every inbound frame once it is readable, sends a heartbeat
  /// when due, and drops a silent link. Transport errors are handled here. Returns
  /// non-ok only once the client is finished: the upstream said BYE
  /// (link.saw_bye()) or the reconnect budget is spent.
  Status service();

  /// Drops the connection and arms an immediate reconnect (no-op while down).
  void handle_disconnect();

  /// The poller the client's socket is watched on; the owner sleeps on it.
  [[nodiscard]] net::Poller& poller() noexcept { return *poller_; }
  [[nodiscard]] bool connected() const noexcept {
    return connected_.load(std::memory_order_relaxed);
  }
  /// True while the subscription includes Readiness::writable.
  [[nodiscard]] bool want_writable() const noexcept { return want_writable_; }
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return outbox_.pending_bytes(); }

  /// Installs a frame-level fault policy on the outbound path. Must be set
  /// before the owner's loop runs.
  void set_fault_policy(net::FaultPolicy policy) { fault_.set_policy(std::move(policy)); }
  [[nodiscard]] const net::FaultStats& fault_stats() const noexcept { return fault_.stats(); }

  /// Where reconnect and outbox-stall events are recorded; null detaches.
  void set_flight_recorder(metrics::FlightRecorder* flight) noexcept {
    flight_.store(flight, std::memory_order_release);
  }

 private:
  /// Connects, sets nodelay + nonblocking, and watches the new socket.
  Status open();
  void maybe_reconnect();
  Status write(ByteSpan payload);
  Status pump_socket();
  /// Reconciles the poller subscription with the outbox.
  void update_write_interest();
  net::Poller::Callback on_ready();
  void record(sensors::EventKind kind, std::uint64_t value);

  ClientConfig config_;
  UpstreamLink& link_;
  std::unique_ptr<net::Poller> poller_;
  net::TcpSocket socket_;
  net::FaultySocket fault_;
  net::FrameReader reader_;
  net::FrameSendBuffer outbox_;
  ReconnectSchedule reconnect_;
  std::atomic<bool> connected_{false};
  std::atomic<metrics::FlightRecorder*> flight_{nullptr};
  net::Readiness ready_ = net::Readiness::none;  // reported since the last service()
  bool want_writable_ = false;
  bool gave_up_ = false;
  TimeMicros last_rx_us_ = 0;  // monotonic, any inbound bytes
  TimeMicros last_tx_us_ = 0;  // monotonic, any outbound frame
};

}  // namespace brisk::tp
