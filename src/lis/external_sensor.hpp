// The external sensor (EXS): the daemon half of the LIS.
//
// "The memory is read by an external sensor, which runs as another process
// on the same node and may be assigned a lower priority. Both the internal
// sensors and the external sensor form an LIS that sends instrumentation
// data to the ISM."
//
// Split in two layers:
//  * ExsCore — the node-side logic, deterministic and socket-free: drains
//    rings, applies the clock correction, batches, and ships self-metrics.
//    The session and clock-sync protocol (HELLO/HELLO_ACK/BATCH_ACK,
//    go-back-N replay, credit pacing, TIME_REQ/ADJUST) lives in the shared
//    tp::UpstreamLink — the same link a relay ISM uses toward its parent.
//    Tests drive the core directly.
//  * ExternalSensor — binds ExsCore to the ISM through a tp::UpstreamClient
//    (the socket, outbox, reconnect schedule, heartbeat and silence
//    timeout, shared with the relay egress) and runs the poller loop. While
//    the link is down the core keeps draining rings into the bounded
//    replay buffer. This is what the brisk_exs executable runs.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clock/clock.hpp"
#include "lis/batcher.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/metrics.hpp"
#include "lis/exs_config.hpp"
#include "shm/multi_ring.hpp"
#include "tp/upstream_client.hpp"
#include "tp/upstream_link.hpp"
#include "tp/wire.hpp"

namespace brisk::lis {

/// Sends a frame payload to the ISM.
using FrameSink = std::function<Status(ByteBuffer payload)>;

class ExsCore {
 public:
  /// `rings` is the node's sensor ring directory; `clock` is the node
  /// clock; `sink` carries frames to the ISM.
  ExsCore(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock, FrameSink sink);

  /// Drains up to config.drain_burst records across all claimed rings into
  /// the batcher. Returns the number of records drained. One call is one
  /// loop wakeup; the call also measures the ring fill rate next_wait_us()
  /// predicts from.
  Result<std::size_t> drain_rings();

  /// How long the loop may sleep after a cycle that ran at node-clock time
  /// `now`: until the next batch is due to seal, never past
  /// select_timeout_us (the idle cap). The smallest of
  ///  * select_timeout_us;
  ///  * batch_max_age_us (when > 0) — the open batch's remaining age when a
  ///    batch is open, so a record NOTICEd just after a drain still seals
  ///    within the age bound;
  ///  * the time the last drain's fill rate (records drained / time since
  ///    the drain before it) needs to fill the open batch, floored at
  ///    kMinLoopWaitUs;
  ///  * 0 when the last drain stopped at drain_burst with the rings still
  ///    holding records — unless the link cannot send (down, awaiting its
  ///    HELLO_ACK, or credit-stalled), where draining on only moves records
  ///    from the rings into the replay buffer.
  [[nodiscard]] TimeMicros next_wait_us(TimeMicros now) const noexcept;

  /// Age-based flush; call once per loop cycle.
  Status maybe_flush() { return batcher_.maybe_flush(); }
  Status flush() { return batcher_.flush(); }

  /// Handles one frame from the ISM; see tp::UpstreamLink::handle_frame.
  Status handle_frame(ByteSpan payload) { return link_.handle_frame(payload); }

  /// Opens (or re-opens) the session; see tp::UpstreamLink::send_hello.
  Status send_hello() { return link_.send_hello(); }

  /// Snapshots the metrics registry into reserved-sensor-id records and
  /// feeds them through the batcher — metrics ship in-band, exactly like
  /// sensor records (batched, replayed, deduped).
  Status emit_metrics();

  /// Transport notifications from the daemon layer; see tp::UpstreamLink.
  void on_disconnect() noexcept { link_.on_disconnect(); }
  Status on_reconnected() { return link_.on_reconnected(); }

  /// The clock correction the sync protocol has accumulated; see
  /// tp::UpstreamLink::correction.
  [[nodiscard]] TimeMicros correction() const noexcept { return link_.correction(); }

  /// True once the ISM sent BYE (clean shutdown, not a link failure).
  [[nodiscard]] bool saw_bye() const noexcept { return link_.saw_bye(); }
  /// True while batches are gated on a pending HELLO_ACK.
  [[nodiscard]] bool awaiting_ack() const noexcept { return link_.awaiting_ack(); }
  [[nodiscard]] const tp::ReplayBuffer& replay() const noexcept { return link_.replay(); }

  /// True once an ISM credit grant governs this session's sends (pacing on,
  /// replay enabled, and a grant for this incarnation has arrived).
  [[nodiscard]] bool pacing() const noexcept { return link_.pacing(); }
  /// Sent-but-unacknowledged records/bytes charged against the window.
  [[nodiscard]] std::uint64_t outstanding_records() const noexcept {
    return link_.outstanding_records();
  }
  [[nodiscard]] std::uint64_t outstanding_bytes() const noexcept {
    return link_.outstanding_bytes();
  }

  [[nodiscard]] ExsStats stats() const noexcept;
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The node's flight recorder; events drain into the 0xFF03 stream with
  /// each metrics snapshot (batched and replayed like any record).
  [[nodiscard]] metrics::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const ExsConfig& config() const noexcept { return config_; }
  [[nodiscard]] clk::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] shm::MultiRing& rings() noexcept { return rings_; }
  [[nodiscard]] tp::UpstreamLink& link() noexcept { return link_; }

 private:
  static tp::LinkConfig make_link_config(const ExsConfig& config);

  ExsConfig config_;
  shm::MultiRing rings_;
  std::vector<shm::RingBuffer> slots_;  // one consumer handle per claimed slot
  clk::Clock& clock_;
  Batcher batcher_;
  tp::UpstreamLink link_;
  std::uint32_t largest_grant_records_ = 0;  // the batch cap; see the window observer
  std::uint64_t records_forwarded_ = 0;
  std::uint64_t transcode_errors_ = 0;
  // The last drain pass, for next_wait_us().
  TimeMicros last_drain_at_ = 0;
  TimeMicros drain_interval_us_ = 0;  // between the last two passes
  std::size_t last_drained_ = 0;
  bool burst_limited_ = false;
  std::uint64_t loop_wakeups_ = 0;
  std::uint64_t burst_limited_drains_ = 0;
  metrics::MetricsRegistry metrics_;
  SequenceNo metrics_sequence_ = 0;
  metrics::FlightRecorder flight_;
  std::uint64_t flight_cursor_ = 0;
  std::vector<std::uint8_t> drain_scratch_;
};

class ExternalSensor {
 public:
  /// Connects to the ISM and wires the core to the socket. The initial
  /// connection must succeed; later losses are survived by the backoff
  /// reconnect loop.
  static Result<std::unique_ptr<ExternalSensor>> connect(const ExsConfig& config,
                                                         shm::MultiRing rings,
                                                         clk::Clock& clock,
                                                         const std::string& ism_host,
                                                         std::uint16_t ism_port);

  /// Runs the poller loop until `stop()`, an ISM BYE, or (when
  /// max_reconnect_attempts > 0) the reconnect budget is exhausted. Each
  /// cycle: service the upstream client (reconnect, inbound frames,
  /// heartbeat, silence timeout), drain rings, flush aged batches, and
  /// emit metrics. Each wait lasts ExsCore::next_wait_us — until the next
  /// batch is due.
  Status run();
  /// Runs for at most `duration` (monotonic) under the same wait rule; for
  /// tests and benches.
  Status run_for(TimeMicros duration);
  void stop() noexcept { client_.poller().stop(); }

  /// Installs a frame-level fault policy on the outbound path (tests and
  /// the --fault-* flags of brisk_exs). Must be set before run().
  void set_fault_policy(net::FaultPolicy policy) { client_.set_fault_policy(std::move(policy)); }
  [[nodiscard]] const net::FaultStats& fault_stats() const noexcept {
    return client_.fault_stats();
  }

  [[nodiscard]] bool connected() const noexcept { return client_.connected(); }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return core_->link().stats().reconnects;
  }
  [[nodiscard]] ExsCore& core() noexcept { return *core_; }

 private:
  ExternalSensor(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
                 const std::string& ism_host, std::uint16_t ism_port);

  Status cycle();

  ExsConfig config_;
  std::unique_ptr<ExsCore> core_;
  tp::UpstreamClient client_;
  TimeMicros last_metrics_us_ = 0;  // monotonic, last metrics snapshot
};

}  // namespace brisk::lis
