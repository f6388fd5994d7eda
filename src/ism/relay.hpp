// Relay egress: the upstream half of a federated (relay-tier) ISM.
//
// A relay ISM runs the full ingest/ordering pipeline for the EXSes behind
// it, then — in addition to local sinks — forwards its post-merge,
// post-CRE ordered output to a *parent* ISM. To the parent the relay is
// EXS-shaped: it ships RELAY_BATCH frames (HELLO carries the
// ordered-stream capability bit) through the same two pieces an EXS uses —
// tp::UpstreamLink for the session and clock-sync protocol (replay buffer,
// go-back-N, credit pacing, TIME_REQ answers, ADJUST deltas) and
// tp::UpstreamClient for the socket (outbox, want-writable toggling,
// reconnect, heartbeat). The link's parent-relative correction is applied
// to every record before it leaves, so corrections compose hop by hop and
// records reach the root in the root's timebase.
//
// What the relay owns itself: the pipeline→egress SPSC queue, the
// RelayBatchBuilder, the metrics aggregator, the watermarks, and the
// egress thread.
//
// Threading: RelayEgress is an ism::Sink. accept()/tick() run on the relay
// pipeline's delivery thread (merger thread when sharded, ordering thread
// inline) and only touch the bounded SPSC queue plus an atomic watermark
// cell; the dedicated egress thread does everything else under
// link_mutex_, and sleeps on the client's poller between cycles — it wakes
// early when the parent sends acks or (while the outbox holds deferred
// bytes) when the socket drains. The pipeline is never blocked by a slow
// or dead parent link for long — backpressure is absorbed by the queue
// (spin + stall counter) and the bounded replay buffer.
//
// Watermark discipline: the relay's output stream is (timestamp, node)
// sorted, so a sealed batch's watermark is the timestamp of its *last*
// record (shifted into the parent's timebase) — every record the relay
// will ever send afterwards is >= it. The pipeline's release watermark
// (via tick()) only feeds the standalone idle-watermark frames; using it
// for batches would be wrong while released records still sit in the
// egress queue. All outgoing watermarks are clamped monotone.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "clock/clock.hpp"
#include "common/spsc_queue.hpp"
#include "ism/output.hpp"
#include "ism/relay_aggregator.hpp"
#include "metrics/flight_recorder.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "tp/batch.hpp"
#include "tp/upstream_client.hpp"
#include "tp/upstream_link.hpp"

namespace brisk::ism {

struct RelayConfig {
  std::string parent_host = "127.0.0.1";
  std::uint16_t parent_port = 0;
  /// The relay's own node identity toward its parent (--relay-node). Also
  /// stamped onto relay-originated metrics/trace records in place of the
  /// reserved kIsmMetricsNodeId, so snapshots from different relays stay
  /// distinguishable at the root.
  NodeId relay_node = 0;
  /// Session incarnation; 0 = derive one at start (tp::derive_incarnation),
  /// exactly like the EXS daemon.
  std::uint64_t incarnation = 0;
  /// Depth of the pipeline→egress record queue.
  std::size_t queue_records = 8192;
  /// Batch seal thresholds (records / payload bytes / age).
  std::size_t batch_max_records = 512;
  std::size_t batch_max_bytes = 64 * 1024;
  TimeMicros batch_max_age_us = 5'000;
  /// Cadence of standalone RELAY_WATERMARK frames while no data flows, so
  /// an idle relay never stalls the parent's merge. 0 disables them.
  TimeMicros idle_watermark_period_us = 50'000;
  TimeMicros heartbeat_period_us = 1'000'000;
  /// Egress-thread readiness-wait bound while idle (the poller wakes the
  /// thread earlier on parent acks or outbox drainage).
  TimeMicros poll_timeout_us = 2'000;
  /// Poller backend the egress thread sleeps on.
  net::PollerBackend poller = net::PollerBackend::select;
  /// Cap on deferred outbound bytes; past it sends fall back to a bounded
  /// blocking flush (send_stall_timeout_us) before the link counts as lost.
  std::size_t outbox_bytes = net::kDefaultSendBufferBytes;
  TimeMicros send_stall_timeout_us = 2'000'000;
  /// Replay depth toward the parent; see tp::LinkConfig.
  std::size_t replay_batches = 256;
  std::size_t replay_bytes = 0;
  tp::ReconnectConfig reconnect;
  /// How long drain() waits for the queue + replay buffer to empty.
  TimeMicros drain_timeout_us = 2'000'000;
  /// In-tree metrics aggregation (--relay-aggregate-metrics): absorb the
  /// subtree's 0xFF01 records and forward one merged "agg."-prefixed
  /// snapshot per metrics_flush_period_us instead of every record.
  /// Relay-local snapshots (reserved metrics node re-stamped to relay_node)
  /// pass through either way. Off = byte-exact pass-through (the
  /// compatibility default).
  bool aggregate_metrics = false;
  TimeMicros metrics_flush_period_us = 1'000'000;
};

struct RelayEgressStats {
  std::uint64_t records_forwarded = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t queue_stalls = 0;
  std::uint64_t sync_polls_answered = 0;
  std::uint64_t sync_adjustments = 0;
  std::uint64_t reconnects = 0;
  /// Subtree 0xFF01 records absorbed / aggregated snapshots flushed (zero
  /// unless aggregate_metrics is on).
  std::uint64_t metrics_absorbed = 0;
  std::uint64_t aggregated_flushes = 0;
  tp::LinkStats link;
};

class RelayEgress final : public Sink {
 public:
  /// Connects to the parent and starts the egress thread. The initial
  /// connection must succeed (same contract as ExternalSensor::connect);
  /// later losses are survived by the reconnect schedule.
  static Result<std::shared_ptr<RelayEgress>> connect(const RelayConfig& config,
                                                      clk::Clock& clock);

  ~RelayEgress() override;
  /// Stops and joins the egress thread (idempotent; the destructor calls
  /// it). Records accepted afterwards are dropped.
  void stop() noexcept;

  // --- Sink interface (pipeline delivery thread) -----------------------------
  Status accept(const sensors::Record& record) override;
  void tick(TimeMicros watermark) override;
  /// Blocks until everything accepted so far has been shipped *and acked*
  /// by the parent (or drain_timeout_us elapses), sends BYE, and stops the
  /// egress thread.
  Status drain() override;
  [[nodiscard]] const char* name() const noexcept override { return "relay"; }

  /// Parent-relative clock correction accumulated from ADJUST frames.
  [[nodiscard]] TimeMicros correction() const noexcept { return link_.correction(); }
  [[nodiscard]] bool connected() const noexcept { return client_.connected(); }
  [[nodiscard]] RelayEgressStats stats() const;

  /// Shares the co-located ISM's flight recorder so relay-side events
  /// (reconnects, outbox stalls) land in the same ring. May be called from
  /// any thread; null detaches.
  void set_flight_recorder(metrics::FlightRecorder* flight) noexcept {
    client_.set_flight_recorder(flight);
  }

 private:
  RelayEgress(const RelayConfig& config, clk::Clock& clock);

  void run();                     // egress thread main
  Status cycle();                 // one egress iteration (link_mutex_ held)
  Status service_queue();         // move queued records into the builder
  /// Ships the aggregator's merged snapshot into the builder when its flush
  /// period elapses (`force` also flushes pending state — the drain path).
  Status flush_aggregates(bool force);
  Status maybe_seal(bool force);  // seal/ship the pending batch
  /// `tick_wm` must have been read *before* the cycle's service_queue()
  /// pass — see cycle() for why promising a later value would be unsound.
  Status send_idle_watermark(TimeMicros tick_wm);

  RelayConfig config_;
  SpscQueue<sensors::Record> queue_;
  tp::UpstreamLink link_;
  tp::UpstreamClient client_;
  tp::RelayBatchBuilder builder_;
  /// Egress-thread state (mutated under link_mutex_; stats() reads it there).
  RelayAggregator aggregator_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> drained_{false};
  /// Pipeline release watermark (relay timebase), stored by tick().
  std::atomic<TimeMicros> tick_watermark_{INT64_MIN};

  // --- egress-thread state ----------------------------------------------------
  /// Monotone high-water of every watermark sent (parent timebase).
  TimeMicros wm_out_ = INT64_MIN;
  /// Timestamp (parent timebase) of the last record added to the builder.
  TimeMicros last_record_ts_ = INT64_MIN;
  TimeMicros batch_started_at_ = 0;  // monotonic, 0 = builder empty
  TimeMicros last_wm_tx_us_ = 0;     // monotonic, last watermark shipped

  // --- counters (egress thread writes, stats() reads) -------------------------
  std::atomic<std::uint64_t> records_forwarded_{0};
  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> queue_stalls_{0};
  /// Serializes egress-thread cycles against stats() link snapshots and
  /// drain()'s final BYE.
  mutable std::mutex link_mutex_;
};

}  // namespace brisk::ism
