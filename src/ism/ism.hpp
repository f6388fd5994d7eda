// The instrumentation system manager (ISM): BRISK's central daemon.
//
// Fig. 1 pipeline:
//   batches arrive per-EXS (TCP order preserved) → batch queue →
//   per-EXS event queues → timestamp heap / on-line sorting (sharded by
//   node group, k-way merged — see pipeline.hpp) → CRE switch (hash
//   matching, tachyon repair) → output fan-out (shared memory, PICL trace
//   file, visual objects), with the clock-sync master loop polling the
//   EXSes between cycles.
//
// Ingest has one decoder (socket bytes → IngestEvents, see ingest.hpp),
// run by one of two kinds of thread:
//  * reader_threads == 0 (the paper-faithful default): one thread does
//    everything — the poller loop accepts, reads and decodes, and hands
//    each event straight to process_ingest_event.
//  * reader_threads > 0: accept and all ordering-side semantics stay on
//    this thread, while socket reads and batch decoding move to a pool of
//    reader threads. Each connection is pinned to one reader and hands
//    events over a bounded SPSC lane, so per-node FIFO — and therefore the
//    sorted output — is unchanged.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <span>

#include "clock/sync_service.hpp"
#include "ism/drop_policy.hpp"
#include "ism/ingest.hpp"
#include "ism/output.hpp"
#include "ism/pipeline.hpp"
#include "ism/session_table.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/latency.hpp"
#include "metrics/metrics.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/wakeup.hpp"
#include "tp/batch.hpp"

namespace brisk::ism {

struct IsmConfig {
  std::uint16_t port = 0;  // 0 = ephemeral, see Ism::port()
  /// Longest readiness wait of the main loop (the paper's latency-floor
  /// knob — "waiting select system calls, which can delay an event record
  /// for up to 40 ms"); the loop wakes sooner when the sorter has a record
  /// due or a session an ack.
  TimeMicros select_timeout_us = 40'000;
  /// Poller backend for the main loop and any reader threads.
  net::PollerBackend poller = net::PollerBackend::select;
  /// How long a connection may sit with its outbox at the cap
  /// (Errc::buffer_full on sends) before it is reaped. An overloaded but
  /// alive peer that starts reading again within the grace period keeps its
  /// connection; only a peer that stays wedged past it is torn down.
  /// 0 = reap on the first buffer_full (the old behaviour).
  TimeMicros outbox_stall_timeout_us = 2'000'000;
  /// Per-connection outbound frame buffer cap (acks/sync frames deferred by
  /// a full kernel send buffer). Tests shrink it to exercise the stall path
  /// without megabytes of traffic.
  std::size_t outbox_bytes = net::kDefaultSendBufferBytes;
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default. Tiny
  /// values force the kernel buffer to fill quickly (stall-path tests).
  int sndbuf_bytes = 0;
  /// Reader threads for ingest. 0 = inline single-threaded mode.
  std::size_t reader_threads = 0;
  /// Per-connection SPSC lane depth (events) in threaded mode.
  std::size_t ingest_queue_frames = 1024;
  /// Ordering shards (see pipeline.hpp). 1 = one sorter the ordering thread
  /// services itself; N > 1 runs N shard workers plus a k-way merger thread.
  std::size_t sorter_shards = 1;
  /// Depth (records) of each ordering shard's SPSC lanes in sharded mode.
  std::size_t shard_queue_records = PipelineConfig{}.shard_queue_records;
  /// Period of the one-line periodic stats log (--stats-interval); 0 = off.
  /// The line is composed from the same metrics snapshot the metrics
  /// records are built from.
  TimeMicros stats_interval_us = 0;
  /// Period of self-instrumentation snapshots (--metrics-interval): every
  /// interval the ISM renders its metrics registry into reserved-sensor-id
  /// records and submits them through the ordering pipeline, so they reach
  /// every registered sink like any other record. 0 = off.
  TimeMicros metrics_interval_us = 0;
  SorterConfig sorter;
  CreConfig cre;
  bool enable_sync = true;
  clk::SyncServiceConfig sync;
  /// How long the master waits for one TIME_RESP.
  TimeMicros sync_poll_timeout_us = 250'000;
  /// Per-connection admission rate (token bucket), the "data flow control"
  /// of Fig. 1: records beyond the budget are dropped at the ISM ingress
  /// and accounted, so a runaway node cannot monopolize IS resources.
  /// 0 disables flow control.
  double flow_control_rate_per_sec = 0.0;
  double flow_control_burst = 10'000.0;

  // --- session resilience ----------------------------------------------------
  /// Drop a connection whose peer has sent nothing (not even a heartbeat)
  /// for this long: catches EXSes that died without the kernel closing the
  /// socket. 0 disables idle reaping.
  TimeMicros peer_idle_timeout_us = 30'000'000;
  /// How long a disconnected node's session (batch_seq cursor + pending
  /// sorter queue) is kept for a rejoin. On expiry the queue is drained out
  /// of band and the session forgotten, so a later reconnect starts clean.
  /// 0 expires immediately on disconnect.
  TimeMicros quarantine_timeout_us = 5'000'000;
  /// BATCH_ACK cadence towards each connected EXS (must be > 0). Acks drive
  /// the EXS's replay-buffer trimming and its go-back-N resend on loss.
  TimeMicros ack_period_us = 200'000;
  /// A batch-sequence hole older than this is declared lost (counted in
  /// batch_seq_gaps) and the cursor jumps forward — the EXS evicted the
  /// missing batches from its replay buffer and can never resend them.
  TimeMicros gap_skip_timeout_us = 1'000'000;

  // --- credit-based flow control ---------------------------------------------
  /// Per-connection record window granted on every ack to v3+ peers
  /// (--ism-credit-records). The grant is the configured window minus the
  /// node's in-pipeline backlog, so a slow pipeline shrinks the window and
  /// the EXS pacer parks batches instead of blasting into a blocked socket.
  /// 0 disables credit grants entirely (acks stay v2-shaped on the wire).
  std::uint32_t credit_window_records = 0;
  /// Byte window granted alongside (--ism-credit-bytes); 0 = uncapped.
  std::uint64_t credit_window_bytes = 0;
  /// Ack cadence towards a session whose last grant was below the full
  /// window: the pipeline is draining its backlog and a prompt re-grant is
  /// what reopens the EXS's window (--credit-replenish-us). Clamped up to
  /// ack_period_us; 0 keeps the plain ack cadence. Independently of any
  /// cadence, a session that has had half its window admitted since its
  /// last ack gets a window update at once (see SessionTable::admitted).
  TimeMicros credit_replenish_us = 20'000;
};

/// A point-in-time snapshot of the ISM's counters. Ism::stats() builds one
/// from the internal atomic cells, so tests and monitoring threads can read
/// a coherent copy while the server threads keep counting.
struct IsmStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t records_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t ring_drops_reported = 0;  // sum over nodes of EXS drop counters
  std::uint64_t flow_control_drops = 0;   // records rejected by the token bucket
  /// Times a reader thread paused a socket because its SPSC lane was full
  /// (threaded ingest backpressure; the TCP window pushes back to the EXS).
  std::uint64_t ingest_stalls = 0;
  /// Batch sequence gaps. The TCP stream makes these impossible in a
  /// healthy deployment; a nonzero count means batches were lost for good —
  /// the EXS restarted without replay, or evicted them from its replay
  /// buffer before they could be resent.
  std::uint64_t batch_seq_gaps = 0;
  // --- session resilience ----------------------------------------------------
  std::uint64_t rejoins = 0;                   // same-incarnation reconnects resumed
  std::uint64_t duplicate_batches_dropped = 0; // replayed batches already applied
  std::uint64_t out_of_order_batches_dropped = 0;  // above-cursor batches awaiting resend
  std::uint64_t idle_disconnects = 0;          // peers reaped by the idle timeout
  std::uint64_t sessions_expired = 0;          // quarantined sessions forgotten
  std::uint64_t records_drained_on_expiry = 0; // out-of-band emissions at expiry
  std::uint64_t acks_sent = 0;                 // HELLO_ACK + BATCH_ACK frames
  std::uint64_t heartbeats_received = 0;
  // --- credit-based flow control ---------------------------------------------
  std::uint64_t credit_grants_sent = 0;        // acks that carried a grant
  std::uint64_t zero_window_grants = 0;        // grants that closed the window
  std::uint64_t window_update_acks = 0;        // acks sent after half a window admitted
  std::uint64_t drain_window_updates = 0;      // acks sent after a quarter window drained
  // --- reader-pool rebalancing -----------------------------------------------
  std::uint64_t reader_migrations = 0;         // connections moved between readers
};

class Ism {
 public:
  /// Binds the listener and wires the pipeline. `output` receives sorted
  /// records; `clock` is the ISM clock (SystemClock in production).
  static Result<std::unique_ptr<Ism>> start(const IsmConfig& config, clk::Clock& clock,
                                            std::shared_ptr<Sink> output);

  ~Ism();
  Ism(const Ism&) = delete;
  Ism& operator=(const Ism&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Runs the poll loop until stop(). Each wait lasts until the pipeline's
  /// next record or a session's next ack is due, capped at
  /// select_timeout_us (the rule the shard workers apply to their own
  /// sorters when they run).
  Status run();
  /// Runs for at most `duration` of monotonic time (tests and benches).
  Status run_for(TimeMicros duration);
  /// One loop cycle (accept/read/idle work) under the same wait rule.
  Status cycle();
  void stop() noexcept { loop_->stop(); }

  /// Emits everything still delayed and flushes sinks (shutdown path).
  Status drain();

  /// Injects faults into every frame the ISM sends an EXS (acks, clock-sync
  /// messages) — ack-loss drills for the replay path. The frame index seen
  /// by the policy counts all outbound frames across all connections.
  void set_fault_policy(net::FaultPolicy policy) { fault_.set_policy(std::move(policy)); }
  [[nodiscard]] const net::FaultStats& fault_stats() const noexcept { return fault_.stats(); }

  /// Snapshot of the counters (relaxed atomic loads — safe to call from
  /// any thread while the server runs).
  [[nodiscard]] IsmStats stats() const noexcept;
  /// The self-instrumentation registry. Additional collectors may be
  /// registered before records flow; snapshots are taken on the ordering
  /// thread.
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The diagnostic flight recorder: session lifecycle, flow-control
  /// pressure, drops, and migrations land here, are dumped on SIGUSR1 /
  /// fatal exit, and ship as 0xFF03 records with each metrics snapshot.
  /// The gateway and relay egress share this ring (BriskManager wires it).
  [[nodiscard]] metrics::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] OrderingPipeline& pipeline() noexcept { return *pipeline_; }
  [[nodiscard]] const OrderingPipeline& pipeline() const noexcept { return *pipeline_; }
  /// Sorter counters aggregated over all ordering shards.
  [[nodiscard]] SorterStats sorter_stats() const { return pipeline_->sorter_stats(); }
  /// CRE matcher counters (safe from any thread; the merge owns the matcher).
  [[nodiscard]] CreStats cre_stats() { return pipeline_->cre_stats(); }
  [[nodiscard]] clk::SyncService* sync() noexcept { return sync_service_.get(); }
  [[nodiscard]] std::size_t connected_nodes() const noexcept { return nodes_.size(); }
  /// Sessions tracked (live + quarantined); for tests and diagnostics.
  [[nodiscard]] std::size_t session_count() const noexcept { return sessions_.size(); }

 private:
  struct Connection {
    net::TcpSocket socket;
    IngestDecoder decoder;  // reader_threads == 0 only; readers own one otherwise
    /// Outbound frame buffer: acks/sync frames are enqueued whole and
    /// drained with write_some(), so a full kernel send buffer defers the
    /// frame instead of tearing it mid-write (the EXS-side equivalent is
    /// the replay buffer + reconnect).
    net::FrameSendBuffer outbox;
    /// Whether this connection currently subscribes to Readiness::writable:
    /// toggled on when the outbox defers bytes, off once it drains — same
    /// pattern as the gateway's subscriptions.
    bool want_writable = false;
    /// Monotonic time the outbox first rejected a frame (Errc::buffer_full);
    /// 0 while the peer keeps up. A stall past outbox_stall_timeout_us is
    /// what reaps the connection, not the first rejection.
    TimeMicros outbox_full_since = 0;
    NodeId node = 0;
    bool hello_seen = false;
    bool saw_bye = false;             // clean shutdown: forget the session
    TimeMicros last_rx_us = 0;        // monotonic, any inbound bytes
    TimeMicros last_ack_sent_us = 0;  // monotonic
    std::unique_ptr<TokenBucket> flow_control;  // null when disabled
    // --- threaded ingest -----------------------------------------------------
    std::shared_ptr<IngestLane> lane;  // null in inline mode
    std::size_t reader_index = 0;      // which ReaderThread owns the fd
    /// Ordering thread decided to close but the reader still polls the fd:
    /// socket is shutdown(2), waiting for the reader's `closed` event.
    bool closing = false;
    /// The reader emitted its `closed` event; the fd is safe to close.
    bool reader_done = false;
    // --- federation ----------------------------------------------------------
    /// Peer declared kCapabilityOrderedStream in its hello: it is a relay
    /// whose batches are already (timestamp, node)-sorted and watermarked.
    bool relay = false;
    std::size_t relay_lane = 0;  // valid only when relay
    // --- reader-pool rebalancing ---------------------------------------------
    /// Decayed per-connection drained-record rate (ordering thread only);
    /// halved in session_sweep alongside the per-reader rates. This is what
    /// pick_connection_to_move ranks.
    double drained_rate = 0.0;
    /// Destination reader of an in-flight migration, or -1. Set when the
    /// `remove` command goes to the old reader; consumed by the `released`
    /// event, which re-adds the fd at the target.
    int migrate_target = -1;
  };

  /// The master side of clock sync over the live connections.
  class SocketSyncTransport final : public clk::SyncTransport {
   public:
    explicit SocketSyncTransport(Ism& ism) : ism_(ism) {}
    [[nodiscard]] std::size_t slave_count() const noexcept override;
    Result<clk::PollSample> poll(std::size_t index) override;
    Status adjust(std::size_t index, TimeMicros delta) override;

   private:
    Ism& ism_;
  };

  Ism(const IsmConfig& config, clk::Clock& clock, std::shared_ptr<Sink> output,
      net::TcpListener listener);

  [[nodiscard]] bool threaded() const noexcept { return !readers_.empty(); }

  void on_listener_readable();
  void on_connection_readable(int fd);
  /// Writable-readiness event: drains the connection's outbox and drops the
  /// writable subscription once it is empty.
  void on_connection_writable(int fd);
  /// Installs the poller registration for an inline-mode connection with
  /// the interest matching its current want_writable state.
  Status watch_connection(int fd);
  /// Reconciles the connection's poller subscription with its outbox state.
  /// Inline mode upserts the combined readable[|writable] interest on the
  /// main loop; threaded mode adds/removes a writable-only watch (the
  /// reader threads own readable).
  void update_write_interest(int fd, Connection& conn);
  /// Classifies a failed send/pump: true for genuine socket errors and for
  /// buffer_full stalls that have outlived the grace period; false for a
  /// buffer_full blip on an otherwise-alive peer.
  [[nodiscard]] bool send_failure_is_fatal(Connection& conn, const Status& st);
  Status dispatch_frame(Connection& conn, ByteSpan payload);
  /// The admission entry for both batch kinds: reader-rate bookkeeping,
  /// then the session cursor. True when the records enter the pipeline.
  bool admit_batch(Connection& conn, std::uint32_t seq, std::uint64_t ring_dropped_total,
                   std::size_t records);
  void handle_batch(Connection& conn, tp::Batch batch);
  /// Ordered-ingress: a relay's pre-sorted batch goes through the same
  /// batch_seq dedupe cursor, then straight into its pipeline lane —
  /// bypassing the sorter shards. Origin node ids are preserved.
  void handle_relay_batch(Connection& conn, tp::RelayBatch batch);
  /// Hands `node`'s records to the ordering pipeline as one run (moving
  /// them out), logging a failure.
  void route_run(NodeId node, std::span<sensors::Record> records);
  /// The ordering pipeline's single exit (merged runs and out-of-band
  /// drains alike): hands the run to the output and notes each node's
  /// drained records for its credit window.
  void deliver_run(std::span<const sensors::Record> run);
  /// Sink delivery of a traced record: stamps sink_delivery, feeds the
  /// stage-pair latency histograms, strips the annotation off the data
  /// record, and emits the span list as a trace record behind it.
  void deliver_traced(const sensors::Record& record);
  void idle_work();
  /// The next poll's timeout: min(select_timeout_us, pipeline next due as
  /// of the last service(), earliest session ack due), floored at
  /// kMinLoopWaitUs.
  TimeMicros next_wait_us();
  /// Drain-driven window updates: acks every session whose drained records
  /// let its grant widen by a quarter window (the regrant wakeup's handler).
  void send_window_updates();
  /// Idle reaping, quarantine expiry, and periodic BATCH_ACKs.
  void session_sweep();
  /// Reader-pool rebalancing: once the decayed drained-rate imbalance has
  /// been sustained for kSustainedImbalancePeriods decay periods, moves one
  /// connection (at most one per ack period) from the busiest reader to the
  /// idlest. Called from the decay tick with pre-decay rates.
  void maybe_migrate_connection(TimeMicros now);
  /// Drains a session's pending records out of band and forgets it.
  void expire_session(NodeId node);
  /// Encodes and sends the ack the session table builds.
  Status send_ack(Connection& conn, tp::MsgType type);
  Status send_frame(Connection& conn, ByteSpan payload);
  /// Tears down a connection. In threaded mode with the reader still
  /// polling the fd, this only shutdown(2)s the socket and waits for the
  /// reader's `closed` event (see ingest.hpp's fd ownership protocol).
  void close_connection(int fd);
  void finish_close(int fd);
  /// Emits the periodic one-line stats log when --stats-interval is on.
  /// Composed from the metrics snapshot (the log is just another consumer).
  void maybe_log_stats();
  /// Wires the ism.* metrics collector into the registry.
  void register_metrics();
  /// Periodic self-instrumentation snapshot (--metrics-interval).
  void maybe_emit_metrics();
  /// Renders the registry into metrics records and submits them through
  /// the ordering pipeline (ordering thread only).
  void emit_metrics_snapshot();
  // --- threaded ingest -------------------------------------------------------
  /// Drains every connection's lane into the pipeline; resumes stalled fds.
  void drain_ingest();
  /// Applies one decoded event, whichever thread decoded it.
  void process_ingest_event(int fd, IngestEvent event);
  /// Connection of the index-th connected node (by node id), or null.
  Connection* slave(std::size_t index);

  IsmConfig config_;
  clk::Clock& clock_;
  std::shared_ptr<Sink> output_;
  net::TcpListener listener_;
  std::unique_ptr<net::Poller> loop_;
  std::vector<std::unique_ptr<ReaderThread>> readers_;
  /// Live connection count per reader (tie-breaker for accept placement).
  std::vector<std::size_t> reader_loads_;
  /// Decayed drained-record load per reader: bumped as batches drain from a
  /// reader's lanes, halved periodically in session_sweep(). Accept-time
  /// placement follows actual record traffic, not connection counts — four
  /// idle connections weigh less than one firehose.
  std::vector<double> reader_rates_;
  TimeMicros last_reader_decay_us_ = 0;  // monotonic
  /// Consecutive decay periods the pool evaluated as imbalanced; a
  /// migration needs kSustainedImbalancePeriods of them in a row.
  std::size_t imbalance_streak_ = 0;
  TimeMicros last_migration_us_ = 0;  // monotonic; rate-limits to 1/ack period
  std::map<int, Connection> connections_;
  std::map<NodeId, int> nodes_;  // node id → fd (live connections only)
  std::unique_ptr<OrderingPipeline> pipeline_;
  /// Monotonic time the pipeline's next record falls due, from the last
  /// service(); -1 when none is pending (or the shard workers keep time).
  TimeMicros pipeline_due_at_ = -1;
  /// Set by the pipeline's tachyon hook (merger thread when sharded);
  /// consumed on the ordering thread, which owns the sync service.
  std::atomic<bool> extra_sync_requested_{false};
  TimeMicros last_extra_sync_us_ = 0;  // monotonic; paces tachyon-driven rounds
  TimeMicros last_stats_log_us_ = 0;     // monotonic
  TimeMicros last_metrics_emit_us_ = 0;  // monotonic
  SequenceNo metrics_sequence_ = 0;      // running seq of emitted metrics records
  metrics::FlightRecorder flight_{"ism"};
  /// Signalled (from whichever thread drains the pipeline) when a session's
  /// drained records cross its re-grant mark; the loop then acks it.
  net::WakeupPipe regrant_wake_;
  /// One entry per node that ever said hello, until its quarantine expires.
  SessionTable sessions_;
  /// How far emit_metrics_snapshot has drained flight_ into 0xFF03 records.
  std::uint64_t flight_cursor_ = 0;
  /// Running seq of emitted trace records. Atomic: sink delivery happens on
  /// the merger thread in sharded mode and the ordering thread otherwise
  /// (and on the ordering thread again during drain()).
  std::atomic<std::uint64_t> trace_sequence_{0};
  metrics::MetricsRegistry metrics_;
  std::unique_ptr<metrics::LatencyRecorder> latency_;
  SocketSyncTransport sync_transport_;
  std::unique_ptr<clk::SyncService> sync_service_;
  /// The live counter cells behind IsmStats. The server threads write them;
  /// test/monitor threads snapshot via stats() — every cell is a relaxed
  /// atomic so those cross-thread reads are race-free (TSan-clean).
  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> active_connections{0};
    std::atomic<std::uint64_t> batches_received{0};
    std::atomic<std::uint64_t> records_received{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> flow_control_drops{0};
    std::atomic<std::uint64_t> ingest_stalls{0};
    std::atomic<std::uint64_t> idle_disconnects{0};
    std::atomic<std::uint64_t> heartbeats_received{0};
    std::atomic<std::uint64_t> reader_migrations{0};
  };
  Counters stats_;
  net::FaultySocket fault_;  // all ISM→EXS frames route through this
  std::uint32_t next_request_id_ = 1;
  // Set while a sync poll is waiting for this (request id, value) pair.
  std::uint32_t pending_poll_request_ = 0;
  bool pending_poll_answered_ = false;
  TimeMicros pending_poll_slave_time_ = 0;
};

}  // namespace brisk::ism
