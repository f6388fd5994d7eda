// The consumer fan-out gateway: the sink API redesigned around
// per-subscriber filtered and aggregated streams.
//
// The paper's ISM fans sorted records out to a fixed list of output paths
// (shared memory, PICL file, visual objects) that each see *every* record.
// The gateway inverts that: consumers *subscribe* with a pushed-down filter
// predicate (ism/filter.hpp) evaluated before fan-out, so a subscriber
// interested in one node's sensors costs one predicate test per record, not
// one delivered copy. Two subscription shapes:
//
//  * stream — every matching record, in sorted order;
//  * aggregate — per-(node, sensor) count + inter-arrival histogram over
//    fixed, timestamp-aligned windows. Windows close against the ordering
//    pipeline's release watermark (OrderingPipeline::release_watermark), so
//    a window only seals once the merge can no longer release into it.
//
// And two transports:
//
//  * in-process — a Sink plus options; delivery stays synchronous on the
//    pipeline's exit thread (this is what keeps the determinism grid
//    byte-identical: the shm ring sees the same record sequence it always
//    did, in runs). The classic ShmSink/PiclFileSink/CallbackSink/VoSink become
//    built-in subscribers; the pipeline still talks to exactly one object.
//  * TCP — brisk_ism --consumer-port starts a listener on the gateway's
//    dedicated fan-out thread (net::Poller + FrameSendBuffer, the same
//    machinery as the EXS-facing server). The pipeline exit thread feeds the
//    fan-out thread through one bounded SPSC lane, so a slow or stalled
//    consumer can never back-pressure the merge.
//
// Slow-consumer policy (TCP): each subscriber owns a bounded frame queue.
// Overflow evicts the *oldest* queued frame (drop-oldest; the freshest data
// survives) and counts it in the subscriber's dropped counter, visible in
// the 0xFF01 metrics stream as ism.gateway.sub.<name>.dropped. A subscriber
// that stays overrun for overrun_grace_us is disconnected — the gateway
// protects itself, the merge, and the other subscribers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_queue.hpp"
#include "ism/filter.hpp"
#include "ism/output.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/metrics.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/wakeup.hpp"
#include "tp/wire.hpp"

namespace brisk::ism {

struct GatewayConfig {
  /// Starts the TCP listener + fan-out thread when true.
  bool tcp_enabled = false;
  /// Listener port (0 = ephemeral; read back via consumer_port()).
  std::uint16_t consumer_port = 0;
  net::PollerBackend poller = net::PollerBackend::select;
  /// Depth (records) of the pipeline → fan-out SPSC lane.
  std::size_t lane_records = 8192;
  /// Default per-TCP-subscriber queue depth (records/frames); a SUBSCRIBE
  /// may ask for its own, clamped to max_queue_records.
  std::size_t queue_records = 1024;
  std::size_t max_queue_records = 65536;
  /// Per-subscriber outbound socket buffer cap (see net::FrameSendBuffer).
  std::size_t outbox_bytes = 1u << 20;
  /// A TCP subscriber continuously overrunning its queue for this long is
  /// disconnected.
  TimeMicros overrun_grace_us = 2'000'000;
  /// Default aggregation window; a SUBSCRIBE may ask for its own.
  TimeMicros agg_window_us = 1'000'000;
  /// Fan-out thread poll timeout (bounds agg-window close latency).
  TimeMicros poll_timeout_us = 10'000;
  /// Accepted TCP connections beyond this are refused.
  std::size_t max_subscribers = 64;
  /// Bound on how long drain() waits for the fan-out thread to flush
  /// subscriber queues at shutdown.
  TimeMicros drain_timeout_us = 2'000'000;

  [[nodiscard]] Status validate() const;
};

/// Options for an in-process subscription.
struct SubscriptionOptions {
  SubscriptionFilter filter;
  /// Aggregation window for subscribe_aggregate (0 = gateway default).
  TimeMicros agg_window_us = 0;
};

/// Gateway-level totals (atomically maintained; readable any time).
struct GatewayStats {
  std::uint64_t records_in = 0;      // records accepted from the pipeline
  std::uint64_t lane_drops = 0;      // records lost to a full fan-out lane
  std::uint64_t tcp_accepted = 0;    // TCP connections accepted, ever
  std::uint64_t tcp_subscribers = 0; // currently live TCP subscriptions
  std::uint64_t tcp_evicted = 0;     // slow-consumer disconnects
  std::uint64_t agg_windows = 0;     // aggregation windows emitted
};

/// Per-subscriber view (local and TCP; entries outlive disconnection so
/// final counters stay readable).
struct SubscriberStats {
  std::string name;
  bool tcp = false;
  bool connected = false;
  std::uint64_t matched = 0;    // records past the filter
  std::uint64_t delivered = 0;  // records/windows handed to the subscriber
  std::uint64_t dropped = 0;    // drop-oldest evictions (TCP only)
  std::uint64_t queued = 0;     // current queue depth (TCP only)
  std::uint64_t agg_windows = 0;
};

/// The subscription gateway. A Sink, so the pipeline still talks to exactly
/// one object; everything behind accept_run() is subscribers.
class ConsumerGateway final : public Sink {
 public:
  using AggWindowFn = std::function<void(const tp::AggWindow&)>;

  static Result<std::shared_ptr<ConsumerGateway>> create(const GatewayConfig& config);
  ~ConsumerGateway() override;
  /// Stops and joins the TCP fan-out thread (idempotent; the destructor
  /// calls it). An owner whose flight recorder (see set_flight_recorder)
  /// dies before the gateway calls this first.
  void stop_fanout() noexcept;
  ConsumerGateway(const ConsumerGateway&) = delete;
  ConsumerGateway& operator=(const ConsumerGateway&) = delete;

  // ---- Sink (pipeline-facing) ----------------------------------------------
  Status accept(const sensors::Record& record) override { return accept_run({&record, 1}).status; }
  /// Filters each record per subscriber and hands every contiguous matched
  /// stretch to a stream subscriber's sink in one call. Counters are exact
  /// and bumped once per run; accepted is the whole run.
  RunResult accept_run(std::span<const sensors::Record> run) override;
  Status flush() override;
  void tick(TimeMicros watermark) override;
  Status drain() override;
  [[nodiscard]] const char* name() const noexcept override { return "gateway"; }

  // ---- in-process subscriptions --------------------------------------------
  /// Stream subscription: `sink` sees every record matching the filter,
  /// synchronously on the pipeline's delivery thread (order-preserving).
  /// Fails on a duplicate name.
  Status subscribe(std::string name, std::shared_ptr<Sink> sink,
                   SubscriptionOptions options = {});
  /// Aggregate subscription: `fn` receives each closed window. Runs on the
  /// delivery thread (record-driven closes) or the ordering thread (tick-
  /// driven closes); the gateway serializes the two.
  Status subscribe_aggregate(std::string name, AggWindowFn fn,
                             SubscriptionOptions options = {});
  /// Unregisters an in-process subscription; false if the name is unknown.
  /// "No new records", not a synchronous barrier (an in-flight
  /// accept_run() may still deliver its run from its snapshot).
  bool unsubscribe(const std::string& name);
  [[nodiscard]] std::shared_ptr<Sink> find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t subscriber_count() const;

  // ---- TCP side ------------------------------------------------------------
  [[nodiscard]] bool tcp_enabled() const noexcept { return tcp_running_; }
  /// Actual listener port (resolves port 0).
  [[nodiscard]] std::uint16_t consumer_port() const noexcept { return listen_port_; }

  // ---- observability -------------------------------------------------------
  [[nodiscard]] GatewayStats stats() const;
  [[nodiscard]] std::vector<SubscriberStats> subscriber_stats() const;
  /// Registers a collector emitting gateway totals plus per-subscriber
  /// ism.gateway.sub.<name>.{matched,delivered,dropped,queued} counters into
  /// the 0xFF01 metrics stream.
  void register_metrics(metrics::MetricsRegistry& registry);
  /// Shares the ISM's flight recorder so fan-out pressure events (lane and
  /// queue drops, slow-consumer evictions) land in the same ring. May be
  /// called from any thread; null detaches.
  void set_flight_recorder(metrics::FlightRecorder* flight) noexcept {
    flight_.store(flight, std::memory_order_release);
  }

 private:
  // Counters shared between a live subscriber and its stats entry (the
  // entry outlives disconnection).
  struct SubCounters {
    std::atomic<std::uint64_t> matched{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> queued{0};
    std::atomic<std::uint64_t> agg_windows{0};
    std::atomic<bool> connected{true};
  };
  struct StatsEntry {
    std::string name;
    bool tcp = false;
    std::shared_ptr<SubCounters> counters;
  };

  // ---- aggregation ---------------------------------------------------------
  struct AggKeyState {
    std::uint64_t count = 0;
    TimeMicros last_ts = 0;
    bool has_last = false;
    std::unique_ptr<metrics::Histogram> gaps;
  };
  struct AggState {
    bool open = false;
    TimeMicros window_start = 0;
    TimeMicros window_end = 0;  // exclusive
    std::map<std::pair<NodeId, SensorId>, AggKeyState> keys;
  };
  /// Folds one record into the window state, closing + emitting any window
  /// the record's timestamp has moved past.
  template <typename EmitFn>
  void agg_accumulate(AggState& state, TimeMicros window_us,
                      const sensors::Record& record, EmitFn&& emit);
  /// Emits every open window with window_end <= watermark (INT64_MAX = all).
  template <typename EmitFn>
  void agg_close_due(AggState& state, TimeMicros watermark, EmitFn&& emit);
  static tp::AggWindow agg_seal(AggState& state);

  // ---- in-process subscribers ----------------------------------------------
  struct LocalSub {
    std::string name;
    SubscriptionFilter filter;
    tp::SubscriptionKind kind = tp::SubscriptionKind::stream;
    std::shared_ptr<Sink> sink;  // stream
    AggWindowFn agg_fn;          // aggregate
    TimeMicros window_us = 0;    // aggregate
    std::shared_ptr<SubCounters> counters;
    AggState agg;  // guarded by agg_mutex_
  };
  using LocalList = std::vector<std::shared_ptr<LocalSub>>;

  [[nodiscard]] std::shared_ptr<const LocalList> local_snapshot() const {
    return std::atomic_load_explicit(&locals_, std::memory_order_acquire);
  }
  Status add_local(std::shared_ptr<LocalSub> sub);
  void add_stats_entry(std::string name, bool tcp, std::shared_ptr<SubCounters> counters);

  // ---- TCP internals (fan-out thread only, unless noted) -------------------
  struct TcpSub {
    net::TcpSocket socket;
    net::FrameReader reader;
    net::FrameSendBuffer outbox;
    bool subscribed = false;
    std::uint32_t id = 0;
    std::string name;
    tp::SubscriptionKind kind = tp::SubscriptionKind::stream;
    SubscriptionFilter filter;
    std::size_t queue_cap = 0;
    TimeMicros window_us = 0;
    /// Encoded frames awaiting outbox room; payloads are shared across
    /// subscribers (one encode per record, whatever the fan-out width).
    std::deque<std::shared_ptr<const ByteBuffer>> queue;
    /// Monotonic time the current overrun began; 0 = not overrunning.
    TimeMicros overrun_since = 0;
    /// Never null — service_sub() runs for accepted-but-not-yet-subscribed
    /// connections too; handle_subscribe() replaces this with the counters
    /// shared with the stats entry.
    std::shared_ptr<SubCounters> counters = std::make_shared<SubCounters>();
    AggState agg;
    bool want_writable = false;

    explicit TcpSub(net::TcpSocket s, std::size_t outbox_cap)
        : socket(std::move(s)), outbox(outbox_cap) {}
  };

  explicit ConsumerGateway(const GatewayConfig& config);
  Status start_tcp();
  void fanout_loop();
  void on_listener_ready();
  void on_conn_ready(int fd, net::Readiness ready);
  void handle_frame(int fd, TcpSub& sub, ByteSpan payload);
  void handle_subscribe(int fd, TcpSub& sub, const tp::SubscribeRequest& req);
  void finish_tcp_subscription(TcpSub& sub);
  /// Routes up to one slice of lane records into the subscriber queues.
  /// True when the lane still holds records.
  bool pump_lane();
  void route_record(const sensors::Record& record);
  void enqueue_frame(TcpSub& sub, std::shared_ptr<const ByteBuffer> frame);
  void enqueue_agg(TcpSub& sub, const tp::AggWindow& window);
  void service_sub(int fd, TcpSub& sub);
  void update_write_interest(int fd, TcpSub& sub);
  void disconnect(int fd, const char* why);
  void close_due_tcp_windows(TimeMicros watermark);
  void drain_tcp();

  GatewayConfig config_;

  // ---- in-process state ----------------------------------------------------
  mutable std::mutex mutation_mutex_;  // serializes subscribe/unsubscribe
  std::shared_ptr<const LocalList> locals_ = std::make_shared<LocalList>();
  /// Serializes aggregation state between the delivery thread (accept) and
  /// the ordering thread (tick/drain).
  std::mutex agg_mutex_;

  // ---- pipeline → fan-out lane ---------------------------------------------
  std::unique_ptr<SpscQueue<sensors::Record>> lane_;

  // ---- fan-out thread ------------------------------------------------------
  std::atomic<bool> tcp_running_{false};
  std::atomic<bool> stop_{false};
  net::TcpListener listener_;
  std::uint16_t listen_port_ = 0;
  net::WakeupPipe wakeup_;
  std::unique_ptr<net::Poller> poller_;
  std::thread fanout_thread_;
  std::map<int, std::unique_ptr<TcpSub>> conns_;  // fan-out thread only
  std::uint32_t next_sub_id_ = 1;                 // fan-out thread only
  /// Tick watermark handed to the fan-out thread (tick() stores, loop reads).
  std::atomic<TimeMicros> tcp_tick_watermark_{std::numeric_limits<TimeMicros>::min()};
  // drain() handshake with the fan-out thread.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::atomic<bool> drain_requested_{false};
  bool drain_done_ = false;  // guarded by drain_mutex_

  /// Shared flight recorder (the ISM's ring); null until wired.
  std::atomic<metrics::FlightRecorder*> flight_{nullptr};

  // ---- stats ---------------------------------------------------------------
  std::atomic<std::uint64_t> records_in_{0};
  std::atomic<std::uint64_t> lane_drops_{0};
  std::atomic<std::uint64_t> tcp_accepted_{0};
  std::atomic<std::uint64_t> tcp_subscriber_count_{0};
  std::atomic<std::uint64_t> tcp_evicted_{0};
  std::atomic<std::uint64_t> agg_windows_{0};
  mutable std::mutex stats_mutex_;
  std::vector<StatsEntry> stats_entries_;  // guarded by stats_mutex_
};

/// One SUB_DATA frame for `record`: the output-ring payload encoded on the
/// stack, then written as an XDR opaque into a frame reserved at its exact
/// size (two allocations: the shared block and the frame bytes). nullptr if
/// the record does not encode.
std::shared_ptr<const ByteBuffer> encode_data_frame(const sensors::Record& record);

}  // namespace brisk::ism
