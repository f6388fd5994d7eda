// The sharded ordering pipeline: per-group on-line sorters feeding a final
// k-way merge.
//
// PR 2 took socket reads and XDR decode off the ordering thread; this stage
// takes the ordering work itself off it. The paper's OLS design — one FIFO
// per EXS merged under an adaptive delay window T — decomposes naturally by
// producer, so the pipeline splits the monolithic sorter into two explicit
// stages:
//
//  * N *shard workers*. Each shard owns a disjoint set of EXS sessions
//    (node-id hash, fixed at hello) and runs a full private OnlineSorter:
//    per-EXS FIFOs, merge heap, and its own adaptive frame T. A shard emits
//    a timestamp-ordered stream into a bounded SPSC lane and publishes a
//    monotone *watermark* — a promise that, barring genuinely late records
//    (which already count as out-of-order and raise T), its future in-order
//    emissions sit above `now - T`.
//  * one *merger*. A k-way heap merge across the shard lanes, keyed
//    (timestamp, node) exactly like the per-shard merge heaps, so the merged
//    stream is byte-identical to what one global sorter would produce. A
//    record is released only once every empty lane's watermark has passed
//    it; an empty lane therefore stalls the merge by at most one shard poll
//    cycle, in the spirit of out-of-order compensation buffers with cheap
//    cross-group causality bounds.
//
// Causally-related-event matching stays GLOBAL and moves behind the merge:
// X_REASON/X_CONSEQ pairs may span shards, so the CreMatcher sees the
// merged, timestamp-ordered stream. A tachyon consequence (smaller
// timestamp than its reason) surfaces from the merge *before* its reason,
// is held by the matcher, and is released — timestamp repaired — right
// after the reason passes; sink delivery and tachyon-driven extra sync
// rounds both happen here, once, globally.
//
// Every stage has one code path, run by threads chosen from the shard
// count. shards > 1 runs N shard worker threads plus one merger thread.
// shards == 1 (the default, paper-faithful) starts no threads: service(),
// called from the ordering thread, runs the same shard cycle, output lane,
// k-way merge and CRE pass the workers would. Starting workers at N == 1
// was measured and lost on steady-state latency (EXPERIMENTS.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "clock/clock.hpp"
#include "common/spsc_queue.hpp"
#include "ism/cre_matcher.hpp"
#include "ism/online_sorter.hpp"

namespace brisk::ism {

struct DrainCell;  // session_table.hpp

/// Most records one sink call carries. Longer release runs are handed over
/// in pieces, so a long run neither holds the sinks back nor leaves the
/// release watermark stale for its whole length.
inline constexpr std::size_t kMaxSinkRun = 256;

struct PipelineConfig {
  /// Ordering shards. 1 = one sorter driven by the caller's service()
  /// (paper mode); N > 1 starts N shard worker threads plus one merger
  /// thread.
  std::size_t shards = 1;
  /// Depth (records) of each shard's input and output SPSC lane.
  std::size_t shard_queue_records = 4096;
  /// Idle wait of the shard and merger loops; bounds the extra latency a
  /// quiet shard's watermark can impose on the merge.
  TimeMicros poll_timeout_us = 10'000;
  SorterConfig sorter;
  CreConfig cre;
};

struct PipelineStats {
  std::uint64_t submitted = 0;         // records entering the pipeline
  std::uint64_t merged = 0;            // records through the k-way merge
  /// Merged record that sorts below the record merged just before it, by
  /// (timestamp, node): a shard violated its watermark (a genuinely late
  /// record — the shard's own order check already raised its T for it).
  /// One early outlier counts once, not once per later record below it.
  std::uint64_t merge_inversions = 0;
  /// Release runs through the k-way merge: each run amortises one watermark
  /// scan over merged/merge_runs records (see merge_step).
  std::uint64_t merge_runs = 0;
  /// Sink calls: each hands over up to kMaxSinkRun records, so
  /// merged/sink_runs is the records per hand-over.
  std::uint64_t sink_runs = 0;
  std::uint64_t submit_stalls = 0;     // input lane full, ordering thread spun
  /// Records drained out of band (session expiry), bypassing the merge.
  std::uint64_t oob_records = 0;
};

/// Shard owning `node`'s sessions: a multiplicative hash so striding node
/// ids spread evenly. Stable across runs — it defines which sorter a node's
/// records FIFO through, and with it the deterministic merge order.
std::size_t shard_of_node(NodeId node, std::size_t shards) noexcept;

class OrderingPipeline {
 public:
  /// Sorted + CRE-ordered records leave through `sink` in runs of at most
  /// kMaxSinkRun records; `flush` is the sink-flush hook (called from the
  /// merger thread when sharded, from service() otherwise); `on_tachyon`
  /// must be thread-safe — it fires on the merger thread when shards > 1.
  using RunSinkFn = std::function<void(std::span<const sensors::Record>)>;
  using SinkFn = std::function<void(const sensors::Record&)>;
  using FlushFn = std::function<void()>;
  using TachyonFn = std::function<void()>;

  OrderingPipeline(const PipelineConfig& config, clk::Clock& clock, RunSinkFn sink,
                   FlushFn flush, TachyonFn on_tachyon);
  /// Per-record adapter: `sink` is called once per record of each run.
  OrderingPipeline(const PipelineConfig& config, clk::Clock& clock, SinkFn sink,
                   FlushFn flush, TachyonFn on_tachyon);
  ~OrderingPipeline();
  OrderingPipeline(const OrderingPipeline&) = delete;
  OrderingPipeline& operator=(const OrderingPipeline&) = delete;

  /// Routes one admitted batch — `node`'s records, in arrival order — to
  /// the node's shard (ordering thread only), moving them out of `records`:
  /// one submitted-count bump, bulk lane pushes and one shard wakeup per
  /// batch; without workers, one sorter lock per batch. A full shard lane
  /// spins (counted once per batch in submit_stalls) — the shard workers
  /// always drain, so this is bounded backpressure, not deadlock. Every
  /// record is routed even if one fails; the first failure is returned.
  Status submit_run(NodeId node, std::span<sensors::Record> records);
  /// The one-record case of submit_run.
  Status submit(sensors::Record record);

  /// Ordering-thread idle hook. Without worker threads it does their work
  /// here: the shard cycle of every shard, then the k-way merge, the CRE
  /// pass and the sink flush. Returns the time until the earliest record
  /// pending in a sorter becomes due (0 if one already is) — how long the
  /// caller may sleep — or -1 when none is pending or the workers run.
  TimeMicros service();

  /// Session expiry: drain `node`'s pending records out of band — they
  /// bypass the merge (a dead node must not stall or distort it) but still
  /// pass the CRE matcher, since they may be reasons a held consequence is
  /// waiting for. Without workers the drain runs now and returns the
  /// drained count; sharded it is asynchronous and returns 0. Either way
  /// the records are counted in stats().oob_records as they leave.
  std::size_t remove_node(NodeId node);

  /// Shutdown path: stops the worker threads, flushes every shard's sorter
  /// into its own lane, marks every lane flushed and runs the live merge to
  /// the end — identical output whatever the shard count. Afterwards
  /// service() drives the pipeline for late stragglers; drained lanes no
  /// longer gate the merge.
  Status drain();

  // ---- ordered ingress (federation relay lanes) ------------------------------
  // A relay connection's stream is already (timestamp, node)-sorted and
  // carries watermarks, so it bypasses the sorter shards entirely and
  // enters the k-way merge as its own lane: the relay's batch/idle
  // watermarks replace the shard's wall-clock promise. Lanes are unbounded
  // deques guarded by merger_mutex_ — boundedness comes from the credit
  // window the ISM grants the relay session (admitted − drained), which is
  // exactly what the per-lane drained cell feeds.

  /// Registers an ordered-ingress lane (ordering thread). `drained` — may
  /// be null — is bumped once per record the merge releases from this lane,
  /// so credit grants track pipeline progress. Returns the lane id.
  std::size_t add_relay_lane(std::shared_ptr<DrainCell> drained);
  /// Appends one relay batch's records — already sorted, already in this
  /// ISM's timebase — and then advances the lane watermark (ordering thread).
  Status submit_relay(std::size_t lane, std::vector<sensors::Record> records,
                      TimeMicros watermark);
  /// Watermark-only advance from an idle relay (ordering thread).
  void advance_relay_watermark(std::size_t lane, TimeMicros watermark);
  /// The relay disconnected: queued records still merge, but the lane stops
  /// gating (its watermark promise would otherwise freeze the merge).
  void flush_relay_lane(std::size_t lane);
  /// Re-arms a flushed lane when its relay session resumes (same lane keeps
  /// the dedupe cursor upstream; watermarks continue monotonically).
  void resume_relay_lane(std::size_t lane);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] bool threaded() const noexcept {
    return threads_running_.load(std::memory_order_acquire);
  }
  /// Aggregated over all shards (max_lateness_us reports the maximum).
  [[nodiscard]] SorterStats sorter_stats() const;
  /// Bucket-wise merges every shard's (or one shard's) out-of-order lateness
  /// distribution into `out` — the disorder signal behind sort.disorder_us.
  void merge_disorder(metrics::Histogram& out) const;
  void merge_shard_disorder(std::size_t shard, metrics::Histogram& out) const;
  /// Records pending per shard (for the periodic stats line).
  [[nodiscard]] std::vector<std::size_t> shard_depths() const;
  [[nodiscard]] std::vector<TimeMicros> shard_frames() const;
  [[nodiscard]] PipelineStats stats() const;
  /// Newest timestamp released through the k-way merge — the merge's
  /// release watermark. Monotone; readable from any thread. Published after
  /// the sink call that carries the records it covers, so it never passes a
  /// record the sinks have not been handed (a consequence the CRE matcher
  /// holds is the one exception: it follows its reason). The consumer
  /// gateway closes aggregation windows against this, so a window only
  /// closes once the merge has released past its end — a wall-clock close
  /// could seal a window while a delayed in-window record is still waiting
  /// in a sorter shard. INT64_MIN until the first release.
  [[nodiscard]] TimeMicros release_watermark() const noexcept {
    return release_watermark_.load(std::memory_order_acquire);
  }
  /// Snapshot of the CRE matcher's counters, safe from any thread while
  /// the pipeline runs (takes the merger mutex the owning thread holds
  /// during delivery).
  [[nodiscard]] CreStats cre_stats();

 private:
  /// One unit on a shard → merger lane. Out-of-band entries (expiry drains)
  /// ride the same lane to keep them ordered relative to the shard's
  /// regular stream, but skip the merge at the far end.
  struct ShardOutput {
    sensors::Record record;
    bool out_of_band = false;
  };
  struct Shard;

  /// A worker's wakeup: signal() sets the flag and notifies; wait() returns
  /// once the flag is set, `stop` is set or the timeout passes, and clears
  /// the flag, so a signal sent before the wait is not lost.
  struct Wakeup {
    std::mutex mutex;
    std::condition_variable cv;
    bool signaled = false;

    void signal();
    void wait(TimeMicros timeout_us, const std::atomic<bool>& stop);
  };

  /// One ordered-ingress lane. The queue is guarded by merger_mutex_; the
  /// watermark and flushed flag are atomics so the merge can read them
  /// without extra synchronization points.
  struct RelayLane {
    std::deque<sensors::Record> queue;
    std::atomic<TimeMicros> watermark{std::numeric_limits<TimeMicros>::min()};
    std::atomic<bool> flushed{false};
    std::shared_ptr<DrainCell> drained;  // may be null
  };

  void start_threads();
  void stop_threads();
  void shard_loop(Shard& shard);
  /// Commands + input drain + sorter service + watermark publish. Requires
  /// the shard's state mutex. Returns the time until the sorter's next
  /// record is due (0 if one already is), or -1 when it holds none.
  TimeMicros shard_cycle(Shard& shard);
  /// Drains `node`'s pending records out of band. Requires the shard's
  /// state mutex.
  std::size_t remove_pending(Shard& shard, NodeId node);
  /// Moves everything on the shard's input lane into its sorter, in bulk
  /// chunks through the shard's scratch. Requires the shard's state mutex.
  /// Returns the first push failure (every record is still pushed).
  Status feed_sorter(Shard& shard);
  void shard_emit(Shard& shard, sensors::Record record);
  /// Appends to the shard's output lane, or to its spill behind it. A
  /// worker spins on a full lane; without workers the caller is also the
  /// lane's consumer, so it merges instead and spills what it cannot take.
  /// Once the pipeline stops, a full lane spills.
  void push_output(Shard& shard, ShardOutput out);
  void merger_loop();
  /// Tops up one cached lane head from the shard's output lane, then its
  /// spill, routing out-of-band entries straight to deliver_oob. Requires
  /// merger_mutex_.
  void refill_head(std::size_t lane);
  /// Drains the shard lanes through the k-way merge as far as the
  /// watermarks allow, releasing records in runs up to the watermark front
  /// (one front scan per run, not per record). Requires merger_mutex_.
  void merge_step();
  /// Passes one merged record through the CRE matcher into cre_scratch_,
  /// handing the scratch over once it holds kMaxSinkRun records. Requires
  /// merger_mutex_.
  void deliver(sensors::Record record);
  void deliver_oob(sensors::Record record);
  /// Releases timed-out CRE holds and hands them over. Requires merger_mutex_.
  void cre_service();
  /// Stamps cre_pass on the traced records the matcher appended to
  /// cre_scratch_ from index `from` on.
  void stamp_cre_pass(std::size_t from);
  /// Hands cre_scratch_ to the sink in runs of at most kMaxSinkRun, then
  /// publishes the merged count and the release watermark they cover.
  /// Requires merger_mutex_.
  void hand_over();

  PipelineConfig config_;
  clk::Clock& clock_;
  RunSinkFn sink_;
  FlushFn flush_;
  CreMatcher cre_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Ordered-ingress lanes. Appended (never removed) by the ordering thread
  /// under merger_mutex_; the merge reads it under the same mutex.
  std::vector<std::unique_ptr<RelayLane>> relay_lanes_;
  /// relay_lanes_.size(), readable from the shard threads.
  std::atomic<std::size_t> relay_lane_count_{0};
  std::atomic<bool> threads_running_{false};
  std::atomic<bool> stop_{false};

  // ---- merger state (merger_mutex_; merger thread while sharded, the
  // ordering thread otherwise and at drain) ------------------------------------
  std::mutex merger_mutex_;
  /// Cached lane heads: popped but not yet released by the watermark gate.
  std::vector<std::optional<ShardOutput>> heads_;
  /// High-water timestamp of the merge: what the release watermark
  /// publishes.
  TimeMicros last_merged_ts_ = 0;
  /// Key of the record merged last, which the next one is checked against
  /// for merge_inversions.
  TimeMicros prev_merged_ts_ = 0;
  NodeId prev_merged_node_ = 0;
  bool merged_any_ = false;
  /// Atomic mirror of last_merged_ts_ for cross-thread readers, published
  /// by hand_over() (see release_watermark()).
  std::atomic<TimeMicros> release_watermark_{std::numeric_limits<TimeMicros>::min()};
  /// CRE output not yet handed to the sink, in sink order.
  std::vector<sensors::Record> cre_scratch_;
  /// Records merged since the last hand_over(); published into merged_ there.
  std::uint64_t unpublished_merged_ = 0;
  Wakeup merger_wakeup_;
  std::thread merger_thread_;

  // ---- stats ------------------------------------------------------------------
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> merged_{0};
  std::atomic<std::uint64_t> merge_inversions_{0};
  std::atomic<std::uint64_t> merge_runs_{0};
  std::atomic<std::uint64_t> sink_runs_{0};
  std::atomic<std::uint64_t> submit_stalls_{0};
  std::atomic<std::uint64_t> oob_records_{0};
};

}  // namespace brisk::ism
