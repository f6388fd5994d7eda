#include "ism/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "ism/session_table.hpp"

namespace brisk::ism {

namespace {

/// The global merge key, identical to MergeHeap's Entry ordering: timestamp
/// first, node id as the deterministic tie-break. Because every node lives
/// on exactly one shard and each shard emits its nodes in this same order,
/// k-way merging by this key reproduces the monolithic sorter's output.
bool key_less(TimeMicros a_ts, NodeId a_node, TimeMicros b_ts, NodeId b_node) noexcept {
  if (a_ts != b_ts) return a_ts < b_ts;
  return a_node < b_node;
}

bool key_less(const sensors::Record& a, const sensors::Record& b) noexcept {
  return key_less(a.timestamp, a.node, b.timestamp, b.node);
}

/// Most records one bulk pop moves from a shard's input lane into its
/// sorter: the size of the shard's reused scratch.
constexpr std::size_t kShardPopChunk = 256;

}  // namespace

std::size_t shard_of_node(NodeId node, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  // Fibonacci hashing: striding node ids (0,1,2,… or 0,4,8,…) spread evenly.
  const std::uint64_t mixed =
      (static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ull) >> 32;
  return static_cast<std::size_t>(mixed % shards);
}

struct OrderingPipeline::Shard {
  Shard(std::size_t index, std::size_t lane_depth)
      : index(index), input(lane_depth), output(lane_depth) {
    scratch.reserve(kShardPopChunk);
  }

  const std::size_t index;
  SpscQueue<sensors::Record> input;  // ordering thread → shard worker
  SpscQueue<ShardOutput> output;     // shard worker → merger
  /// Lower bound on this shard's future in-order emission timestamps
  /// (monotone; release-published after each sorter service).
  std::atomic<TimeMicros> watermark{std::numeric_limits<TimeMicros>::min()};
  /// drain() flushed this shard: its stream is complete, stop gating on it.
  std::atomic<bool> flushed{false};

  // Guarded by state_mutex: the sorter plus the emit-routing flags. Owned
  // by the shard thread while the pipeline is threaded, by the ordering
  // thread otherwise; stats readers take it for snapshots either way.
  mutable std::mutex state_mutex;
  std::unique_ptr<OnlineSorter> sorter;
  /// Emissions while set are expiry drains: they ride the lane marked
  /// out_of_band.
  bool oob_mode = false;
  /// The output lane's overflow, read in order behind it: emissions that
  /// found the lane full once the pipeline was stopping, or — without
  /// workers — while the merge was gated. A worker fills it only once
  /// stopping and the merge reads it only after the join; without workers
  /// the ordering thread owns both ends.
  std::deque<ShardOutput> spill;
  /// Reused chunk buffer between the input lane and the sorter (feed_sorter).
  std::vector<sensors::Record> scratch;

  std::mutex cmd_mutex;
  std::vector<NodeId> removals;  // session-expiry commands, ordering → shard

  bool pending_signal = false;  // shard thread only: merger wakeup owed

  Wakeup wakeup;
  std::thread thread;
};

OrderingPipeline::OrderingPipeline(const PipelineConfig& config, clk::Clock& clock,
                                   SinkFn sink, FlushFn flush, TachyonFn on_tachyon)
    : OrderingPipeline(config, clock,
                       RunSinkFn([sink = std::move(sink)](std::span<const sensors::Record> run) {
                         for (const sensors::Record& record : run) sink(record);
                       }),
                       std::move(flush), std::move(on_tachyon)) {}

OrderingPipeline::OrderingPipeline(const PipelineConfig& config, clk::Clock& clock,
                                   RunSinkFn sink, FlushFn flush, TachyonFn on_tachyon)
    : config_(config),
      clock_(clock),
      sink_(std::move(sink)),
      flush_(std::move(flush)),
      cre_(config.cre, clock, std::move(on_tachyon)) {
  if (config_.shards == 0) config_.shards = 1;
  cre_scratch_.reserve(kMaxSinkRun);
  shards_.reserve(config_.shards);
  heads_.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(i, config_.shard_queue_records);
    Shard* raw = shard.get();
    shard->sorter = std::make_unique<OnlineSorter>(
        config_.sorter, clock_,
        [this, raw](sensors::Record record) { shard_emit(*raw, std::move(record)); });
    shards_.push_back(std::move(shard));
  }
  if (config_.shards > 1) start_threads();
}

OrderingPipeline::~OrderingPipeline() { stop_threads(); }

void OrderingPipeline::start_threads() {
  stop_.store(false, std::memory_order_release);
  threads_running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { shard_loop(*raw); });
  }
  merger_thread_ = std::thread([this] { merger_loop(); });
}

void OrderingPipeline::stop_threads() {
  stop_.store(true, std::memory_order_release);
  if (!threads_running_.load(std::memory_order_acquire)) return;
  for (auto& shard : shards_) shard->wakeup.signal();
  merger_wakeup_.signal();
  // Shards first: they may be spinning on a full output lane, and the spin
  // breaks out (to the spill vector) only on stop_ — never wait on the
  // merger to make room for them.
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (merger_thread_.joinable()) merger_thread_.join();
  threads_running_.store(false, std::memory_order_release);
}

void OrderingPipeline::Wakeup::signal() {
  {
    std::lock_guard<std::mutex> lk(mutex);
    if (signaled) return;
    signaled = true;
  }
  cv.notify_one();
}

void OrderingPipeline::Wakeup::wait(TimeMicros timeout_us, const std::atomic<bool>& stop) {
  std::unique_lock<std::mutex> lk(mutex);
  cv.wait_for(lk, std::chrono::microseconds(timeout_us),
              [&] { return signaled || stop.load(std::memory_order_relaxed); });
  signaled = false;
}

// ---- ordering-thread API ----------------------------------------------------

Status OrderingPipeline::submit_run(NodeId node, std::span<sensors::Record> records) {
  if (records.empty()) return Status::ok();
  submitted_.fetch_add(records.size(), std::memory_order_relaxed);
  Shard& shard = *shards_[shard_of_node(node, shards_.size())];
  if (threaded()) {
    bool stalled = false;
    std::size_t pushed = 0;
    for (;;) {
      pushed += shard.input.try_push_n(records.subspan(pushed));
      if (pushed == records.size() || stop_.load(std::memory_order_relaxed)) break;
      if (!stalled) {
        stalled = true;
        submit_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.wakeup.signal();
      std::this_thread::yield();
    }
    if (!stop_.load(std::memory_order_relaxed)) {
      shard.wakeup.signal();
      return Status::ok();
    }
    // The worker is gone: the mid-shutdown stragglers go inline below.
    records = records.subspan(pushed);
  }
  Status first = Status::ok();
  std::lock_guard<std::mutex> lk(shard.state_mutex);
  for (sensors::Record& record : records) {
    Status st = shard.sorter->push(std::move(record));
    if (!st && first) first = std::move(st);
  }
  return first;
}

Status OrderingPipeline::submit(sensors::Record record) {
  return submit_run(record.node, std::span<sensors::Record>(&record, 1));
}

TimeMicros OrderingPipeline::service() {
  if (threaded()) return -1;
  TimeMicros next_due = -1;
  for (auto& shard : shards_) {
    TimeMicros due;
    {
      std::lock_guard<std::mutex> lk(shard->state_mutex);
      due = shard_cycle(*shard);
    }
    if (due >= 0 && (next_due < 0 || due < next_due)) next_due = due;
  }
  {
    std::lock_guard<std::mutex> lk(merger_mutex_);
    merge_step();
    cre_service();
  }
  flush_();
  return next_due;
}

std::size_t OrderingPipeline::remove_node(NodeId node) {
  Shard& shard = *shards_[shard_of_node(node, shards_.size())];
  if (threaded()) {
    {
      std::lock_guard<std::mutex> lk(shard.cmd_mutex);
      shard.removals.push_back(node);
    }
    shard.wakeup.signal();
    return 0;  // drained asynchronously; lands in stats().oob_records
  }
  std::size_t drained;
  {
    std::lock_guard<std::mutex> lk(shard.state_mutex);
    drained = remove_pending(shard, node);
  }
  std::lock_guard<std::mutex> lk(merger_mutex_);
  merge_step();
  return drained;
}

Status OrderingPipeline::drain() {
  // stop_ stays set from here on: no emission below merges part-way through
  // a flush (see push_output).
  stop_threads();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->state_mutex);
    Status st = feed_sorter(*shard);
    if (!st) return st;
    shard->sorter->flush_all();
  }
  // Every stream is complete: nothing gates the merge any more, so the live
  // merge releases every lane to its end.
  std::lock_guard<std::mutex> lk(merger_mutex_);
  for (auto& shard : shards_) shard->flushed.store(true, std::memory_order_release);
  for (auto& lane : relay_lanes_) lane->flushed.store(true, std::memory_order_release);
  merge_step();
  cre_service();
  return Status::ok();
}

// ---- ordered ingress (relay lanes) ------------------------------------------

std::size_t OrderingPipeline::add_relay_lane(std::shared_ptr<DrainCell> drained) {
  std::lock_guard<std::mutex> lk(merger_mutex_);
  auto lane = std::make_unique<RelayLane>();
  lane->drained = std::move(drained);
  relay_lanes_.push_back(std::move(lane));
  relay_lane_count_.store(relay_lanes_.size(), std::memory_order_release);
  return relay_lanes_.size() - 1;
}

Status OrderingPipeline::submit_relay(std::size_t lane_index,
                                      std::vector<sensors::Record> records,
                                      TimeMicros watermark) {
  if (lane_index >= relay_lanes_.size()) {
    return Status(Errc::invalid_argument, "unknown relay lane");
  }
  RelayLane& lane = *relay_lanes_[lane_index];
  submitted_.fetch_add(records.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(merger_mutex_);
    for (sensors::Record& record : records) lane.queue.push_back(std::move(record));
  }
  // Watermark strictly after the records it covers are visible; a merge
  // interleaving between the two blocks under-releases, never over-releases.
  advance_relay_watermark(lane_index, watermark);
  return Status::ok();
}

void OrderingPipeline::advance_relay_watermark(std::size_t lane_index, TimeMicros watermark) {
  if (lane_index >= relay_lanes_.size()) return;
  RelayLane& lane = *relay_lanes_[lane_index];
  if (watermark > lane.watermark.load(std::memory_order_relaxed)) {
    lane.watermark.store(watermark, std::memory_order_release);
  }
  if (!threaded()) return;
  // The merge may be waiting on an idle shard's watermark, which the shard
  // otherwise republishes only every poll timeout: wake the shards too, and
  // they signal the merger once they have advanced it.
  for (auto& shard : shards_) shard->wakeup.signal();
  merger_wakeup_.signal();
}

void OrderingPipeline::flush_relay_lane(std::size_t lane_index) {
  if (lane_index >= relay_lanes_.size()) return;
  relay_lanes_[lane_index]->flushed.store(true, std::memory_order_release);
  if (threaded()) merger_wakeup_.signal();
}

void OrderingPipeline::resume_relay_lane(std::size_t lane_index) {
  if (lane_index >= relay_lanes_.size()) return;
  relay_lanes_[lane_index]->flushed.store(false, std::memory_order_release);
}

// ---- shard side -------------------------------------------------------------

void OrderingPipeline::shard_emit(Shard& shard, sensors::Record record) {
  if (record.trace) {
    record.trace->stamp(sensors::TraceStage::sorter_release, clock_.now());
  }
  push_output(shard, ShardOutput{std::move(record), shard.oob_mode});
}

void OrderingPipeline::push_output(Shard& shard, ShardOutput out) {
  if (!threaded()) {
    // The calling thread is also the lane's only consumer, so it never
    // spins on the lane: a full lane merges, and what a gated merge keeps
    // back queues in the spill behind it. A stopped pipeline spills without
    // merging: drain() flushes one shard at a time, and a merge part-way
    // through could release another lane's records ahead of a late record
    // the flushing shard has yet to emit.
    if (shard.spill.empty()) {
      if (shard.output.try_push(std::move(out))) return;
      if (!stop_.load(std::memory_order_relaxed)) {
        {
          std::lock_guard<std::mutex> lk(merger_mutex_);
          merge_step();
        }
        if (shard.output.try_push(std::move(out))) return;
      }
    }
    shard.spill.push_back(std::move(out));
    return;
  }
  // A stopping worker spills instead of spinning; once it has, later
  // emissions queue behind the spill to keep emission order.
  while (!shard.spill.empty() || !shard.output.try_push(std::move(out))) {
    if (!shard.spill.empty() || stop_.load(std::memory_order_relaxed)) {
      shard.spill.push_back(std::move(out));
      return;
    }
    // Lane full: bounded backpressure on this shard's sorter. Wake the
    // merger now rather than at cycle end — it is the only consumer.
    shard.pending_signal = false;
    merger_wakeup_.signal();
    std::this_thread::yield();
  }
  shard.pending_signal = true;
}

std::size_t OrderingPipeline::remove_pending(Shard& shard, NodeId node) {
  shard.oob_mode = true;
  const std::size_t drained = shard.sorter->remove_node(node);
  shard.oob_mode = false;
  return drained;
}

Status OrderingPipeline::feed_sorter(Shard& shard) {
  Status first = Status::ok();
  while (shard.input.try_pop_n(shard.scratch, kShardPopChunk) != 0) {
    for (sensors::Record& record : shard.scratch) {
      Status st = shard.sorter->push(std::move(record));
      if (!st && first) first = std::move(st);
    }
    shard.scratch.clear();
  }
  return first;
}

TimeMicros OrderingPipeline::shard_cycle(Shard& shard) {
  std::vector<NodeId> removals;
  {
    std::lock_guard<std::mutex> lk(shard.cmd_mutex);
    removals.swap(shard.removals);
  }
  for (NodeId node : removals) (void)remove_pending(shard, node);
  Status st = feed_sorter(shard);
  if (!st) {
    BRISK_LOG_WARN << "shard sorter push failed: " << st.to_string();
  }
  // The promise is taken from the time and frame this service pass uses:
  // everything at or below now - T leaves the sorter in it, so future
  // in-order emissions are strictly above the watermark. A clock read after
  // the pass would promise records the pass left pending.
  const TimeMicros wm = clock_.now() - shard.sorter->current_frame();
  shard.sorter->service();
  if (wm > shard.watermark.load(std::memory_order_relaxed)) {
    shard.watermark.store(wm, std::memory_order_release);
  }
  if (shard.sorter->pending() == 0) return -1;
  // A record that fell due after service() ran (T decays at its end) is
  // due now.
  return std::max<TimeMicros>(shard.sorter->next_due_in(), 0);
}

void OrderingPipeline::shard_loop(Shard& shard) {
  while (!stop_.load(std::memory_order_acquire)) {
    // Only this thread writes the watermark.
    const TimeMicros wm_before = shard.watermark.load(std::memory_order_relaxed);
    TimeMicros due;
    {
      std::lock_guard<std::mutex> lk(shard.state_mutex);
      due = shard_cycle(shard);
    }
    // An advanced watermark can release relay-lane records the merge holds
    // back for this shard; shard lanes alone wake the merger by emitting.
    if (shard.watermark.load(std::memory_order_relaxed) > wm_before &&
        relay_lane_count_.load(std::memory_order_acquire) > 0) {
      shard.pending_signal = true;
    }
    if (shard.pending_signal) {
      shard.pending_signal = false;
      merger_wakeup_.signal();
    }
    TimeMicros wait_us = config_.poll_timeout_us;
    if (due >= 0 && due < wait_us) wait_us = std::max(due, kMinLoopWaitUs);
    shard.wakeup.wait(wait_us, stop_);
  }
}

// ---- merger side ------------------------------------------------------------

void OrderingPipeline::merger_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lk(merger_mutex_);
      merge_step();
      cre_service();
    }
    flush_();
    merger_wakeup_.wait(config_.poll_timeout_us, stop_);
  }
}

void OrderingPipeline::refill_head(std::size_t lane) {
  Shard& shard = *shards_[lane];
  while (!heads_[lane]) {
    // The spill continues the lane. A stopping worker may still be
    // appending to it, so it is read only once no worker runs.
    if (shard.output.empty() && (threaded() || shard.spill.empty())) return;
    ShardOutput out;
    if (!shard.output.try_pop(out)) {  // the lane is empty: take the spill
      out = std::move(shard.spill.front());
      shard.spill.pop_front();
    }
    if (out.out_of_band) {
      // Expiry drains leave the merge immediately — a dead node's leftovers
      // must not gate it.
      deliver_oob(std::move(out.record));
      continue;
    }
    heads_[lane] = std::move(out);
  }
}

void OrderingPipeline::merge_step() {
  const std::size_t n = shards_.size();
  const std::size_t m = relay_lanes_.size();
  const std::size_t total = n + m;
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) refill_head(i);
    // The watermark barrier, computed once per release run instead of once
    // per record: an empty, unflushed lane may still produce a smaller
    // timestamp, so the run may release only keys at or below the smallest
    // such watermark. Lanes holding a cached head gate through the head
    // itself in the k-way pick; flushed lanes are complete and never gate.
    // Watermarks are monotone, so this snapshot can only under-release —
    // the next pass picks up whatever it left behind. Idle shards keep
    // publishing wall-clock watermarks, so an empty shard lane stalls the
    // merge by at most one poll cycle + T. Relay lanes gate through the
    // watermark their relay last promised (batch header or idle frame) —
    // an empty relay lane stalls the merge until its next promise.
    TimeMicros bound = std::numeric_limits<TimeMicros>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (heads_[i] || shards_[i]->flushed.load(std::memory_order_acquire)) continue;
      const TimeMicros wm = shards_[i]->watermark.load(std::memory_order_acquire);
      if (wm < bound) bound = wm;
    }
    for (std::size_t j = 0; j < m; ++j) {
      RelayLane& lane = *relay_lanes_[j];
      if (!lane.queue.empty() || lane.flushed.load(std::memory_order_acquire)) continue;
      const TimeMicros wm = lane.watermark.load(std::memory_order_acquire);
      if (wm < bound) bound = wm;
    }
    bool progressed = false;
    for (;;) {
      // K-way pick over shard heads and relay lane fronts (lane index space:
      // [0, n) shards, [n, total) relay lanes).
      std::size_t best = total;
      const sensors::Record* best_record = nullptr;
      for (std::size_t i = 0; i < total; ++i) {
        const sensors::Record* candidate = nullptr;
        if (i < n) {
          if (heads_[i]) candidate = &heads_[i]->record;
        } else {
          const std::deque<sensors::Record>& q = relay_lanes_[i - n]->queue;
          if (!q.empty()) candidate = &q.front();
        }
        if (candidate == nullptr) continue;
        if (best_record == nullptr || key_less(*candidate, *best_record)) {
          best = i;
          best_record = candidate;
        }
      }
      if (best == total || best_record->timestamp > bound) break;
      sensors::Record record;
      if (best < n) {
        record = std::move(heads_[best]->record);
        heads_[best].reset();
      } else {
        RelayLane& lane = *relay_lanes_[best - n];
        record = std::move(lane.queue.front());
        lane.queue.pop_front();
        if (lane.drained) lane.drained->note_drained();
        if (lane.queue.empty() && !lane.flushed.load(std::memory_order_acquire)) {
          const TimeMicros wm = lane.watermark.load(std::memory_order_acquire);
          if (wm < bound) bound = wm;
        }
      }
      if (merged_any_ &&
          key_less(record.timestamp, record.node, prev_merged_ts_, prev_merged_node_)) {
        merge_inversions_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!merged_any_ || record.timestamp > last_merged_ts_) {
        last_merged_ts_ = record.timestamp;
      }
      prev_merged_ts_ = record.timestamp;
      prev_merged_node_ = record.node;
      merged_any_ = true;
      deliver(std::move(record));
      progressed = true;
      // Refilled only after the delivery, so an out-of-band entry queued
      // behind the popped record reaches the CRE matcher after it.
      if (best < n) {
        refill_head(best);
        if (!heads_[best] && !shards_[best]->flushed.load(std::memory_order_acquire)) {
          // The popped lane went empty mid-run: it re-enters the barrier
          // with its current watermark, tightening the bound if needed.
          const TimeMicros wm = shards_[best]->watermark.load(std::memory_order_acquire);
          if (wm < bound) bound = wm;
        }
      }
    }
    // The run's end (or, with nothing released, the out-of-band drains the
    // refills routed) reaches the sink now.
    hand_over();
    if (progressed) {
      merge_runs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      return;
    }
  }
}

void OrderingPipeline::deliver(sensors::Record record) {
  ++unpublished_merged_;
  if (record.trace) {
    record.trace->stamp(sensors::TraceStage::merge_release, clock_.now());
  }
  const std::size_t from = cre_scratch_.size();
  cre_.process(std::move(record), cre_scratch_);
  stamp_cre_pass(from);
  if (cre_scratch_.size() >= kMaxSinkRun) hand_over();
}

void OrderingPipeline::deliver_oob(sensors::Record record) {
  oob_records_.fetch_add(1, std::memory_order_relaxed);
  // First CRE contact for these records (the matcher sits behind the
  // merge now): an expiry-drained reason may release a held consequence.
  // No merge_release stamp — these bypassed the merge, and the span should
  // say so. The caller's hand-over delivers them in order with the run.
  const std::size_t from = cre_scratch_.size();
  cre_.process(std::move(record), cre_scratch_);
  stamp_cre_pass(from);
}

void OrderingPipeline::cre_service() {
  const std::size_t from = cre_scratch_.size();
  cre_.service(cre_scratch_);
  stamp_cre_pass(from);
  hand_over();
}

void OrderingPipeline::stamp_cre_pass(std::size_t from) {
  for (std::size_t i = from; i < cre_scratch_.size(); ++i) {
    if (cre_scratch_[i].trace) {
      cre_scratch_[i].trace->stamp(sensors::TraceStage::cre_pass, clock_.now());
    }
  }
}

void OrderingPipeline::hand_over() {
  const std::span<const sensors::Record> ready(cre_scratch_);
  std::uint64_t runs = 0;
  for (std::size_t at = 0; at < ready.size(); at += kMaxSinkRun, ++runs) {
    sink_(ready.subspan(at, std::min(kMaxSinkRun, ready.size() - at)));
  }
  cre_scratch_.clear();
  if (runs != 0) sink_runs_.fetch_add(runs, std::memory_order_relaxed);
  // Published only after the sink call: a reader of the watermark (the
  // gateway closing aggregation windows) must never see it pass a record
  // the sinks have not been handed. Single writer: whichever thread holds
  // merger_mutex_. Out-of-band drains never move last_merged_ts_ — a dead
  // node's stale timestamps must not drag the watermark around.
  if (unpublished_merged_ != 0) {
    merged_.fetch_add(unpublished_merged_, std::memory_order_relaxed);
    unpublished_merged_ = 0;
  }
  if (merged_any_ && last_merged_ts_ > release_watermark_.load(std::memory_order_relaxed)) {
    release_watermark_.store(last_merged_ts_, std::memory_order_release);
  }
}

// ---- stats ------------------------------------------------------------------

SorterStats OrderingPipeline::sorter_stats() const {
  SorterStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->state_mutex);
    const SorterStats& s = shard->sorter->stats();
    total.pushed += s.pushed;
    total.emitted += s.emitted;
    total.out_of_order_emissions += s.out_of_order_emissions;
    total.frame_raises += s.frame_raises;
    total.overflow_emits += s.overflow_emits;
    total.overflow_drops += s.overflow_drops;
    if (s.max_lateness_us > total.max_lateness_us) total.max_lateness_us = s.max_lateness_us;
    total.total_delay_us += s.total_delay_us;
    total.late_records += s.late_records;
  }
  return total;
}

void OrderingPipeline::merge_disorder(metrics::Histogram& out) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    merge_shard_disorder(i, out);
  }
}

void OrderingPipeline::merge_shard_disorder(std::size_t shard, metrics::Histogram& out) const {
  std::lock_guard<std::mutex> lk(shards_[shard]->state_mutex);
  out.merge_from(shards_[shard]->sorter->disorder());
}

std::vector<std::size_t> OrderingPipeline::shard_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->state_mutex);
    depths.push_back(shard->sorter->pending() + shard->input.size());
  }
  return depths;
}

std::vector<TimeMicros> OrderingPipeline::shard_frames() const {
  std::vector<TimeMicros> frames;
  frames.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->state_mutex);
    frames.push_back(shard->sorter->current_frame());
  }
  return frames;
}

CreStats OrderingPipeline::cre_stats() {
  std::lock_guard<std::mutex> lk(merger_mutex_);
  return cre_.stats();
}

PipelineStats OrderingPipeline::stats() const {
  PipelineStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.merged = merged_.load(std::memory_order_relaxed);
  out.merge_inversions = merge_inversions_.load(std::memory_order_relaxed);
  out.merge_runs = merge_runs_.load(std::memory_order_relaxed);
  out.sink_runs = sink_runs_.load(std::memory_order_relaxed);
  out.submit_stalls = submit_stalls_.load(std::memory_order_relaxed);
  out.oob_records = oob_records_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace brisk::ism
