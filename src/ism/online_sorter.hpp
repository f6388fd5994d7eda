// Dynamic on-line sorting with an adaptive time frame (paper Section 3.6).
//
// "Using the synchronized embedded time-stamps, its current time, and a
// user-specified time frame T, the ISM delays each instrumentation data
// record for T time units after its creation. If the ISM detects that two
// successive records from different external sensors have been extracted
// out of order, it increases the time frame; then, it exponentially
// decreases the time frame to reduce the amount of instrumentation data
// delayed in memory. This method of sorting results in a tradeoff between
// the event ordering and latency."
//
// Policy details chosen per the paper's evaluation findings: the raise sets
// T to the observed lateness ("setting the time frame T to be as large as
// the latest late event's lateness is a good strategy"), and the decrease
// is exponential with a configurable half-life ("a small exponent constant
// for reducing T (i.e., a large T's half-life) helps").
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "clock/clock.hpp"
#include "ism/merge_heap.hpp"
#include "metrics/metrics.hpp"

namespace brisk::ism {

/// What to do when more records are delayed in memory than max_pending
/// allows (the "event dropping" box in Fig. 1).
enum class OverflowPolicy {
  emit_early,   // release the oldest records immediately (may emit unordered)
  drop_oldest,  // discard the oldest pending record
  drop_newest,  // discard the incoming record
};

struct SorterConfig {
  TimeMicros initial_frame_us = 10'000;
  TimeMicros min_frame_us = 1'000;
  TimeMicros max_frame_us = 10'000'000;
  /// Half-life of the exponential decrease of T, in seconds.
  double decay_half_life_s = 1.0;
  /// false freezes T at initial_frame_us (the non-adaptive baseline the
  /// sorting experiment compares against).
  bool adaptive = true;
  std::size_t max_pending = 1u << 20;
  OverflowPolicy overflow = OverflowPolicy::emit_early;
};

struct SorterStats {
  std::uint64_t pushed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t out_of_order_emissions = 0;
  std::uint64_t frame_raises = 0;
  std::uint64_t overflow_emits = 0;
  std::uint64_t overflow_drops = 0;
  TimeMicros max_lateness_us = 0;
  /// Sum over emitted records of (emission clock time − record timestamp):
  /// the added latency side of the ordering/latency trade-off.
  std::uint64_t total_delay_us = 0;
  /// Records that arrived already behind the emitted frontier — the delay
  /// window T was too small to reorder them, so they left (or will leave)
  /// the sorter out of order. This is the reordering-loss rate an adaptive
  /// buffer-sizing policy trades against latency.
  std::uint64_t late_records = 0;
};

class OnlineSorter {
 public:
  /// Receives each released record by value so the sorter can move its
  /// payload out instead of copying (callables taking `const Record&` still
  /// bind). In the sharded pipeline this is the shard's lane-push hook.
  using EmitFn = std::function<void(sensors::Record)>;

  OnlineSorter(const SorterConfig& config, clk::Clock& clock, EmitFn emit);

  /// Queues a record (auto-registers the node's queue on first sight).
  Status push(sensors::Record record);

  /// Releases every record whose delay window has expired and applies the
  /// exponential decrease of T. Call once per ISM loop cycle.
  void service();

  /// Emits everything still pending, in heap order (shutdown path).
  void flush_all();

  /// Removes a node's queue from the merge (session expiry after an EXS
  /// died). Pending records are drained out of band — emitted in queue
  /// order without touching the ordering state, so a dead node's leftovers
  /// cannot raise T or poison the order check for live nodes. Returns the
  /// number of records drained.
  std::size_t remove_node(NodeId node);

  [[nodiscard]] TimeMicros current_frame() const noexcept { return frame_us_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.pending(); }
  [[nodiscard]] const SorterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SorterConfig& config() const noexcept { return config_; }

  /// Distribution of out-of-order emission lateness (microseconds behind the
  /// emitted frontier). Mergeable across shards; feeds disorder-driven
  /// delay-window policies.
  [[nodiscard]] const metrics::Histogram& disorder() const noexcept { return disorder_; }

  /// Time until the earliest pending record becomes due (for event-loop
  /// timeout computation); negative when something is already due.
  [[nodiscard]] TimeMicros next_due_in();

 private:
  void emit(sensors::Record record, bool respect_order_check);
  void decay_frame(TimeMicros now);
  void handle_overflow();

  SorterConfig config_;
  clk::Clock& clock_;
  EmitFn emit_;
  std::map<NodeId, std::unique_ptr<EventQueue>> queues_;
  MergeHeap heap_;
  double frame_us_;  // T; double so the exponential decay is smooth
  TimeMicros last_emitted_ts_ = 0;
  bool emitted_any_ = false;
  TimeMicros last_decay_at_ = 0;
  SorterStats stats_;
  metrics::Histogram disorder_;
};

}  // namespace brisk::ism
