// Batching with latency control (the "batching, latency control" box of the
// EXS in Fig. 1). Wraps a tp::BatchBuilder with the flush policy: a batch
// goes out when it reaches the record/byte limits or when its oldest record
// exceeds the age limit.
#pragma once

#include <functional>

#include "clock/clock.hpp"
#include "lis/exs_config.hpp"
#include "tp/batch.hpp"

namespace brisk::lis {

/// Receives finished batch frame payloads (the socket writer in production,
/// a capture vector in tests).
using BatchSink = std::function<Status(ByteBuffer batch_payload)>;

class Batcher {
 public:
  Batcher(const ExsConfig& config, clk::Clock& clock, BatchSink sink);

  /// Adds one native record (with the current clock correction applied).
  /// Flushes first if the record would overflow the byte limit, and after
  /// if the record limit is reached.
  Status add_native_record(ByteSpan native, TimeMicros ts_delta);

  /// Flushes if the age/size policy says so. Call once per loop cycle.
  Status maybe_flush();

  /// Unconditional flush of a non-empty batch.
  Status flush();

  void set_ring_dropped_total(std::uint64_t total) noexcept { ring_dropped_total_ = total; }

  /// Window-aware flush: caps the per-batch record count below the
  /// configured maximum so a batch never exceeds the granted flow-control
  /// window (a batch bigger than the whole window could otherwise never be
  /// sent). 0 restores the configured maximum.
  void set_record_cap(std::uint32_t cap) noexcept { record_cap_ = cap; }

  [[nodiscard]] std::uint32_t pending_records() const noexcept { return builder_.record_count(); }
  /// Clock time the open batch started; meaningful while pending_records() > 0.
  [[nodiscard]] TimeMicros opened_at() const noexcept { return oldest_record_at_; }
  /// Records the open batch still takes before the record limit seals it.
  [[nodiscard]] std::uint32_t records_to_fill() const noexcept {
    const std::uint32_t limit = effective_max_records();
    return builder_.record_count() < limit ? limit - builder_.record_count() : 0;
  }
  [[nodiscard]] std::uint64_t batches_sent() const noexcept { return batches_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  [[nodiscard]] std::uint32_t effective_max_records() const noexcept {
    return record_cap_ > 0 && record_cap_ < config_.batch_max_records
               ? record_cap_
               : config_.batch_max_records;
  }

  ExsConfig config_;
  clk::Clock& clock_;
  BatchSink sink_;
  tp::BatchBuilder builder_;
  std::uint32_t record_cap_ = 0;  // 0 = config_.batch_max_records
  TimeMicros oldest_record_at_ = 0;  // clock time the current batch started
  /// Correction of the most recent record added; flush() uses it to stamp
  /// the batch_seal / tp_send trace slots in the synchronized timebase.
  TimeMicros last_ts_delta_ = 0;
  std::uint64_t ring_dropped_total_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace brisk::lis
