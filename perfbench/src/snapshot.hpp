// The daemons' own 0xFF01 metrics snapshots, as read back from the consumer
// stream: the benchmark's single source of per-layer counters.
//
// Every snapshot sample is kept as the latest value per (emitting node,
// series). Counters are summed across emitters; histogram buckets
// ("<base>.le_<bound>") are rebuilt with metrics::parse_histogram_bucket_name
// and merged bucket-wise, so percentiles come from
// metrics::histogram_percentile exactly as `brisk_consume --mode latency`
// computes them.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sensors/record.hpp"

namespace perfbench {

class SnapshotBook {
 public:
  /// Folds one record in; returns false when it is not a metrics record.
  bool observe(const brisk::sensors::Record& record);

  /// Sum over emitters of the latest value of `name`.
  [[nodiscard]] std::uint64_t sum(std::string_view name) const;
  /// Sum over emitters and series whose name starts with `prefix` and ends
  /// with `suffix`.
  [[nodiscard]] std::uint64_t sum_matching(std::string_view prefix, std::string_view suffix) const;
  /// Bucket-wise merge of histogram `base` over every emitter, as sorted
  /// (inclusive upper bound, count) pairs.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> histogram(
      std::string_view base) const;
  /// Distinct snapshots (by timestamp) seen per emitting node.
  [[nodiscard]] std::map<brisk::NodeId, std::uint64_t> snapshot_counts() const;
  [[nodiscard]] std::uint64_t records() const;

 private:
  struct Emitter {
    brisk::TimeMicros last_snapshot_ts = 0;
    std::uint64_t snapshots = 0;
    std::map<std::string, std::uint64_t, std::less<>> values;
    std::map<std::string, std::map<std::uint64_t, std::uint64_t>, std::less<>> histograms;
  };

  mutable std::mutex mutex_;
  std::map<brisk::NodeId, Emitter> emitters_;
  std::uint64_t records_ = 0;
};

}  // namespace perfbench
