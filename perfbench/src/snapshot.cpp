#include "snapshot.hpp"

#include "metrics/metrics.hpp"
#include "sensors/metrics_record.hpp"

namespace perfbench {

bool SnapshotBook::observe(const brisk::sensors::Record& record) {
  if (!brisk::sensors::is_metrics_record(record)) return false;
  auto point = brisk::sensors::decode_metrics_record(record);
  if (!point) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  ++records_;
  Emitter& emitter = emitters_[record.node];
  if (emitter.snapshots == 0 || record.timestamp != emitter.last_snapshot_ts) {
    ++emitter.snapshots;
    emitter.last_snapshot_ts = record.timestamp;
  }
  const brisk::sensors::MetricPoint& p = point.value();
  std::string base;
  std::uint64_t bound = 0;
  if (p.kind == brisk::sensors::MetricKind::histogram_bucket &&
      brisk::metrics::parse_histogram_bucket_name(p.name, base, bound)) {
    // Bucket counts are cumulative since daemon start: latest wins.
    emitter.histograms[base][bound] = p.value;
  } else {
    emitter.values[p.name] = p.value;
  }
  return true;
}

std::uint64_t SnapshotBook::sum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [node, emitter] : emitters_) {
    if (auto it = emitter.values.find(name); it != emitter.values.end()) total += it->second;
  }
  return total;
}

std::uint64_t SnapshotBook::sum_matching(std::string_view prefix, std::string_view suffix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [node, emitter] : emitters_) {
    for (const auto& [name, value] : emitter.values) {
      const std::string_view n = name;
      if (n.size() >= prefix.size() + suffix.size() && n.substr(0, prefix.size()) == prefix &&
          n.substr(n.size() - suffix.size()) == suffix) {
        total += value;
      }
    }
  }
  return total;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SnapshotBook::histogram(
    std::string_view base) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::uint64_t> merged;
  for (const auto& [node, emitter] : emitters_) {
    auto it = emitter.histograms.find(base);
    if (it == emitter.histograms.end()) continue;
    for (const auto& [bound, count] : it->second) merged[bound] += count;
  }
  return {merged.begin(), merged.end()};
}

std::map<brisk::NodeId, std::uint64_t> SnapshotBook::snapshot_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<brisk::NodeId, std::uint64_t> out;
  for (const auto& [node, emitter] : emitters_) out[node] = emitter.snapshots;
  return out;
}

std::uint64_t SnapshotBook::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

}  // namespace perfbench
