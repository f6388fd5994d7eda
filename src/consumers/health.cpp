#include "consumers/health.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>

namespace brisk::consumers {

namespace {

/// Parses "agg.node.<id>.watermark_us"; false for any other series.
bool parse_agg_node_watermark(const std::string& name, NodeId& node) {
  constexpr const char* kPrefix = "agg.node.";
  constexpr const char* kSuffix = ".watermark_us";
  const std::size_t prefix_len = 9;
  const std::size_t suffix_len = 13;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) return false;
  const std::string digits = name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  node = static_cast<NodeId>(parsed);
  return true;
}

/// Series counting records lost for good. The ISM's *_batches_dropped
/// counters name batches go-back-N resolves without loss (replays already
/// applied, and batches above a hole that the EXS resends), so they are not
/// drops here.
bool is_drop_series(const std::string& name) {
  return name.find("drop") != std::string::npos && !name.ends_with("_batches_dropped");
}

}  // namespace

const char* node_health_token(NodeHealth state) noexcept {
  switch (state) {
    case NodeHealth::live: return "live";
    case NodeHealth::stale: return "stale";
    case NodeHealth::departed: return "departed";
  }
  return "unknown";
}

HealthRollup::NodeState& HealthRollup::touch(NodeId node, TimeMicros now_monotonic) {
  NodeState& state = nodes_[node];
  state.last_seen = now_monotonic;
  state.seen = true;
  return state;
}

void HealthRollup::observe(const sensors::Record& record, TimeMicros now_monotonic) {
  if (sensors::is_metrics_record(record)) {
    observe_metrics(record, now_monotonic);
    return;
  }
  if (sensors::is_event_record(record)) {
    observe_event(record, now_monotonic);
    return;
  }
  // Ordinary sensor traffic is liveness evidence too: a node whose
  // application records keep flowing is not stale even if its metrics
  // interval is long (or off).
  NodeState& state = touch(record.node, now_monotonic);
  state.departed = false;
  state.via_aggregate = false;
  state.watermark = std::max(state.watermark, record.timestamp);
  frontier_ = std::max(frontier_, record.timestamp);
}

void HealthRollup::observe_metrics(const sensors::Record& record, TimeMicros now_monotonic) {
  auto point = sensors::decode_metrics_record(record);
  if (!point) return;
  ++metric_records_;
  frontier_ = std::max(frontier_, record.timestamp);

  NodeId subtree_node = 0;
  if (parse_agg_node_watermark(point.value().name, subtree_node)) {
    // The relay that emitted the gauge is alive...
    NodeState& relay = touch(record.node, now_monotonic);
    relay.departed = false;
    relay.via_aggregate = false;
    relay.watermark = std::max(relay.watermark, record.timestamp);
    // ...and it vouches for this subtree node: the node's per-node
    // snapshots were absorbed upstream, so the gauge is its liveness
    // signal here.
    NodeState& state = touch(subtree_node, now_monotonic);
    state.departed = false;
    state.via_aggregate = true;
    state.watermark =
        std::max(state.watermark, static_cast<TimeMicros>(point.value().value));
    return;
  }

  NodeState& state = touch(record.node, now_monotonic);
  state.departed = false;
  state.via_aggregate = false;
  state.watermark = std::max(state.watermark, record.timestamp);
  if (is_drop_series(point.value().name)) {
    // Latest-value per series: the exported counters are cumulative, so
    // replacing (not adding) keeps the total honest across snapshots.
    state.drop_series[point.value().name] = point.value().value;
  }
}

void HealthRollup::observe_event(const sensors::Record& record, TimeMicros now_monotonic) {
  auto point = sensors::decode_event_record(record);
  if (!point) return;
  ++event_records_;
  frontier_ = std::max(frontier_, record.timestamp);
  // The emitter is alive — it just shipped us an event.
  touch(record.node, now_monotonic);

  // Most kinds are *about* the subject node (0 = unattributed: charge the
  // emitter so the pressure still shows somewhere).
  const NodeId about = point.value().subject != 0
                           ? static_cast<NodeId>(point.value().subject)
                           : record.node;
  NodeState& state = nodes_[about];
  state.seen = true;
  ++state.events;
  switch (point.value().kind) {
    case sensors::EventKind::session_reaped:
    case sensors::EventKind::session_expired:
      if (point.value().subject != 0) state.departed = true;
      break;
    case sensors::EventKind::session_rejoined:
      state.departed = false;
      state.last_seen = now_monotonic;
      break;
    case sensors::EventKind::session_quarantined:
      break;  // parked, not gone: staleness takes over from here
    case sensors::EventKind::zero_window_grant:
      ++state.zero_windows;
      break;
    case sensors::EventKind::lane_drop:
    case sensors::EventKind::queue_drop:
    case sensors::EventKind::batch_gap:
      ++state.event_drops;
      break;
    case sensors::EventKind::subscriber_evicted:
      ++state.event_drops;
      break;
    case sensors::EventKind::reader_migration:
      break;
    case sensors::EventKind::watermark_stall:
      ++state.stalls;
      break;
    case sensors::EventKind::reconnect:
      ++state.reconnects;
      state.last_seen = now_monotonic;
      break;
  }
}

std::vector<HealthRow> HealthRollup::rows(TimeMicros now_monotonic) const {
  std::vector<HealthRow> out;
  out.reserve(nodes_.size());
  for (const auto& [node, state] : nodes_) {
    if (!state.seen) continue;
    HealthRow row;
    row.node = node;
    row.age_us = state.last_seen <= now_monotonic ? now_monotonic - state.last_seen : 0;
    if (state.watermark != std::numeric_limits<TimeMicros>::min() &&
        frontier_ > state.watermark) {
      row.watermark_lag_us = frontier_ - state.watermark;
    }
    // An aggregating relay re-flushes its cumulative agg.node gauges even
    // for a node that died, so for aggregate-vouched nodes the gauge's
    // *arrival* cannot count as liveness — only its value can. Their
    // staleness clock is the frozen watermark falling behind the frontier.
    const TimeMicros liveness_age =
        state.via_aggregate ? std::max(row.age_us, row.watermark_lag_us) : row.age_us;
    if (state.departed ||
        (options_.departed_after_us > 0 && liveness_age > options_.departed_after_us)) {
      row.state = NodeHealth::departed;
    } else if (options_.stale_after_us > 0 && liveness_age > options_.stale_after_us) {
      row.state = NodeHealth::stale;
    } else {
      row.state = NodeHealth::live;
    }
    row.drops = state.event_drops;
    for (const auto& [name, value] : state.drop_series) row.drops += value;
    row.stalls = state.stalls;
    row.zero_windows = state.zero_windows;
    row.reconnects = state.reconnects;
    row.events = state.events;
    row.via_aggregate = state.via_aggregate;
    out.push_back(row);
  }
  return out;
}

void HealthRollup::print_table(std::FILE* out, TimeMicros now_monotonic) const {
  const auto table = rows(now_monotonic);
  std::fprintf(out, "=== health: %zu nodes (%" PRIu64 " metric records, %" PRIu64
                    " events) ===\n",
               table.size(), metric_records_, event_records_);
  std::fprintf(out, "%10s %-9s %10s %12s %8s %7s %9s %10s %s\n", "node", "state",
               "age_ms", "wm_lag_ms", "drops", "stalls", "zero_win", "reconnects", "src");
  for (const HealthRow& row : table) {
    std::fprintf(out,
                 "%10u %-9s %10lld %12lld %8" PRIu64 " %7" PRIu64 " %9" PRIu64
                 " %10" PRIu64 " %s\n",
                 row.node, node_health_token(row.state),
                 static_cast<long long>(row.age_us / 1'000),
                 static_cast<long long>(row.watermark_lag_us / 1'000), row.drops,
                 row.stalls, row.zero_windows, row.reconnects,
                 row.via_aggregate ? "agg" : "direct");
  }
  std::fflush(out);
}

void HealthRollup::print_json(std::FILE* out, TimeMicros now_monotonic) const {
  const auto table = rows(now_monotonic);
  std::fprintf(out, "{\"mode\":\"health\",\"metric_records\":%" PRIu64
                    ",\"event_records\":%" PRIu64 ",\"nodes\":[",
               metric_records_, event_records_);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const HealthRow& row = table[i];
    std::fprintf(out,
                 "%s{\"node\":%u,\"state\":\"%s\",\"age_us\":%lld,"
                 "\"watermark_lag_us\":%lld,\"drops\":%" PRIu64 ",\"stalls\":%" PRIu64
                 ",\"zero_windows\":%" PRIu64 ",\"reconnects\":%" PRIu64
                 ",\"events\":%" PRIu64 ",\"via_aggregate\":%s}",
                 i == 0 ? "" : ",", row.node, node_health_token(row.state),
                 static_cast<long long>(row.age_us),
                 static_cast<long long>(row.watermark_lag_us), row.drops, row.stalls,
                 row.zero_windows, row.reconnects, row.events,
                 row.via_aggregate ? "true" : "false");
  }
  std::fprintf(out, "]}\n");
  std::fflush(out);
}

}  // namespace brisk::consumers
