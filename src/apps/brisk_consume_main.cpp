// brisk_consume: an instrumentation-data consumer tool. Attaches to the
// ISM's named shared-memory output buffer ("which is then read by
// instrumentation data consumer tools") — or follows a PICL trace file —
// and streams PICL lines, accumulates summary statistics, or tabulates the
// IS's own self-instrumentation metrics.
//
// Usage:
//   brisk_consume --shm /brisk-out [--mode picl|stats|metrics|latency]
//                 [--metrics] [--max-records N] [--idle-exit-ms 2000]
//                 [--stale-ms 10000] [--trace-out chrome.json] [--picl-utc]
//   brisk_consume --picl-file trace.picl --mode metrics
//   brisk_consume --connect 127.0.0.1:7412 --filter node=1,sensor=100-199
//   brisk_consume --connect 127.0.0.1:7412 --mode agg --agg-window-us 1000000
//
// --connect subscribes over the ISM's TCP consumer gateway instead of
// attaching to shared memory; --filter pushes the predicate down to the ISM
// (syntax: node=1,2,5-8,sensor=100-199,sample=16), so only matching records
// cross the wire. All record modes work over either source; --mode agg
// (gateway only) streams closed per-(node, sensor) aggregation windows.
//
// --metrics is shorthand for --mode metrics: a live tabulated view of the
// named counters and gauges the daemons emit as reserved-sensor-id records
// (refreshed about once a second, and once more at exit).
//
// --mode latency renders the stage-pair latency histograms (lat.* series,
// emitted by the ISM when records carry trace annotations) as a live
// count/p50/p90/p99/max table. --trace-out writes every trace-span record
// seen (reserved sensor 0xFF02) as Chrome trace_event JSON on exit — load
// it in chrome://tracing or Perfetto. Table rows from a node that stopped
// reporting are evicted after --stale-ms (0 = keep forever).
//
// --mode health folds the 0xFF01 metrics and 0xFF03 flight-recorder event
// streams into a per-node live/stale/departed table with pressure columns
// (drops, stalls, zero-window grants, reconnects); --health-stale-ms sets
// the staleness threshold (departed at 3x). --json switches the metrics,
// latency, and health tables to one JSON object per refresh on stdout.
//
// Exits after --max-records records, or when no record arrived for
// --idle-exit-ms (0 = run until SIGINT).
#include <csignal>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/flag_parser.hpp"
#include "common/time_util.hpp"
#include "clock/clock.hpp"
#include "consumers/gateway_client.hpp"
#include "consumers/health.hpp"
#include "consumers/shm_consumer.hpp"
#include "consumers/trace_stats.hpp"
#include "core/version.hpp"
#include "metrics/metrics.hpp"
#include "picl/picl_reader.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/trace_record.hpp"
#include "shm/shared_region.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

brisk::apps::FlagRegistry make_registry() {
  brisk::apps::FlagRegistry flags("brisk_consume", "BRISK shared-memory trace consumer");
  flags.add_string("shm", "", "named shared-memory output ring to attach")
      .add_string("picl-file", "", "follow a PICL trace file instead of --shm")
      .add_string("connect", "", "subscribe to an ISM consumer gateway at host:port")
      .add_string("filter", "", "pushdown filter spec (node=...,sensor=...,sample=N)")
      .add_string("sub-name", "", "subscriber label for gateway metrics (empty = generated)")
      .add_int("sub-queue-records", 0, "requested gateway queue depth (0 = gateway default)")
      .add_int("agg-window-us", 0, "aggregation window for --mode agg (0 = gateway default)")
      .add_string("mode", "picl",
                  "output mode: picl (stream lines), stats, metrics, latency, health, or agg")
      .add_bool("metrics", false, "shorthand for --mode metrics")
      .add_bool("json", false,
                "emit the metrics/latency/health tables as one JSON object per refresh")
      .add_int("health-stale-ms", 3'000,
               "health mode: nodes silent this long are stale, 3x departed (0 = never)")
      .add_string("trace-out", "", "write trace spans as Chrome trace_event JSON to this file")
      .add_int("max-records", 0, "exit after this many records (0 = unlimited)")
      .add_int("idle-exit-ms", 2'000, "exit after this long with no records (0 = never)")
      .add_int("stale-ms", 10'000, "evict table rows idle this long (0 = never)")
      .add_bool("picl-utc", true, "stamp PICL lines with UTC micros");
  return flags;
}

/// One Chrome trace_event JSON object (a complete "X" slice, or metadata).
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brisk;  // NOLINT
  apps::FlagRegistry flags = make_registry();
  flags.parse(argc, argv);
  const std::string shm_name = flags.str("shm");
  const std::string picl_path = flags.str("picl-file");
  const std::string mode = flags.flag("metrics") ? "metrics" : flags.str("mode");
  const std::string trace_out = flags.str("trace-out");
  const long long max_records = flags.num("max-records");
  const long long idle_exit_ms = flags.num("idle-exit-ms");
  const long long stale_ms = flags.num("stale-ms");
  const bool json = flags.flag("json");
  const long long health_stale_ms = flags.num("health-stale-ms");
  picl::PiclOptions picl_options;
  if (flags.flag("picl-utc")) {
    picl_options.mode = picl::TimestampMode::utc_micros;
  } else {
    picl_options.mode = picl::TimestampMode::seconds_from_epoch;
    picl_options.epoch_us = clk::SystemClock::instance().now();
  }

  const std::string connect_to = flags.str("connect");
  if (shm_name.empty() && picl_path.empty() && connect_to.empty()) {
    std::fprintf(stderr,
                 "brisk_consume: --shm /name, --picl-file path, or --connect host:port "
                 "is required\n");
    return 2;
  }
  if (mode != "picl" && mode != "stats" && mode != "metrics" && mode != "latency" &&
      mode != "health" && mode != "agg") {
    std::fprintf(stderr,
                 "brisk_consume: --mode must be picl, stats, metrics, latency, health, "
                 "or agg\n");
    return 2;
  }
  if (mode == "agg" && connect_to.empty()) {
    std::fprintf(stderr, "brisk_consume: --mode agg requires --connect\n");
    return 2;
  }

  // Input source: the ISM's shm output ring, or a PICL trace file followed
  // tail -f style (PiclReader treats a half-written final line as
  // end-of-stream and rewinds, so polling next() is safe mid-write).
  std::optional<shm::SharedRegion> region;
  std::optional<consumers::ShmConsumer> consumer;
  std::optional<picl::PiclReader> reader;
  std::optional<consumers::GatewayClient> gateway;
  if (!connect_to.empty()) {
    const std::size_t colon = connect_to.rfind(':');
    if (colon == std::string::npos || colon + 1 >= connect_to.size()) {
      std::fprintf(stderr, "brisk_consume: --connect expects host:port\n");
      return 2;
    }
    const std::string host = connect_to.substr(0, colon);
    const int port = std::atoi(connect_to.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr, "brisk_consume: bad --connect port\n");
      return 2;
    }
    consumers::GatewayClient::Options options;
    options.name = flags.str("sub-name");
    options.filter = flags.str("filter");
    options.kind = mode == "agg" ? tp::SubscriptionKind::aggregate : tp::SubscriptionKind::stream;
    options.queue_records = flags.count<std::uint32_t>("sub-queue-records");
    options.agg_window_us = static_cast<std::uint64_t>(flags.num("agg-window-us"));
    auto connected =
        consumers::GatewayClient::connect(host, static_cast<std::uint16_t>(port), options);
    if (!connected) {
      std::fprintf(stderr, "brisk_consume: %s\n", connected.status().to_string().c_str());
      return 1;
    }
    gateway.emplace(std::move(connected).value());
  } else if (!picl_path.empty()) {
    auto opened = picl::PiclReader::open(picl_path, picl_options);
    if (!opened) {
      std::fprintf(stderr, "brisk_consume: %s\n", opened.status().to_string().c_str());
      return 1;
    }
    reader.emplace(std::move(opened).value());
  } else {
    auto opened = shm::SharedRegion::open_named(shm_name);
    if (!opened) {
      std::fprintf(stderr, "brisk_consume: %s\n", opened.status().to_string().c_str());
      return 1;
    }
    region.emplace(std::move(opened).value());
    auto ring = shm::RingBuffer::attach(region->data(), region->size());
    if (!ring) {
      std::fprintf(stderr, "brisk_consume: %s\n", ring.status().to_string().c_str());
      return 1;
    }
    consumer.emplace(ring.value());
  }
  consumers::TraceStats stats;

  auto poll_record = [&]() -> Result<std::optional<sensors::Record>> {
    if (gateway.has_value()) return gateway->poll();
    if (reader.has_value()) return reader->next();
    return consumer->poll();
  };

  // Live metrics table: (node, metric name) -> latest sample. Counters and
  // gauges alike show their most recent value — the records are snapshots.
  // Histogram bucket samples go to the latency table instead.
  struct MetricRow {
    std::uint64_t value = 0;
    sensors::MetricKind kind = sensors::MetricKind::counter;
    TimeMicros updated_at = 0;
  };
  std::map<std::pair<NodeId, std::string>, MetricRow> metric_table;
  std::uint64_t metric_records = 0;

  // Latency table: (node, histogram base name) -> cumulative bucket counts
  // keyed by upper bound. Each snapshot replaces the bucket's count (the
  // exported values are cumulative since daemon start).
  struct LatencyRow {
    std::map<std::uint64_t, std::uint64_t> buckets;  // bound -> count
    TimeMicros updated_at = 0;
  };
  std::map<std::pair<NodeId, std::string>, LatencyRow> latency_table;

  consumers::HealthRollup::Options health_options;
  health_options.stale_after_us = static_cast<TimeMicros>(health_stale_ms) * 1'000;
  health_options.departed_after_us = health_options.stale_after_us * 3;
  consumers::HealthRollup health(health_options);

  auto evict_stale = [&](TimeMicros now) {
    if (stale_ms <= 0) return;
    const TimeMicros horizon = static_cast<TimeMicros>(stale_ms) * 1'000;
    for (auto it = metric_table.begin(); it != metric_table.end();) {
      if (now - it->second.updated_at > horizon) {
        it = metric_table.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = latency_table.begin(); it != latency_table.end();) {
      if (now - it->second.updated_at > horizon) {
        it = latency_table.erase(it);
      } else {
        ++it;
      }
    }
  };

  auto print_metrics = [&] {
    std::printf("=== metrics: %zu series, %llu records ===\n", metric_table.size(),
                static_cast<unsigned long long>(metric_records));
    for (const auto& [key, row] : metric_table) {
      std::printf("node %10u  %-44s %20llu  %s\n", key.first, key.second.c_str(),
                  static_cast<unsigned long long>(row.value),
                  row.kind == sensors::MetricKind::gauge ? "gauge" : "counter");
    }
    std::fflush(stdout);
  };

  auto print_latency = [&] {
    std::printf("=== latency: %zu stage pairs (microseconds) ===\n", latency_table.size());
    std::printf("node %10s  %-24s %12s %10s %10s %10s %10s\n", "", "stage pair", "count",
                "p50", "p90", "p99", "max");
    for (const auto& [key, row] : latency_table) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets(row.buckets.begin(),
                                                                   row.buckets.end());
      std::uint64_t total = 0;
      for (const auto& [bound, count] : buckets) total += count;
      if (total == 0) continue;
      const std::uint64_t p50 = metrics::histogram_percentile(buckets, 0.50);
      const std::uint64_t p90 = metrics::histogram_percentile(buckets, 0.90);
      const std::uint64_t p99 = metrics::histogram_percentile(buckets, 0.99);
      const std::uint64_t max = metrics::histogram_percentile(buckets, 1.00);
      std::printf("node %10u  %-24s %12llu %10llu %10llu %10llu %10llu\n", key.first,
                  key.second.c_str(), static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(p50), static_cast<unsigned long long>(p90),
                  static_cast<unsigned long long>(p99), static_cast<unsigned long long>(max));
    }
    std::fflush(stdout);
  };

  auto print_metrics_json = [&] {
    std::printf("{\"mode\":\"metrics\",\"records\":%llu,\"series\":[",
                static_cast<unsigned long long>(metric_records));
    bool first = true;
    for (const auto& [key, row] : metric_table) {
      std::printf("%s{\"node\":%u,\"name\":\"%s\",\"kind\":\"%s\",\"value\":%llu}",
                  first ? "" : ",", key.first, json_escape(key.second).c_str(),
                  row.kind == sensors::MetricKind::gauge ? "gauge" : "counter",
                  static_cast<unsigned long long>(row.value));
      first = false;
    }
    std::printf("]}\n");
    std::fflush(stdout);
  };

  auto print_latency_json = [&] {
    std::printf("{\"mode\":\"latency\",\"rows\":[");
    bool first = true;
    for (const auto& [key, row] : latency_table) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets(row.buckets.begin(),
                                                                   row.buckets.end());
      std::uint64_t total = 0;
      for (const auto& [bound, count] : buckets) total += count;
      if (total == 0) continue;
      std::printf("%s{\"node\":%u,\"name\":\"%s\",\"count\":%llu,\"p50\":%llu,"
                  "\"p90\":%llu,\"p99\":%llu,\"max\":%llu}",
                  first ? "" : ",", key.first, json_escape(key.second).c_str(),
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(metrics::histogram_percentile(buckets, 0.50)),
                  static_cast<unsigned long long>(metrics::histogram_percentile(buckets, 0.90)),
                  static_cast<unsigned long long>(metrics::histogram_percentile(buckets, 0.99)),
                  static_cast<unsigned long long>(metrics::histogram_percentile(buckets, 1.00)));
      first = false;
    }
    std::printf("]}\n");
    std::fflush(stdout);
  };

  // Chrome trace_event slices collected from trace-span records; written as
  // one JSON document at exit. Metadata rows name the pid/tid lanes.
  std::vector<std::string> trace_events;
  std::map<NodeId, bool> trace_pids_named;
  std::uint64_t trace_spans = 0;
  auto collect_trace = [&](const sensors::Record& record) {
    auto annotation = sensors::decode_trace_record(record);
    if (!annotation) return;
    const auto& stamps = annotation.value().stamps;
    if (stamps.size() < 2) return;
    char buf[256];
    if (!trace_pids_named[record.node]) {
      trace_pids_named[record.node] = true;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"args\":{\"name\":\"node-%u\"}}",
                    record.node, record.node);
      trace_events.emplace_back(buf);
      for (std::size_t s = 0; s + 1 < sensors::kTraceStageCount; ++s) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%zu,"
                      "\"args\":{\"name\":\"%s_to_%s\"}}",
                      record.node, s,
                      json_escape(sensors::trace_stage_token(
                                      static_cast<sensors::TraceStage>(s)))
                          .c_str(),
                      json_escape(sensors::trace_stage_token(
                                      static_cast<sensors::TraceStage>(s + 1)))
                          .c_str());
        trace_events.emplace_back(buf);
      }
    }
    for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
      const auto& from = stamps[i];
      const auto& to = stamps[i + 1];
      const long long dur = to.at >= from.at ? to.at - from.at : 0;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s_to_%s\",\"cat\":\"brisk\",\"ph\":\"X\","
                    "\"ts\":%lld,\"dur\":%lld,\"pid\":%u,\"tid\":%d,"
                    "\"args\":{\"trace_id\":\"0x%llx\"}}",
                    sensors::trace_stage_token(from.stage), sensors::trace_stage_token(to.stage),
                    static_cast<long long>(from.at), dur, record.node,
                    static_cast<int>(from.stage),
                    static_cast<unsigned long long>(annotation.value().trace_id));
      trace_events.emplace_back(buf);
      ++trace_spans;
    }
  };

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const std::string source =
      !connect_to.empty() ? connect_to : (picl_path.empty() ? shm_name : picl_path);
  std::fprintf(stderr, "brisk_consume %s attached to %s (%s mode)\n", version_string(),
               source.c_str(), mode.c_str());

  // Aggregation mode: stream closed windows instead of records.
  if (mode == "agg") {
    long long windows = 0;
    TimeMicros last_window_at = monotonic_micros();
    while (g_stop == 0) {
      auto window = gateway->poll_agg();
      if (!window) {
        if (window.status().code() == Errc::closed) break;
        std::fprintf(stderr, "brisk_consume: %s\n", window.status().to_string().c_str());
        return 1;
      }
      const TimeMicros now = monotonic_micros();
      if (!window.value().has_value()) {
        if (idle_exit_ms > 0 && now - last_window_at > idle_exit_ms * 1'000) break;
        sleep_micros(1'000);
        continue;
      }
      last_window_at = now;
      ++windows;
      const tp::AggWindow& w = *window.value();
      std::printf("=== window [%lld, %lld) us: %zu keys ===\n",
                  static_cast<long long>(w.window_start), static_cast<long long>(w.window_end),
                  w.keys.size());
      for (const auto& key : w.keys) {
        const std::uint64_t p50 = metrics::histogram_percentile(key.gap_buckets, 0.50);
        const std::uint64_t p99 = metrics::histogram_percentile(key.gap_buckets, 0.99);
        std::printf("node %10u sensor %10u  count %12llu  gap_p50 %8llu  gap_p99 %8llu\n",
                    key.node, key.sensor, static_cast<unsigned long long>(key.count),
                    static_cast<unsigned long long>(p50), static_cast<unsigned long long>(p99));
      }
      std::fflush(stdout);
      if (max_records > 0 && windows >= max_records) break;
    }
    std::fprintf(stderr, "brisk_consume: %lld windows received\n", windows);
    return 0;
  }

  long long received = 0;
  TimeMicros last_record_at = monotonic_micros();
  TimeMicros last_table_at = monotonic_micros();
  while (g_stop == 0) {
    auto record = poll_record();
    if (!record) {
      if (record.status().code() == Errc::closed) break;  // gateway hung up: summarize
      std::fprintf(stderr, "brisk_consume: %s\n", record.status().to_string().c_str());
      return 1;
    }
    const TimeMicros now = monotonic_micros();
    if (now - last_table_at >= 1'000'000) {
      last_table_at = now;
      evict_stale(now);
      if (mode == "metrics" && !metric_table.empty()) {
        json ? print_metrics_json() : print_metrics();
      }
      if (mode == "latency" && !latency_table.empty()) {
        json ? print_latency_json() : print_latency();
      }
      // Health refreshes unconditionally: a silent fleet going stale IS the
      // signal this table exists for.
      if (mode == "health") {
        json ? health.print_json(stdout, now) : health.print_table(stdout, now);
      }
    }
    if (!record.value().has_value()) {
      if (idle_exit_ms > 0 && now - last_record_at > idle_exit_ms * 1'000) break;
      sleep_micros(1'000);
      continue;
    }
    last_record_at = now;
    ++received;
    const sensors::Record& rec = *record.value();
    if (!trace_out.empty() && sensors::is_trace_record(rec)) collect_trace(rec);
    if (mode == "health") health.observe(rec, now);
    if (mode == "picl") {
      std::printf("%s\n", picl::to_picl_line(rec, picl_options).c_str());
    } else if ((mode == "metrics" || mode == "latency") && sensors::is_metrics_record(rec)) {
      auto point = sensors::decode_metrics_record(rec);
      if (point) {
        ++metric_records;
        if (point.value().kind == sensors::MetricKind::histogram_bucket) {
          std::string base;
          std::uint64_t bound = 0;
          if (metrics::parse_histogram_bucket_name(point.value().name, base, bound)) {
            LatencyRow& row = latency_table[{rec.node, base}];
            row.buckets[bound] = point.value().value;
            row.updated_at = now;
          }
        } else {
          metric_table[{rec.node, point.value().name}] =
              MetricRow{point.value().value, point.value().kind, now};
        }
      }
    }
    stats.add(rec);
    if (max_records > 0 && received >= max_records) break;
  }

  if (mode == "metrics") json ? print_metrics_json() : print_metrics();
  if (mode == "latency") json ? print_latency_json() : print_latency();
  if (mode == "health") {
    const TimeMicros now = monotonic_micros();
    json ? health.print_json(stdout, now) : health.print_table(stdout, now);
  }
  if (!trace_out.empty()) {
    std::FILE* out = std::fopen(trace_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "brisk_consume: cannot open %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(out, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < trace_events.size(); ++i) {
      std::fprintf(out, "%s%s", i == 0 ? "" : ",\n", trace_events[i].c_str());
    }
    std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
    std::fclose(out);
    std::fprintf(stderr, "brisk_consume: wrote %llu spans to %s\n",
                 static_cast<unsigned long long>(trace_spans), trace_out.c_str());
  }
  std::fprintf(stderr, "--- summary ---\n%s", stats.report().c_str());
  return 0;
}
