// Fleet observability layer: the 0xFF03 event record schema, the diagnostic
// flight recorder, the relay-tier metrics aggregator, the sorter's disorder
// instrumentation, and the consumer-side health rollup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clock/clock.hpp"
#include "consumers/health.hpp"
#include "ism/online_sorter.hpp"
#include "ism/relay_aggregator.hpp"
#include "metrics/flight_recorder.hpp"
#include "sensors/event_record.hpp"
#include "sensors/metrics_record.hpp"

namespace brisk {
namespace {

using sensors::EventKind;

// ---- 0xFF03 event record codec ----------------------------------------------

TEST(EventRecordTest, RoundTrip) {
  const sensors::Record record = sensors::make_event_record(
      7, 42, 1'000'000, EventKind::zero_window_grant, 9, 128, 999'500);
  EXPECT_TRUE(sensors::is_event_record(record));
  EXPECT_EQ(record.sensor, sensors::kEventSensorId);
  EXPECT_EQ(record.timestamp, 1'000'000);
  auto point = sensors::decode_event_record(record);
  ASSERT_TRUE(point.is_ok()) << point.status().to_string();
  EXPECT_EQ(point.value().kind, EventKind::zero_window_grant);
  EXPECT_EQ(point.value().subject, 9u);
  EXPECT_EQ(point.value().value, 128u);
  EXPECT_EQ(point.value().at, 999'500);
}

TEST(EventRecordTest, RejectsWrongSensorAndSchema) {
  sensors::Record plain;
  plain.sensor = 7;
  EXPECT_FALSE(sensors::decode_event_record(plain).is_ok());

  sensors::Record truncated = sensors::make_event_record(
      1, 0, 0, EventKind::session_reaped, 0, 0, 0);
  truncated.fields.pop_back();
  EXPECT_FALSE(sensors::decode_event_record(truncated).is_ok());

  sensors::Record bad_kind = sensors::make_event_record(
      1, 0, 0, EventKind::session_reaped, 0, 0, 0);
  bad_kind.fields[0] = sensors::Field::u8(sensors::kMaxEventKind + 1);
  EXPECT_FALSE(sensors::decode_event_record(bad_kind).is_ok());
}

TEST(EventRecordTest, EveryKindHasAToken) {
  for (std::uint8_t k = 0; k <= sensors::kMaxEventKind; ++k) {
    const char* token = sensors::event_kind_token(static_cast<EventKind>(k));
    ASSERT_NE(token, nullptr);
    EXPECT_STRNE(token, "unknown") << "kind " << static_cast<int>(k);
  }
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, KeepsEventsInOrder) {
  metrics::FlightRecorder ring("test", 16);
  ring.record(EventKind::session_rejoined, 1, 10, 100);
  ring.record(EventKind::reconnect, 2, 20, 200);
  ring.record(EventKind::lane_drop, 3, 30, 300);
  EXPECT_EQ(ring.total_recorded(), 3u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::session_rejoined);
  EXPECT_EQ(events[1].subject, 2u);
  EXPECT_EQ(events[2].value, 30u);
  EXPECT_EQ(events[2].at, 300);
}

TEST(FlightRecorderTest, WrapsKeepingNewest) {
  metrics::FlightRecorder ring("test", 8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(EventKind::queue_drop, i, i, static_cast<TimeMicros>(i));
  }
  EXPECT_EQ(ring.total_recorded(), 20u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].subject, 12 + i);  // the 8 newest of 20
  }
}

TEST(FlightRecorderTest, DrainNewIsExactlyOnce) {
  metrics::FlightRecorder ring("test", 16);
  std::uint64_t cursor = 0;
  ring.record(EventKind::watermark_stall, 1, 0, 0);
  ring.record(EventKind::watermark_stall, 2, 0, 0);
  EXPECT_EQ(ring.drain_new(cursor).size(), 2u);
  EXPECT_TRUE(ring.drain_new(cursor).empty());
  ring.record(EventKind::watermark_stall, 3, 0, 0);
  const auto more = ring.drain_new(cursor);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].subject, 3u);
}

TEST(FlightRecorderTest, DrainSkipsOverwrittenHistory) {
  metrics::FlightRecorder ring("test", 4);
  std::uint64_t cursor = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(EventKind::batch_gap, i, 0, 0);
  }
  const auto events = ring.drain_new(cursor);
  ASSERT_EQ(events.size(), 4u);  // 6 oldest were overwritten before the read
  EXPECT_EQ(events.front().subject, 6u);
  EXPECT_EQ(events.back().subject, 9u);
  EXPECT_EQ(cursor, 10u);
}

TEST(FlightRecorderTest, ConcurrentWritersNeverYieldTornEvents) {
  metrics::FlightRecorder ring("test", 64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5'000;
  std::atomic<bool> stop{false};
  // A reader hammering snapshot() while writers wrap the ring: any event it
  // returns must be internally consistent (subject == value == at).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const metrics::FlightEvent& event : ring.snapshot()) {
        ASSERT_EQ(event.subject, event.value);
        ASSERT_EQ(static_cast<TimeMicros>(event.subject), event.at);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t tag = static_cast<std::uint64_t>(t) * kPerThread + i;
        ring.record(EventKind::lane_drop, tag, tag, static_cast<TimeMicros>(tag));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.total_recorded(), kThreads * kPerThread);
}

TEST(FlightRecorderTest, DumpRequestIsConsumedOnce) {
  (void)metrics::consume_flight_dump_request();  // clear any leftover state
  EXPECT_FALSE(metrics::consume_flight_dump_request());
  metrics::request_flight_dump();
  EXPECT_TRUE(metrics::consume_flight_dump_request());
  EXPECT_FALSE(metrics::consume_flight_dump_request());
}

TEST(FlightRecorderTest, DumpWritesEveryRegisteredRecorder) {
  metrics::FlightRecorder ring("dump-me", 8);
  ring.record(EventKind::session_expired, 5, 7, 1'234);
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* out = open_memstream(&buffer, &size);
  ASSERT_NE(out, nullptr);
  metrics::dump_flight_recorders(out);
  std::fclose(out);
  const std::string text(buffer, size);
  std::free(buffer);
  EXPECT_NE(text.find("dump-me"), std::string::npos);
  EXPECT_NE(text.find("expire"), std::string::npos);
}

// ---- relay aggregator -------------------------------------------------------

sensors::Record metric(NodeId node, TimeMicros ts, std::string_view name,
                       std::uint64_t value,
                       sensors::MetricKind kind = sensors::MetricKind::counter) {
  static SequenceNo seq = 0;
  return sensors::make_metrics_record(node, seq++, ts, name, value, kind);
}

/// Decodes a flush into name -> (value, kind), asserting every record is a
/// well-formed 0xFF01 stamped with the relay's identity.
std::map<std::string, std::pair<std::uint64_t, sensors::MetricKind>> decode_flush(
    const std::vector<sensors::Record>& records, NodeId relay, TimeMicros flush_ts) {
  std::map<std::string, std::pair<std::uint64_t, sensors::MetricKind>> out;
  for (const sensors::Record& record : records) {
    EXPECT_EQ(record.node, relay);
    EXPECT_EQ(record.timestamp, flush_ts);
    auto point = sensors::decode_metrics_record(record);
    EXPECT_TRUE(point.is_ok()) << point.status().to_string();
    if (point) out[point.value().name] = {point.value().value, point.value().kind};
  }
  return out;
}

TEST(RelayAggregationTest, CountersSumLatestPerNode) {
  ism::RelayAggregator agg(1000, 0);
  agg.absorb(metric(1, 100, "exs.records_forwarded", 50));
  agg.absorb(metric(1, 200, "exs.records_forwarded", 70));  // newer snapshot wins
  agg.absorb(metric(2, 150, "exs.records_forwarded", 30));
  const auto rows = decode_flush(agg.flush(500, 0), 1000, 500);
  ASSERT_TRUE(rows.count("agg.exs.records_forwarded"));
  EXPECT_EQ(rows.at("agg.exs.records_forwarded").first, 100u);
  EXPECT_EQ(rows.at("agg.exs.records_forwarded").second, sensors::MetricKind::counter);
}

TEST(RelayAggregationTest, GaugesSumToSubtreeLevel) {
  ism::RelayAggregator agg(1000, 0);
  agg.absorb(metric(1, 100, "exs.replay_pending", 8, sensors::MetricKind::gauge));
  agg.absorb(metric(1, 200, "exs.replay_pending", 2, sensors::MetricKind::gauge));
  agg.absorb(metric(2, 150, "exs.replay_pending", 5, sensors::MetricKind::gauge));
  const auto rows = decode_flush(agg.flush(500, 0), 1000, 500);
  EXPECT_EQ(rows.at("agg.exs.replay_pending").first, 7u);  // 2 + 5, latest per node
  EXPECT_EQ(rows.at("agg.exs.replay_pending").second, sensors::MetricKind::gauge);
}

TEST(RelayAggregationTest, HistogramBucketsMergeBucketwise) {
  ism::RelayAggregator agg(1000, 0);
  agg.absorb(metric(1, 100, "lat.a_to_b.le_100", 4, sensors::MetricKind::histogram_bucket));
  agg.absorb(metric(2, 110, "lat.a_to_b.le_100", 6, sensors::MetricKind::histogram_bucket));
  agg.absorb(metric(2, 110, "lat.a_to_b.le_inf", 1, sensors::MetricKind::histogram_bucket));
  const auto rows = decode_flush(agg.flush(500, 0), 1000, 500);
  EXPECT_EQ(rows.at("agg.lat.a_to_b.le_100").first, 10u);
  EXPECT_EQ(rows.at("agg.lat.a_to_b.le_inf").first, 1u);
  EXPECT_EQ(rows.at("agg.lat.a_to_b.le_100").second, sensors::MetricKind::histogram_bucket);
}

TEST(RelayAggregationTest, TagsPopulationAndPerNodeWatermarks) {
  ism::RelayAggregator agg(1000, 0);
  agg.absorb(metric(1, 100, "exs.records_forwarded", 1));
  agg.absorb(metric(1, 900, "exs.records_forwarded", 2));
  agg.absorb(metric(7, 400, "exs.records_forwarded", 3));
  EXPECT_EQ(agg.max_absorbed_ts(), 900);
  const auto rows = decode_flush(agg.flush(900, 0), 1000, 900);
  EXPECT_EQ(rows.at("agg.nodes").first, 2u);
  EXPECT_EQ(rows.at("agg.nodes").second, sensors::MetricKind::gauge);
  EXPECT_EQ(rows.at("agg.node.1.watermark_us").first, 900u);
  EXPECT_EQ(rows.at("agg.node.7.watermark_us").first, 400u);
}

TEST(RelayAggregationTest, StateIsCumulativeAcrossFlushes) {
  ism::RelayAggregator agg(1000, 0);
  agg.absorb(metric(1, 100, "exs.records_forwarded", 5));
  EXPECT_TRUE(agg.pending());
  (void)agg.flush(100, 0);
  EXPECT_FALSE(agg.pending());
  agg.absorb(metric(2, 200, "exs.records_forwarded", 7));
  const auto rows = decode_flush(agg.flush(200, 0), 1000, 200);
  // Node 1's latest survives the first flush: counters stay monotone.
  EXPECT_EQ(rows.at("agg.exs.records_forwarded").first, 12u);
  EXPECT_EQ(agg.flushes(), 2u);
}

TEST(RelayAggregationTest, DueRespectsPeriodAndPendingState) {
  ism::RelayAggregator agg(1000, 1'000'000);
  EXPECT_FALSE(agg.due(5'000'000));  // nothing absorbed
  agg.absorb(metric(1, 100, "exs.records_forwarded", 1));
  EXPECT_FALSE(agg.due(500'000));  // period not elapsed
  EXPECT_TRUE(agg.due(1'000'001));
  (void)agg.flush(100, 1'000'001);
  EXPECT_FALSE(agg.due(1'500'000));  // nothing pending after the flush
}

TEST(RelayAggregationTest, CountsMalformedAndIgnoresThem) {
  ism::RelayAggregator agg(1000, 0);
  sensors::Record bogus;
  bogus.node = 1;
  bogus.sensor = sensors::kMetricsSensorId;  // reserved id, garbage payload
  agg.absorb(bogus);
  EXPECT_EQ(agg.malformed(), 1u);
  EXPECT_TRUE(agg.empty());
  EXPECT_TRUE(agg.flush(0, 0).empty());
}

// ---- sorter disorder instrumentation ----------------------------------------

TEST(SorterDisorderTest, LateArrivalsCountAndFeedTheHistogram) {
  clk::ManualClock clock(0);
  ism::SorterConfig config;
  config.initial_frame_us = 1'000;
  config.min_frame_us = 1'000;
  config.max_frame_us = 1'000;
  config.adaptive = false;
  std::vector<sensors::Record> emitted;
  ism::OnlineSorter sorter(config, clock,
                           [&](sensors::Record r) { emitted.push_back(std::move(r)); });

  sensors::Record first;
  first.node = 1;
  first.sensor = 7;
  first.timestamp = 1'000;
  ASSERT_TRUE(sorter.push(first).ok());
  clock.set(10'000);  // well past the delay window
  sorter.service();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(sorter.stats().late_records, 0u);

  sensors::Record late;
  late.node = 2;
  late.sensor = 7;
  late.timestamp = 400;  // behind the emitted frontier: reordering loss
  ASSERT_TRUE(sorter.push(late).ok());
  EXPECT_EQ(sorter.stats().late_records, 1u);
  clock.set(20'000);
  sorter.service();
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(sorter.stats().out_of_order_emissions, 1u);
  EXPECT_EQ(sorter.disorder().total(), 1u);  // lateness of 600us, recorded once
}

// ---- health rollup ----------------------------------------------------------

consumers::HealthRollup::Options tight_health() {
  consumers::HealthRollup::Options options;
  options.stale_after_us = 1'000'000;
  options.departed_after_us = 3'000'000;
  return options;
}

const consumers::HealthRow* find_node(const std::vector<consumers::HealthRow>& rows,
                                      NodeId node) {
  for (const consumers::HealthRow& row : rows) {
    if (row.node == node) return &row;
  }
  return nullptr;
}

TEST(HealthRollupTest, AgesThroughLiveStaleDeparted) {
  consumers::HealthRollup health(tight_health());
  health.observe(metric(1, 100, "exs.records_forwarded", 1), 1'000'000);
  const auto live_rows = health.rows(1'500'000);
  const auto* live = find_node(live_rows, 1);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->state, consumers::NodeHealth::live);
  const auto stale_rows = health.rows(2'500'000);
  const auto* stale = find_node(stale_rows, 1);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->state, consumers::NodeHealth::stale);
  const auto departed_rows = health.rows(5'000'000);
  const auto* departed = find_node(departed_rows, 1);
  ASSERT_NE(departed, nullptr);
  EXPECT_EQ(departed->state, consumers::NodeHealth::departed);
}

TEST(HealthRollupTest, ExplicitExpiryDepartsAndRejoinRevives) {
  consumers::HealthRollup health(tight_health());
  health.observe(metric(2, 100, "exs.records_forwarded", 1), 1'000'000);
  health.observe(sensors::make_event_record(sensors::kIsmMetricsNodeId, 0, 200,
                                            EventKind::session_expired, 2, 0, 150),
                 1'100'000);
  const auto gone_rows = health.rows(1'200'000);
  const auto* gone = find_node(gone_rows, 2);
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->state, consumers::NodeHealth::departed);
  health.observe(sensors::make_event_record(sensors::kIsmMetricsNodeId, 1, 300,
                                            EventKind::session_rejoined, 2, 0, 250),
                 1'300'000);
  const auto back_rows = health.rows(1'400'000);
  const auto* back = find_node(back_rows, 2);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->state, consumers::NodeHealth::live);
}

TEST(HealthRollupTest, AggregateWatermarkVouchesForSubtreeNode) {
  consumers::HealthRollup health(tight_health());
  // The relay (node 1000) reports node 5's watermark; node 5's own records
  // were absorbed upstream and never reach this consumer.
  health.observe(metric(1000, 700, "agg.node.5.watermark_us", 650,
                        sensors::MetricKind::gauge),
                 1'000'000);
  const auto rows = health.rows(1'100'000);
  const auto* relay = find_node(rows, 1000);
  const auto* subtree = find_node(rows, 5);
  ASSERT_NE(relay, nullptr);
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(subtree->state, consumers::NodeHealth::live);
  EXPECT_TRUE(subtree->via_aggregate);
  EXPECT_FALSE(relay->via_aggregate);
}

TEST(HealthRollupTest, FrozenAggregateWatermarkGoesStaleDespiteFreshGauges) {
  consumers::HealthRollup health(tight_health());
  // Node 5 died, but the relay's aggregator state is cumulative: it keeps
  // re-flushing agg.node.5.watermark_us with the frozen value. The gauge
  // arrivals keep node 5's last-seen age near zero, so only the watermark
  // falling behind the advancing frontier can expose the death.
  for (int flush = 0; flush < 5; ++flush) {
    const TimeMicros flush_ts = 1'000'000 + flush * 1'000'000;
    const TimeMicros now = 10'000'000 + flush * 1'000'000;
    health.observe(metric(1000, flush_ts, "agg.node.5.watermark_us", 900'000,
                          sensors::MetricKind::gauge),
                   now);
    // A live node keeps the fleet frontier moving.
    health.observe(metric(1, flush_ts, "exs.records_forwarded", 1), now);
  }
  const auto rows = health.rows(14'000'100);
  const auto* dead = find_node(rows, 5);
  const auto* alive = find_node(rows, 1);
  ASSERT_NE(dead, nullptr);
  ASSERT_NE(alive, nullptr);
  EXPECT_TRUE(dead->via_aggregate);
  EXPECT_EQ(dead->state, consumers::NodeHealth::departed);  // lag 4.1s > 3s
  EXPECT_EQ(alive->state, consumers::NodeHealth::live);
}

TEST(HealthRollupTest, PressureEventsCountAgainstTheirSubject) {
  consumers::HealthRollup health(tight_health());
  const NodeId ism = sensors::kIsmMetricsNodeId;
  health.observe(sensors::make_event_record(ism, 0, 100, EventKind::zero_window_grant,
                                            3, 64, 90),
                 1'000'000);
  health.observe(sensors::make_event_record(ism, 1, 110, EventKind::watermark_stall,
                                            3, 4096, 100),
                 1'000'000);
  health.observe(sensors::make_event_record(ism, 2, 120, EventKind::reconnect, 3, 1, 110),
                 1'000'000);
  health.observe(sensors::make_event_record(ism, 3, 130, EventKind::queue_drop, 3, 256, 120),
                 1'000'000);
  const auto rows = health.rows(1'100'000);
  const auto* row = find_node(rows, 3);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->zero_windows, 1u);
  EXPECT_EQ(row->stalls, 1u);
  EXPECT_EQ(row->reconnects, 1u);
  EXPECT_EQ(row->drops, 1u);
  EXPECT_EQ(row->events, 4u);
}

TEST(HealthRollupTest, DropSeriesUseLatestCumulativeValue) {
  consumers::HealthRollup health(tight_health());
  health.observe(metric(4, 100, "exs.ring_drops_seen", 5), 1'000'000);
  health.observe(metric(4, 200, "exs.ring_drops_seen", 9), 1'000'100);
  health.observe(metric(4, 200, "ism.sorter.overflow_drops", 2), 1'000'200);
  const auto rows = health.rows(1'100'000);
  const auto* row = find_node(rows, 4);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->drops, 11u);  // 9 (latest, not 5+9) + 2
}

// Records that were delivered (late, out of order) or that go-back-N
// resolves without loss (duplicate replays, batches resent after a hole)
// must not show up in the drops column.
TEST(HealthRollupTest, DeliveredAndResentSeriesAreNotDrops) {
  consumers::HealthRollup health(tight_health());
  health.observe(metric(4, 100, "sort.late_records", 2), 1'000'000);
  health.observe(metric(4, 100, "ism.duplicate_batches_dropped", 3), 1'000'000);
  health.observe(metric(4, 100, "ism.out_of_order_batches_dropped", 4), 1'000'000);
  auto rows = health.rows(1'100'000);
  const auto* row = find_node(rows, 4);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->drops, 0u);

  health.observe(metric(4, 200, "exs.ring_drops_seen", 1), 1'000'100);
  rows = health.rows(1'100'000);
  row = find_node(rows, 4);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->drops, 1u) << "only the genuine loss series counts";
}

TEST(HealthRollupTest, WatermarkLagTrailsTheFleetFrontier) {
  consumers::HealthRollup health(tight_health());
  health.observe(metric(1, 5'000, "exs.records_forwarded", 1), 1'000'000);
  health.observe(metric(2, 1'000, "exs.records_forwarded", 1), 1'000'000);
  const auto rows = health.rows(1'000'500);
  EXPECT_EQ(find_node(rows, 1)->watermark_lag_us, 0);
  EXPECT_EQ(find_node(rows, 2)->watermark_lag_us, 4'000);
}

}  // namespace
}  // namespace brisk
