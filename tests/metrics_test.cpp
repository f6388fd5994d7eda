// Self-instrumentation tests: the MetricsRegistry (owned handles,
// collectors, deterministic snapshot order), the reserved-sensor-id record
// schema and its byte-identical round trips through both output paths (shm
// ring and PICL), and end-to-end emission through a live Ism's ordering
// pipeline at every shard count.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "ism/ism.hpp"
#include "ism/output.hpp"
#include "lis/external_sensor.hpp"
#include "metrics/metrics.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "picl/picl_record.hpp"
#include "ring_memory.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/sensor.hpp"
#include "shm/multi_ring.hpp"
#include "shm/ring_buffer.hpp"
#include "tp/batch.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk {
namespace {

using metrics::MetricsRegistry;
using metrics::Sample;
using sensors::MetricKind;

// ---- registry --------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterAndGaugeHandles) {
  MetricsRegistry registry;
  metrics::Counter& c = registry.counter("test.counter");
  c.add(2);
  c.increment();
  EXPECT_EQ(c.value(), 3u);
  metrics::Gauge& g = registry.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7u);
  // Same name returns the same cell.
  registry.counter("test.counter").increment();
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(registry.owned_count(), 2u);
}

TEST(MetricsRegistryTest, SnapshotCoversOwnedAndCollectors) {
  MetricsRegistry registry;
  registry.counter("a").add(5);
  registry.gauge("b").set(7);
  registry.add_collector([](metrics::SnapshotBuilder& out) {
    out.counter("c", 9);
    out.gauge("d", 11);
  });
  const std::vector<Sample> snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[0].value, 5u);
  EXPECT_EQ(snap[0].kind, MetricKind::counter);
  EXPECT_EQ(snap[1].name, "b");
  EXPECT_EQ(snap[1].value, 7u);
  EXPECT_EQ(snap[1].kind, MetricKind::gauge);
  EXPECT_EQ(snap[2].name, "c");
  EXPECT_EQ(snap[3].name, "d");
  EXPECT_EQ(snap[3].kind, MetricKind::gauge);
}

TEST(MetricsRegistryTest, SnapshotOrderIsStable) {
  MetricsRegistry registry;
  registry.gauge("z");
  registry.counter("a");
  registry.gauge("m");
  auto first = registry.snapshot();
  auto second = registry.snapshot();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].name, "z");
  EXPECT_EQ(first[1].name, "a");
  EXPECT_EQ(first[2].name, "m");
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name) << "snapshot order must be deterministic";
  }
}

TEST(MetricsRegistryTest, ConcurrentBumpsAreLossless) {
  MetricsRegistry registry;
  metrics::Counter& c = registry.counter("hot");
  constexpr int kThreads = 4;
  constexpr int kBumps = 50'000;
  std::vector<std::thread> bumpers;
  for (int t = 0; t < kThreads; ++t) {
    bumpers.emplace_back([&c] {
      for (int i = 0; i < kBumps; ++i) c.increment();
    });
  }
  for (auto& thread : bumpers) thread.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kBumps);
}

// ---- record schema ---------------------------------------------------------------

TEST(MetricsRecordTest, MakeDecodeRoundTrip) {
  const sensors::Record record = sensors::make_metrics_record(
      7, 42, 1'000'000, "ism.records_received", 12345, MetricKind::counter);
  EXPECT_TRUE(sensors::is_metrics_record(record));
  EXPECT_EQ(record.sensor, sensors::kMetricsSensorId);
  EXPECT_EQ(record.node, 7u);
  EXPECT_EQ(record.sequence, 42u);
  auto point = sensors::decode_metrics_record(record);
  ASSERT_TRUE(point.is_ok()) << point.status().to_string();
  EXPECT_EQ(point.value().name, "ism.records_received");
  EXPECT_EQ(point.value().value, 12345u);
  EXPECT_EQ(point.value().kind, MetricKind::counter);

  const sensors::Record gauge = sensors::make_metrics_record(
      1, 0, 0, "ism.sessions", 3, MetricKind::gauge);
  auto gauge_point = sensors::decode_metrics_record(gauge);
  ASSERT_TRUE(gauge_point.is_ok());
  EXPECT_EQ(gauge_point.value().kind, MetricKind::gauge);
}

TEST(MetricsRecordTest, RejectsNonMetricsShapes) {
  sensors::Record plain;
  plain.sensor = 1;
  EXPECT_FALSE(sensors::is_metrics_record(plain));
  EXPECT_EQ(sensors::decode_metrics_record(plain).status().code(), Errc::malformed);

  sensors::Record wrong_fields;
  wrong_fields.sensor = sensors::kMetricsSensorId;
  wrong_fields.fields = {sensors::Field::i32(1)};
  EXPECT_EQ(sensors::decode_metrics_record(wrong_fields).status().code(), Errc::malformed);
}

TEST(MetricsRecordTest, SnapshotToRecordsStampsAndSequences) {
  std::vector<Sample> samples = {
      Sample{"one", 1, MetricKind::counter},
      Sample{"two", 2, MetricKind::gauge},
  };
  SequenceNo sequence = 10;
  auto records = metrics::snapshot_to_records(samples, 99, 5'000, sequence);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(sequence, 12u);
  EXPECT_EQ(records[0].sequence, 10u);
  EXPECT_EQ(records[1].sequence, 11u);
  for (const auto& record : records) {
    EXPECT_EQ(record.node, 99u);
    EXPECT_EQ(record.timestamp, 5'000);
    EXPECT_TRUE(sensors::is_metrics_record(record));
  }
}

// The shm output path: a metrics record pushed through a real ShmSink ring
// must pop byte-identical to its encoding and decode back to an equal
// record — consumers see exactly what the ISM delivered.
TEST(MetricsRecordTest, ShmSinkRoundTripByteIdentical) {
  const sensors::Record record = sensors::make_metrics_record(
      sensors::kIsmMetricsNodeId, 3, 2'000'000, "ism.pipeline.merged", 777,
      MetricKind::counter);
  auto encoded = ism::encode_output_record(record);
  ASSERT_TRUE(encoded.is_ok());

  test::RingMemory memory(shm::RingBuffer::region_size(4096));
  auto ring = shm::RingBuffer::init(memory.data(), 4096);
  ASSERT_TRUE(ring.is_ok());
  ism::ShmSink sink(ring.value());
  ASSERT_TRUE(sink.accept(record));
  EXPECT_EQ(sink.delivered(), 1u);

  std::vector<std::uint8_t> popped;
  ASSERT_TRUE(ring.value().try_pop(popped));
  ASSERT_EQ(popped.size(), encoded.value().size());
  EXPECT_EQ(std::memcmp(popped.data(), encoded.value().data(), popped.size()), 0)
      << "ring payload must be byte-identical to the encoding";

  auto decoded = ism::decode_output_record(ByteSpan{popped.data(), popped.size()});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), record);
  auto point = sensors::decode_metrics_record(decoded.value());
  ASSERT_TRUE(point.is_ok());
  EXPECT_EQ(point.value().name, "ism.pipeline.merged");
  EXPECT_EQ(point.value().value, 777u);
}

// The PICL path: metric names (dotted strings) must survive the ASCII
// rendering and parse back to the same record.
TEST(MetricsRecordTest, PiclLineRoundTrip) {
  const sensors::Record record = sensors::make_metrics_record(
      5, 0, 3'500'000, "exs.records_forwarded", 424242, MetricKind::counter);
  picl::PiclOptions options{picl::TimestampMode::utc_micros, 0};
  const std::string line = picl::to_picl_line(record, options);
  auto parsed = picl::from_picl_line(line, options);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string() << " line: " << line;
  EXPECT_EQ(parsed.value(), record);
  auto point = sensors::decode_metrics_record(parsed.value());
  ASSERT_TRUE(point.is_ok());
  EXPECT_EQ(point.value().name, "exs.records_forwarded");
  EXPECT_EQ(point.value().value, 424242u);
}

// ---- the EXS snapshot --------------------------------------------------------------

// The loop-pacing counters ride the EXS's 0xFF01 snapshot: every drain pass
// is one loop wakeup, and a pass that stopped at drain_burst (rings still
// holding records) is a burst-limited drain.
TEST(ExsMetricsTest, SnapshotCarriesLoopWakeupsAndBurstLimitedDrains) {
  test::RingMemory memory(shm::MultiRing::region_size(1, 64 * 1024));
  auto rings = shm::MultiRing::init(memory.data(), 1, 64 * 1024);
  ASSERT_TRUE(rings.is_ok());
  auto ring = rings.value().claim_slot();
  ASSERT_TRUE(ring.is_ok());
  clk::ManualClock clock(1'000'000);
  sensors::Sensor sensor(ring.value(), clock);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));

  lis::ExsConfig config;
  config.node = 6;
  config.drain_burst = 4;
  std::vector<ByteBuffer> frames;
  lis::ExsCore core(config, rings.value(), clock, [&frames](ByteBuffer payload) {
    frames.push_back(std::move(payload));
    return Status::ok();
  });
  for (int pass = 0; pass < 4; ++pass) ASSERT_TRUE(core.drain_rings().is_ok());  // 4+4+2+0
  ASSERT_TRUE(core.flush());
  frames.clear();
  ASSERT_TRUE(core.emit_metrics());
  ASSERT_TRUE(core.flush());

  std::map<std::string, std::uint64_t> snapshot;
  for (const ByteBuffer& frame : frames) {
    xdr::Decoder dec(frame.view());
    auto type = tp::peek_type(dec);
    ASSERT_TRUE(type.is_ok());
    if (type.value() != tp::MsgType::data_batch) continue;
    auto batch = tp::decode_batch(dec);
    ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
    for (const sensors::Record& record : batch.value().records) {
      if (!sensors::is_metrics_record(record)) continue;
      EXPECT_EQ(record.node, 6u);
      auto point = sensors::decode_metrics_record(record);
      ASSERT_TRUE(point.is_ok()) << point.status().to_string();
      snapshot[point.value().name] = point.value().value;
    }
  }
  ASSERT_TRUE(snapshot.count("exs.loop_wakeups"));
  ASSERT_TRUE(snapshot.count("exs.burst_limited_drains"));
  EXPECT_EQ(snapshot["exs.loop_wakeups"], 4u);
  EXPECT_EQ(snapshot["exs.burst_limited_drains"], 2u);
  EXPECT_EQ(snapshot["exs.records_forwarded"], 10u);
}

// ---- end to end through a live Ism -----------------------------------------------

/// Shard-count parameterized: metrics records must survive the sharded
/// ordering pipeline (reserved node hashes to one shard; the k-way merge
/// carries them to the sinks) exactly as they do the inline sorter.
class IsmMetricsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IsmMetricsTest, MetricsRecordsFlowThroughOrderingPipeline) {
  ism::IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.sorter.initial_frame_us = 0;
  config.sorter.min_frame_us = 0;
  config.sorter.adaptive = false;
  config.sorter_shards = GetParam();
  config.metrics_interval_us = 10'000;

  struct Log {
    std::mutex mutex;
    std::vector<sensors::Record> records;
  };
  auto log = std::make_shared<Log>();
  auto sink = std::make_shared<ism::CallbackSink>([log](const sensors::Record& r) {
    std::lock_guard<std::mutex> lock(log->mutex);
    log->records.push_back(r);
  });
  auto ism = ism::Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  // Owned-handle extension point: a counter bumped through the registry
  // must ride the same snapshots as the bridged daemon stats.
  ism.value()->metrics().counter("test.custom").add(5);
  std::thread server([&] { (void)ism.value()->run(); });

  // One client sends a batch so the ingest counters have real values.
  auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
  ASSERT_TRUE(socket.is_ok());
  ByteBuffer hello;
  xdr::Encoder hello_enc(hello);
  tp::put_type(tp::MsgType::hello, hello_enc);
  tp::encode_hello({NodeId{4}, tp::kProtocolVersion}, hello_enc);
  ASSERT_TRUE(net::write_frame(socket.value(), hello.view()));
  ASSERT_TRUE(net::read_frame(socket.value()).is_ok()) << "hello_ack";
  tp::BatchBuilder builder{NodeId{4}};
  const TimeMicros base = clk::SystemClock::instance().now();
  for (int i = 0; i < 3; ++i) {
    sensors::Record record;
    record.sensor = 1;
    record.timestamp = base + i;
    record.fields = {sensors::Field::i32(i)};
    ASSERT_TRUE(builder.add_record(record));
  }
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket.value(), payload.view()));

  // Let several metrics intervals elapse while the daemon runs.
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(log->mutex);
      std::size_t data = 0;
      for (const auto& r : log->records) {
        if (!sensors::is_metrics_record(r)) ++data;
      }
      if (data >= 3) break;
    }
    ASSERT_LT(monotonic_micros(), deadline) << "data records never delivered";
    sleep_micros(2'000);
  }
  sleep_micros(50'000);
  ism.value()->stop();
  server.join();
  ASSERT_TRUE(ism.value()->drain());  // emits the final snapshot

  std::lock_guard<std::mutex> lock(log->mutex);
  std::vector<sensors::Record> metric_records;
  for (const auto& r : log->records) {
    if (sensors::is_metrics_record(r)) metric_records.push_back(r);
  }
  ASSERT_GE(metric_records.size(), 1u);

  std::map<std::string, std::uint64_t> last_value;
  TimeMicros prev_ts = 0;
  for (const auto& r : metric_records) {
    EXPECT_EQ(r.node, sensors::kIsmMetricsNodeId);
    EXPECT_GE(r.timestamp, prev_ts) << "same-node metrics keep pipeline order";
    prev_ts = r.timestamp;
    auto point = sensors::decode_metrics_record(r);
    ASSERT_TRUE(point.is_ok()) << point.status().to_string();
    last_value[point.value().name] = point.value().value;
  }
  // The unified names: ingest, pipeline, sorter, CRE, and the owned handle.
  for (const char* name :
       {"ism.records_received", "ism.batches_received", "ism.connections_accepted",
        "ism.pipeline.submitted", "ism.pipeline.merged", "ism.sorter.pushed",
        "ism.sessions", "ism.cre.matched", "ism.pipeline.merge_runs",
        "ism.pipeline.sink_runs", "sort.late_records", "test.custom"}) {
    EXPECT_TRUE(last_value.count(name)) << "missing metric " << name;
  }
  // One delay-window gauge per ordering shard.
  for (std::size_t i = 0; i < GetParam(); ++i) {
    const std::string name = "ism.sorter.shard" + std::to_string(i) + ".frame_us";
    EXPECT_TRUE(last_value.count(name)) << "missing metric " << name;
  }
  EXPECT_FALSE(last_value.count("ism.sorter.shard" + std::to_string(GetParam()) + ".frame_us"));
  // Final snapshot reflects the batch this test sent.
  EXPECT_GE(last_value["ism.records_received"], 3u);
  EXPECT_GE(last_value["ism.batches_received"], 1u);
  EXPECT_EQ(last_value["test.custom"], 5u);
  EXPECT_GE(last_value["ism.pipeline.submitted"], 3u);
  // merged / sink_runs is the records per hand-over: at least one run, and
  // never more runs than records.
  EXPECT_GE(last_value["ism.pipeline.sink_runs"], 1u);
  EXPECT_LE(last_value["ism.pipeline.sink_runs"], last_value["ism.pipeline.merged"]);
}

INSTANTIATE_TEST_SUITE_P(Shards, IsmMetricsTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// A credited session that has half its window admitted is acked at once; the
// ISM counts those acks as ism.window_update_acks in its 0xFF01 snapshot,
// apart from the drain-driven ones (ism.drain_window_updates). The sorter
// holds every record until drain(), so no drain-driven update can fire.
TEST(IsmMetricsWindowUpdateTest, SnapshotCountsWindowUpdateAcks) {
  ism::IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.metrics_interval_us = 10'000;
  config.ack_period_us = 10'000'000;  // every ack below is a window update
  config.credit_window_records = 4;
  config.credit_replenish_us = 0;
  config.sorter.adaptive = false;
  config.sorter.initial_frame_us = 120'000'000;
  config.sorter.max_frame_us = 120'000'000;
  auto log = std::make_shared<std::vector<sensors::Record>>();
  auto mutex = std::make_shared<std::mutex>();
  auto sink = std::make_shared<ism::CallbackSink>([log, mutex](const sensors::Record& r) {
    std::lock_guard<std::mutex> lock(*mutex);
    if (sensors::is_metrics_record(r)) log->push_back(r);
  });
  auto ism = ism::Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  std::thread server([&] { (void)ism.value()->run(); });

  auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
  ASSERT_TRUE(socket.is_ok());
  ByteBuffer hello;
  xdr::Encoder hello_enc(hello);
  tp::put_type(tp::MsgType::hello, hello_enc);
  tp::encode_hello({NodeId{4}, tp::kCreditProtocolVersion}, hello_enc);
  ASSERT_TRUE(net::write_frame(socket.value(), hello.view()));
  ASSERT_TRUE(net::read_frame(socket.value()).is_ok()) << "hello_ack";
  tp::BatchBuilder builder{NodeId{4}};
  const TimeMicros base = clk::SystemClock::instance().now();
  for (int i = 0; i < 2; ++i) {  // half the window
    sensors::Record record;
    record.sensor = 1;
    record.timestamp = base + i;
    record.fields = {sensors::Field::i32(i)};
    ASSERT_TRUE(builder.add_record(record));
  }
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket.value(), payload.view()));
  auto ack = net::read_frame(socket.value());
  ASSERT_TRUE(ack.is_ok());
  xdr::Decoder dec(ack.value().view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::batch_ack);
  ism.value()->stop();
  server.join();
  ASSERT_TRUE(ism.value()->drain());  // emits the final snapshot

  std::lock_guard<std::mutex> lock(*mutex);
  std::map<std::string, std::uint64_t> last_value;
  for (const sensors::Record& r : *log) {
    auto point = sensors::decode_metrics_record(r);
    ASSERT_TRUE(point.is_ok()) << point.status().to_string();
    last_value[point.value().name] = point.value().value;
  }
  ASSERT_TRUE(last_value.count("ism.window_update_acks"));
  EXPECT_EQ(last_value["ism.window_update_acks"], 1u);
  EXPECT_EQ(last_value["ism.credit_grants_sent"], 2u) << "hello_ack + the window update";
  ASSERT_TRUE(last_value.count("ism.drain_window_updates"));
  EXPECT_EQ(last_value["ism.drain_window_updates"], 0u);
}

}  // namespace
}  // namespace brisk
