// Consumer-side tests: shared-memory consumer, trace statistics, and the
// visual-object framework (registry + channel over real sockets).
#include <gtest/gtest.h>

#include <thread>

#include "consumers/shm_consumer.hpp"
#include "consumers/trace_stats.hpp"
#include "ism/gateway.hpp"
#include "ism/output.hpp"
#include "ring_memory.hpp"
#include "vo/vo_channel.hpp"
#include "vo/vo_registry.hpp"

namespace brisk {
namespace {

using sensors::Field;
using sensors::Record;

Record make_record(NodeId node, TimeMicros ts, SensorId sensor = 1) {
  Record record;
  record.node = node;
  record.sensor = sensor;
  record.timestamp = ts;
  record.fields = {Field::i32(1)};
  return record;
}

// ---- ShmConsumer ---------------------------------------------------------------------

class ShmConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::RingBuffer::region_size(64 * 1024));
    auto ring = shm::RingBuffer::init(memory_.data(), 64 * 1024);
    ASSERT_TRUE(ring.is_ok());
    ring_ = ring.value();
    sink_ = std::make_unique<ism::ShmSink>(ring_);
    consumer_ = std::make_unique<consumers::ShmConsumer>(ring_);
  }
  test::RingMemory memory_;
  shm::RingBuffer ring_;
  std::unique_ptr<ism::ShmSink> sink_;
  std::unique_ptr<consumers::ShmConsumer> consumer_;
};

TEST_F(ShmConsumerTest, PollEmptyReturnsNullopt) {
  auto record = consumer_->poll();
  ASSERT_TRUE(record.is_ok());
  EXPECT_FALSE(record.value().has_value());
}

TEST_F(ShmConsumerTest, RoundTripThroughOutputRing) {
  ASSERT_TRUE(sink_->accept(make_record(5, 111)));
  auto record = consumer_->poll();
  ASSERT_TRUE(record.is_ok());
  ASSERT_TRUE(record.value().has_value());
  EXPECT_EQ(record.value()->node, 5u);
  EXPECT_EQ(record.value()->timestamp, 111);
  EXPECT_EQ(consumer_->records_consumed(), 1u);
}

TEST_F(ShmConsumerTest, PollAllDrains) {
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(sink_->accept(make_record(1, i)));
  auto records = consumer_->poll_all();
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 10u);
  EXPECT_TRUE(ring_.empty());
}

TEST_F(ShmConsumerTest, PollPiclRendersLine) {
  ASSERT_TRUE(sink_->accept(make_record(2, 333, 7)));
  picl::PiclOptions options{picl::TimestampMode::utc_micros, 0};
  auto line = consumer_->poll_picl(options);
  ASSERT_TRUE(line.is_ok());
  ASSERT_TRUE(line.value().has_value());
  EXPECT_EQ(line.value()->rfind("2 7 333 2 1", 0), 0u) << *line.value();
}

// ---- TraceStats -----------------------------------------------------------------------

TEST(TraceStatsTest, CountsPerNodeAndSensor) {
  consumers::TraceStats stats;
  stats.add(make_record(0, 100, 1));
  stats.add(make_record(0, 200, 2));
  stats.add(make_record(1, 300, 1));
  const auto& s = stats.summary();
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.per_node.at(0), 2u);
  EXPECT_EQ(s.per_node.at(1), 1u);
  EXPECT_EQ(s.per_sensor.at(1), 2u);
  EXPECT_EQ(s.out_of_order, 0u);
}

TEST(TraceStatsTest, DetectsOutOfOrder) {
  consumers::TraceStats stats;
  stats.add(make_record(0, 100));
  stats.add(make_record(0, 300));
  stats.add(make_record(1, 250));  // backstep of 50
  stats.add(make_record(1, 400));
  const auto& s = stats.summary();
  EXPECT_EQ(s.out_of_order, 1u);
  EXPECT_EQ(s.max_backstep_us, 50);
  EXPECT_NEAR(s.out_of_order_fraction(), 0.25, 1e-9);
}

TEST(TraceStatsTest, RateComputation) {
  consumers::TraceStats stats;
  for (int i = 0; i <= 100; ++i) stats.add(make_record(0, i * 10'000));  // 1 s span
  EXPECT_NEAR(stats.summary().event_rate_per_sec(), 101.0, 1.0);
  EXPECT_NEAR(stats.summary().duration_seconds(), 1.0, 1e-6);
}

TEST(TraceStatsTest, ReportContainsKeyNumbers) {
  consumers::TraceStats stats;
  stats.add(make_record(3, 100, 9));
  const std::string report = stats.report();
  EXPECT_NE(report.find("records: 1"), std::string::npos);
  EXPECT_NE(report.find("3=1"), std::string::npos);
  EXPECT_NE(report.find("9=1"), std::string::npos);
}

TEST(TraceStatsTest, EmptySummaryIsSane) {
  consumers::TraceStats stats;
  EXPECT_EQ(stats.summary().records, 0u);
  EXPECT_EQ(stats.summary().event_rate_per_sec(), 0.0);
  EXPECT_EQ(stats.summary().out_of_order_fraction(), 0.0);
}

// ---- visual objects ---------------------------------------------------------------------

class RecordingObject final : public vo::VisualObject {
 public:
  explicit RecordingObject(std::string name) : name_(std::move(name)) {}
  void render(const std::string& picl_line) override {
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(picl_line);
  }
  [[nodiscard]] std::string name() const override { return name_; }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::string name_;
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

class VoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto registry = vo::VoRegistry::start(0);
    ASSERT_TRUE(registry.is_ok()) << registry.status().to_string();
    registry_ = std::move(registry).value();
    object_ = std::make_shared<RecordingObject>("gauge");
    ASSERT_TRUE(registry_->add_object(object_));
    server_ = std::thread([this] { (void)registry_->run(2'000); });
  }
  void TearDown() override {
    registry_->stop();
    server_.join();
  }

  std::unique_ptr<vo::VoRegistry> registry_;
  std::shared_ptr<RecordingObject> object_;
  std::thread server_;
};

TEST_F(VoTest, PingRoundTrip) {
  auto channel = vo::VoChannel::connect("127.0.0.1", registry_->port());
  ASSERT_TRUE(channel.is_ok()) << channel.status().to_string();
  auto echoed = channel.value().ping(0xabcd);
  ASSERT_TRUE(echoed.is_ok()) << echoed.status().to_string();
  EXPECT_EQ(echoed.value(), 0xabcdu);
}

TEST_F(VoTest, RenderReachesObject) {
  auto channel = vo::VoChannel::connect("127.0.0.1", registry_->port());
  ASSERT_TRUE(channel.is_ok());
  ASSERT_TRUE(channel.value().render("gauge", "2 1 100 0 0"));
  // Ping forces the one-way render to be processed first (same stream).
  ASSERT_TRUE(channel.value().ping(1).is_ok());
  auto lines = object_->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "2 1 100 0 0");
}

TEST_F(VoTest, UnknownObjectDropped) {
  auto channel = vo::VoChannel::connect("127.0.0.1", registry_->port());
  ASSERT_TRUE(channel.is_ok());
  ASSERT_TRUE(channel.value().render("nope", "2 1 100 0 0"));
  ASSERT_TRUE(channel.value().ping(2).is_ok());
  EXPECT_TRUE(object_->lines().empty());
  EXPECT_EQ(registry_->stats().unknown_object_calls, 1u);
}

TEST_F(VoTest, VoSinkDeliversRecordsAsPicl) {
  auto channel = vo::VoChannel::connect("127.0.0.1", registry_->port());
  ASSERT_TRUE(channel.is_ok());
  picl::PiclOptions options{picl::TimestampMode::utc_micros, 0};
  vo::VoSink sink(std::make_shared<vo::VoChannel>(std::move(channel).value()), "gauge", options);
  ASSERT_TRUE(sink.accept(make_record(4, 555, 8)));
  ASSERT_TRUE(sink.channel().ping(3).is_ok());
  auto lines = object_->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("2 8 555 4 1", 0), 0u) << lines[0];
}

TEST_F(VoTest, DuplicateObjectNameRejected) {
  EXPECT_EQ(registry_->add_object(std::make_shared<RecordingObject>("gauge")).code(),
            Errc::already_exists);
  EXPECT_EQ(registry_->object_count(), 1u);
}

TEST_F(VoTest, RemoveObject) {
  ASSERT_TRUE(registry_->remove_object("gauge"));
  EXPECT_EQ(registry_->remove_object("gauge").code(), Errc::not_found);
  EXPECT_EQ(registry_->object_count(), 0u);
}

TEST_F(VoTest, MultipleObjectsFanOutViaGateway) {
  // The old VoSink looped over a name list itself; fan-out across objects
  // is the consumer gateway's job now — one subscriber per object, with
  // per-object pushdown filters.
  auto second = std::make_shared<RecordingObject>("log");
  ASSERT_TRUE(registry_->add_object(second));
  auto channel = vo::VoChannel::connect("127.0.0.1", registry_->port());
  ASSERT_TRUE(channel.is_ok());
  picl::PiclOptions options{picl::TimestampMode::utc_micros, 0};

  ism::GatewayConfig config;
  auto gateway = ism::ConsumerGateway::create(config);
  ASSERT_TRUE(gateway.is_ok());
  auto shared = std::make_shared<vo::VoChannel>(std::move(channel).value());
  // "log" only wants node 1; "gauge" takes everything.
  ism::SubscriptionFilter log_filter;
  log_filter.nodes.push_back({1, 1});
  ASSERT_TRUE(vo::subscribe_visual_objects(*gateway.value(), shared, {"gauge"}, options));
  ASSERT_TRUE(
      vo::subscribe_visual_objects(*gateway.value(), shared, {"log"}, options, log_filter));
  ASSERT_TRUE(gateway.value()->accept(make_record(1, 1)));
  ASSERT_TRUE(gateway.value()->accept(make_record(2, 2)));  // node 2: gauge only
  ASSERT_TRUE(shared->ping(4).is_ok());
  EXPECT_EQ(object_->lines().size(), 2u);
  EXPECT_EQ(second->lines().size(), 1u);
}

}  // namespace
}  // namespace brisk
