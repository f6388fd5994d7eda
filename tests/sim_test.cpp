// Simulation substrate tests: latency model statistics, delayed-stream
// generator invariants (per-node FIFO, distribution effects, determinism),
// lateness oracle, and the looping-workload driver.
#include <gtest/gtest.h>

#include <algorithm>

#include "clock/clock.hpp"
#include "ring_memory.hpp"
#include "sensors/sensor.hpp"
#include "sim/delayed_stream.hpp"
#include "sim/latency_model.hpp"
#include "sim/workload.hpp"

namespace brisk::sim {
namespace {

// ---- latency model ------------------------------------------------------------------

TEST(LatencyModelTest, ForwardWithinConfiguredRange) {
  LatencyModel model({.base_us = 100, .jitter_us = 50, .seed = 1});
  for (int i = 0; i < 1000; ++i) {
    const TimeMicros d = model.forward();
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 150);
  }
}

TEST(LatencyModelTest, ReverseAddsAsymmetry) {
  LatencyModel model({.base_us = 100, .jitter_us = 0, .asymmetry_us = 40, .seed = 1});
  EXPECT_EQ(model.forward(), 100);
  EXPECT_EQ(model.reverse(), 140);
}

TEST(LatencyModelTest, SpikesOccurAtConfiguredProbability) {
  LatencyModel model(
      {.base_us = 100, .jitter_us = 0, .spike_probability = 0.3, .spike_us = 10'000, .seed = 7});
  int spikes = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (model.forward() >= 10'000) ++spikes;
  }
  EXPECT_NEAR(spikes, 3'000, 200);
}

TEST(LatencyModelTest, SpikeProbabilitySwitchable) {
  LatencyModel model({.base_us = 100, .jitter_us = 0, .spike_probability = 0.0, .seed = 9});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.forward(), 100);
  model.set_spike_probability(1.0);
  EXPECT_GE(model.forward(), 5'000) << "all messages spike now";
}

TEST(LatencyModelTest, DeterministicUnderSeed) {
  LatencyModel a({.base_us = 10, .jitter_us = 100, .seed = 42});
  LatencyModel b({.base_us = 10, .jitter_us = 100, .seed = 42});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.forward(), b.forward());
}

// ---- delayed stream ------------------------------------------------------------------

DelayedStreamConfig small_config() {
  DelayedStreamConfig config;
  config.nodes = 4;
  config.events_per_sec_per_node = 2'000.0;
  config.duration_us = 500'000;
  config.distribution = LatenessDistribution::exponential;
  config.base_delay_us = 200;
  config.spread_us = 1'000;
  config.seed = 5;
  return config;
}

TEST(DelayedStreamTest, GeneratesExpectedVolume) {
  auto stream = generate_delayed_stream(small_config());
  // 4 nodes × 2000 ev/s × 0.5 s = ~4000 events (Poisson, allow slack).
  EXPECT_GT(stream.size(), 3'000u);
  EXPECT_LT(stream.size(), 5'000u);
}

TEST(DelayedStreamTest, SortedByArrival) {
  auto stream = generate_delayed_stream(small_config());
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].arrival_us, stream[i - 1].arrival_us);
  }
}

TEST(DelayedStreamTest, PerNodeFifoInvariant) {
  // Within one node, arrival order must match creation order (the TCP
  // stream guarantee the sorter relies on).
  auto stream = generate_delayed_stream(small_config());
  std::map<NodeId, SequenceNo> last_seq;
  std::map<NodeId, TimeMicros> last_creation;
  for (const Arrival& a : stream) {
    auto it = last_seq.find(a.record.node);
    if (it != last_seq.end()) {
      EXPECT_EQ(a.record.sequence, it->second + 1) << "gapless per-node sequence";
      EXPECT_GE(a.record.timestamp, last_creation[a.record.node]);
    }
    last_seq[a.record.node] = a.record.sequence;
    last_creation[a.record.node] = a.record.timestamp;
  }
}

TEST(DelayedStreamTest, ArrivalNeverBeforeCreationPlusBase) {
  auto stream = generate_delayed_stream(small_config());
  for (const Arrival& a : stream) {
    EXPECT_GE(a.arrival_us, a.record.timestamp + 200);
  }
}

TEST(DelayedStreamTest, DeterministicUnderSeed) {
  auto a = generate_delayed_stream(small_config());
  auto b = generate_delayed_stream(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].record.timestamp, b[i].record.timestamp);
  }
}

TEST(DelayedStreamTest, NoneDistributionKeepsCrossNodeLatenessSmall) {
  auto config = small_config();
  config.distribution = LatenessDistribution::none;
  auto stream = generate_delayed_stream(config);
  // Constant delay → cross-node disorder limited to simultaneous events.
  EXPECT_LE(max_cross_node_lateness(stream), 10);
}

TEST(DelayedStreamTest, BurstyProducesLargeLateness) {
  auto config = small_config();
  config.distribution = LatenessDistribution::bursty;
  config.burst_probability = 0.02;
  config.burst_extra_us = 30'000;
  auto stream = generate_delayed_stream(config);
  EXPECT_GE(max_cross_node_lateness(stream), 20'000)
      << "bursts must create cross-node disorder on their scale";
}

TEST(DelayedStreamTest, SixIntFieldsPerRecord) {
  auto stream = generate_delayed_stream(small_config());
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream[0].record.fields.size(), 6u) << "the paper's 6-int workload";
}

TEST(MaxLatenessTest, OracleOnHandcraftedStream) {
  std::vector<Arrival> stream;
  auto push = [&](NodeId node, TimeMicros ts, TimeMicros arrival) {
    Arrival a;
    a.record.node = node;
    a.record.timestamp = ts;
    a.arrival_us = arrival;
    stream.push_back(a);
  };
  push(0, 100, 110);
  push(1, 300, 310);
  push(0, 150, 320);  // arrives after ts=300 was seen → lateness 150
  push(1, 400, 410);
  EXPECT_EQ(max_cross_node_lateness(stream), 150);
}

TEST(MaxLatenessTest, InOrderStreamHasZero) {
  std::vector<Arrival> stream;
  for (int i = 0; i < 10; ++i) {
    Arrival a;
    a.record.timestamp = i * 100;
    a.arrival_us = i * 100 + 50;
    stream.push_back(a);
  }
  EXPECT_EQ(max_cross_node_lateness(stream), 0);
}

// ---- workload driver ------------------------------------------------------------------

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::RingBuffer::region_size(1 << 20));
    auto ring = shm::RingBuffer::init(memory_.data(), 1 << 20);
    ASSERT_TRUE(ring.is_ok());
    ring_ = ring.value();
    sensor_ = std::make_unique<sensors::Sensor>(ring_, clk::SystemClock::instance());
  }
  test::RingMemory memory_;
  shm::RingBuffer ring_;
  std::unique_ptr<sensors::Sensor> sensor_;
};

TEST_F(WorkloadTest, UnpacedLoopIssuesManyEvents) {
  WorkloadConfig config;
  config.duration_us = 50'000;
  auto result = run_looping_workload(*sensor_, config);
  EXPECT_GT(result.notices_issued, 1'000u) << "an unpaced loop reaches high rates";
  EXPECT_GE(result.elapsed_us, 50'000);
  EXPECT_GT(result.cpu_us, 0);
}

TEST_F(WorkloadTest, PacedLoopApproximatesTargetRate) {
  WorkloadConfig config;
  config.events_per_sec = 10'000.0;
  config.duration_us = 200'000;
  auto result = run_looping_workload(*sensor_, config);
  EXPECT_NEAR(result.achieved_rate_per_sec(), 10'000.0, 2'000.0);
}

TEST_F(WorkloadTest, RecordsAreSixIntNotices) {
  WorkloadConfig config;
  config.sensor = 9;
  config.events_per_sec = 1'000.0;
  config.duration_us = 20'000;
  auto result = run_looping_workload(*sensor_, config);
  ASSERT_GT(result.notices_accepted, 0u);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(ring_.try_pop(bytes));
  auto record = sensors::decode_native(ByteSpan{bytes.data(), bytes.size()});
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().sensor, 9u);
  EXPECT_EQ(record.value().fields.size(), 6u);
  for (const auto& field : record.value().fields) {
    EXPECT_EQ(field.type(), sensors::FieldType::x_i32);
  }
}

// ---- parameterized: every lateness distribution generates a valid stream -----------------

class DistributionSweep : public ::testing::TestWithParam<LatenessDistribution> {};

TEST_P(DistributionSweep, StreamInvariantsHold) {
  auto config = small_config();
  config.distribution = GetParam();
  auto stream = generate_delayed_stream(config);
  ASSERT_FALSE(stream.empty());
  TimeMicros prev_arrival = 0;
  for (const Arrival& a : stream) {
    EXPECT_GE(a.arrival_us, prev_arrival);
    EXPECT_GE(a.arrival_us, a.record.timestamp);
    EXPECT_LT(a.record.timestamp, config.duration_us);
    prev_arrival = a.arrival_us;
  }
}

INSTANTIATE_TEST_SUITE_P(All, DistributionSweep,
                         ::testing::Values(LatenessDistribution::none,
                                           LatenessDistribution::uniform,
                                           LatenessDistribution::exponential,
                                           LatenessDistribution::bursty),
                         [](const auto& info) {
                           return lateness_distribution_name(info.param);
                         });

}  // namespace
}  // namespace brisk::sim
