// Tests for the hybrid-monitoring emulation (CounterSet + Profiler) and the
// perturbation-analysis accounting.
#include <gtest/gtest.h>

#include <thread>

#include "clock/clock.hpp"
#include "consumers/perturbation.hpp"
#include "ring_memory.hpp"
#include "sensors/profiler.hpp"
#include "sensors/record_codec.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk {
namespace {

using sensors::CounterSet;
using sensors::Profiler;
using sensors::ProfilerConfig;
using sensors::Record;
using sensors::SampleMode;

// ---- CounterSet -------------------------------------------------------------------

TEST(CounterSetTest, RegisterAndBump) {
  CounterSet counters;
  auto a = counters.register_counter("sends");
  auto b = counters.register_counter("recvs");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  counters.add(a.value());
  counters.add(a.value(), 5);
  EXPECT_EQ(counters.value(a.value()), 6u);
  EXPECT_EQ(counters.value(b.value()), 0u);
  EXPECT_EQ(counters.name(b.value()), "recvs");
}

TEST(CounterSetTest, RejectsDuplicateAndOverflow) {
  CounterSet counters;
  ASSERT_TRUE(counters.register_counter("x").is_ok());
  EXPECT_EQ(counters.register_counter("x").status().code(), Errc::already_exists);
  for (std::size_t i = 1; i < CounterSet::kMaxCounters; ++i) {
    ASSERT_TRUE(counters.register_counter("c" + std::to_string(i)).is_ok());
  }
  EXPECT_EQ(counters.register_counter("one-too-many").status().code(), Errc::buffer_full);
}

TEST(CounterSetTest, ConcurrentBumpsAreExact) {
  CounterSet counters;
  auto index = counters.register_counter("hits");
  ASSERT_TRUE(index.is_ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counters.add(index.value());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counters.value(index.value()),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- Profiler ----------------------------------------------------------------------

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::RingBuffer::region_size(256 * 1024));
    auto ring = shm::RingBuffer::init(memory_.data(), 256 * 1024);
    ASSERT_TRUE(ring.is_ok());
    ring_ = ring.value();
    sensor_ = std::make_unique<sensors::Sensor>(ring_, clock_);
  }

  Record pop_record() {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(ring_.try_pop(bytes));
    auto record = sensors::decode_native(ByteSpan{bytes.data(), bytes.size()});
    EXPECT_TRUE(record.is_ok());
    return std::move(record).value();
  }

  test::RingMemory memory_;
  shm::RingBuffer ring_;
  clk::ManualClock clock_{1'000'000};
  std::unique_ptr<sensors::Sensor> sensor_;
};

TEST_F(ProfilerTest, SampleRecordsCarryTsAndCounters) {
  CounterSet counters;
  auto a = counters.register_counter("a");
  auto b = counters.register_counter("b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  counters.add(a.value(), 3);
  counters.add(b.value(), 7);

  Profiler profiler({.sensor = 99, .period_us = 1'000}, *sensor_, counters, clock_);
  ASSERT_TRUE(profiler.sample_now());
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, 99u);
  auto values = sensors::decode_profile_sample(record);
  ASSERT_TRUE(values.is_ok()) << values.status().to_string();
  EXPECT_EQ(values.value(), (std::vector<std::uint64_t>{3, 7}));
}

TEST_F(ProfilerTest, DeltasModeReportsChanges) {
  CounterSet counters;
  auto a = counters.register_counter("a");
  ASSERT_TRUE(a.is_ok());
  Profiler profiler({.sensor = 1, .period_us = 1'000, .mode = SampleMode::deltas},
                    *sensor_, counters, clock_);
  counters.add(a.value(), 10);
  ASSERT_TRUE(profiler.sample_now());
  counters.add(a.value(), 4);
  ASSERT_TRUE(profiler.sample_now());
  EXPECT_EQ(sensors::decode_profile_sample(pop_record()).value()[0], 10u);
  EXPECT_EQ(sensors::decode_profile_sample(pop_record()).value()[0], 4u);
}

TEST_F(ProfilerTest, AbsoluteModeReportsTotals) {
  CounterSet counters;
  auto a = counters.register_counter("a");
  ASSERT_TRUE(a.is_ok());
  Profiler profiler({.sensor = 1, .period_us = 1'000, .mode = SampleMode::absolute},
                    *sensor_, counters, clock_);
  counters.add(a.value(), 10);
  ASSERT_TRUE(profiler.sample_now());
  counters.add(a.value(), 4);
  ASSERT_TRUE(profiler.sample_now());
  EXPECT_EQ(sensors::decode_profile_sample(pop_record()).value()[0], 10u);
  EXPECT_EQ(sensors::decode_profile_sample(pop_record()).value()[0], 14u);
}

TEST_F(ProfilerTest, MaybeSampleHonorsPeriod) {
  CounterSet counters;
  ASSERT_TRUE(counters.register_counter("a").is_ok());
  Profiler profiler({.sensor = 1, .period_us = 10'000}, *sensor_, counters, clock_);
  EXPECT_FALSE(profiler.maybe_sample());
  clock_.advance(9'999);
  EXPECT_FALSE(profiler.maybe_sample());
  clock_.advance(1);
  EXPECT_TRUE(profiler.maybe_sample());
  EXPECT_FALSE(profiler.maybe_sample()) << "next period starts fresh";
  EXPECT_EQ(profiler.samples_emitted(), 1u);
}

TEST_F(ProfilerTest, DecodeRejectsNonSampleRecords) {
  Record not_a_sample;
  not_a_sample.fields = {sensors::Field::i32(1)};
  EXPECT_EQ(sensors::decode_profile_sample(not_a_sample).status().code(),
            Errc::type_mismatch);
  Record wrong_fields;
  wrong_fields.fields = {sensors::Field::ts(1), sensors::Field::i32(2)};
  EXPECT_EQ(sensors::decode_profile_sample(wrong_fields).status().code(),
            Errc::type_mismatch);
}

// ---- perturbation analysis -----------------------------------------------------------

TEST(PerturbationTest, CalibrationProducesPlausibleCosts) {
  auto calibration = consumers::calibrate_notice_cost(20'000);
  EXPECT_GT(calibration.per_notice_us, 0.0);
  EXPECT_LT(calibration.per_notice_us, 50.0) << "a NOTICE cannot cost 50us on this hardware";
  EXPECT_GT(calibration.per_dropped_us, 0.0);
  EXPECT_EQ(calibration.calibration_iterations, 20'000u);
}

TEST(PerturbationTest, EstimateCombinesCountersAndCosts) {
  sensors::SensorStats stats;
  stats.notices = 1'000;
  stats.records_pushed = 900;
  stats.records_dropped = 100;
  consumers::NoticeCalibration calibration;
  calibration.per_notice_us = 2.0;
  calibration.per_dropped_us = 1.0;
  auto report = consumers::estimate_perturbation(stats, calibration);
  EXPECT_DOUBLE_EQ(report.estimated_overhead_us, 900 * 2.0 + 100 * 1.0);
  EXPECT_DOUBLE_EQ(report.overhead_fraction(19'000), 0.1);
  EXPECT_EQ(report.overhead_fraction(0), 0.0);
  EXPECT_NE(report.to_string().find("notices=1000"), std::string::npos);
}

}  // namespace
}  // namespace brisk
