// End-to-end check of the mknotice toolchain: tests/testdata/sensors.spec is
// run through the mknotice executable at build time (see CMakeLists); the
// generated header is included here and its macros are exercised against a
// live sensor + ring.
#include <gtest/gtest.h>

#include "clock/clock.hpp"
#include "generated_notices.hpp"  // build-generated
#include "ring_memory.hpp"
#include "sensors/record_codec.hpp"
#include "sensors/sensor_registry.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk {
namespace {

using sensors::FieldType;
using sensors::Record;

class GeneratedNoticeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::RingBuffer::region_size(64 * 1024));
    auto ring = shm::RingBuffer::init(memory_.data(), 64 * 1024);
    ASSERT_TRUE(ring.is_ok());
    ring_ = ring.value();
    sensor_ = std::make_unique<sensors::Sensor>(ring_, clock_);
  }

  Record pop_record() {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(ring_.try_pop(bytes));
    auto record = sensors::decode_native(ByteSpan{bytes.data(), bytes.size()});
    EXPECT_TRUE(record.is_ok()) << record.status().to_string();
    return std::move(record).value();
  }

  test::RingMemory memory_;
  shm::RingBuffer ring_;
  clk::ManualClock clock_{5'000'000};
  std::unique_ptr<sensors::Sensor> sensor_;
};

TEST_F(GeneratedNoticeTest, BasicMacroWritesTypedRecord) {
  ASSERT_TRUE(BRISK_NOTICE_GEN_BASIC(*sensor_, 42, "hello"));
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, kSensor_gen_basic);
  ASSERT_EQ(record.fields.size(), 3u);
  EXPECT_EQ(record.fields[0].as_signed(), 42);
  EXPECT_EQ(record.fields[1].as_string(), "hello");
  EXPECT_EQ(record.fields[2].as_timestamp(), 5'000'000) << "x_ts embeds the record ts";
}

TEST_F(GeneratedNoticeTest, CausalMacro) {
  ASSERT_TRUE(BRISK_NOTICE_GEN_CAUSAL(*sensor_, 77, 5));
  const Record record = pop_record();
  EXPECT_EQ(record.reason_id().value_or(0), 77u);
}

TEST_F(GeneratedNoticeTest, WideMacroUsesWriterPath) {
  ASSERT_TRUE(
      BRISK_NOTICE_GEN_WIDE(*sensor_, 0, 1, 2, 3, 4, 5, 6, 7, 8, 999, "tail", 2.5));
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, kSensor_gen_wide);
  ASSERT_EQ(record.fields.size(), 12u);
  EXPECT_EQ(record.fields[8].as_signed(), 8);
  EXPECT_EQ(record.fields[9].as_unsigned(), 999u);
  EXPECT_EQ(record.fields[10].as_string(), "tail");
  EXPECT_DOUBLE_EQ(record.fields[11].as_double(), 2.5);
}

TEST_F(GeneratedNoticeTest, WideMacroAdvancesSequence) {
  ASSERT_TRUE(
      BRISK_NOTICE_GEN_WIDE(*sensor_, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, "a", 0.0));
  ASSERT_TRUE(BRISK_NOTICE_GEN_BASIC(*sensor_, 1, "b"));
  EXPECT_EQ(pop_record().sequence, 0u);
  EXPECT_EQ(pop_record().sequence, 1u);
}

TEST_F(GeneratedNoticeTest, RegistrationHelpersPopulateRegistry) {
  sensors::SensorRegistry registry;
  ASSERT_TRUE(register_gen_basic(registry));
  ASSERT_TRUE(register_gen_wide(registry));
  ASSERT_TRUE(register_gen_causal(registry));
  auto info = registry.find(kSensor_gen_basic);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->name, "gen_basic");
  ASSERT_EQ(info->signature.size(), 3u);
  EXPECT_EQ(info->signature[1], FieldType::x_string);

  // Validate a generated record against the generated signature.
  ASSERT_TRUE(BRISK_NOTICE_GEN_BASIC(*sensor_, 1, "x"));
  EXPECT_TRUE(registry.validate(pop_record()));
}

}  // namespace
}  // namespace brisk
