// Sensor layer tests: field types, Record helpers, the native record codec
// (round trips, malformed input, timestamp patching), the RecordWriter fast
// path, the Sensor/NOTICE macro, and the SensorRegistry.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <vector>

#include "clock/clock.hpp"
#include "ring_memory.hpp"
#include "sensors/record_codec.hpp"
#include "sensors/sensor.hpp"
#include "sensors/sensor_registry.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk::sensors {
namespace {

// ---- field types ---------------------------------------------------------------

TEST(FieldTypeTest, PaperRequiresAtLeastTenBasicPlusThreeSystemTypes) {
  int basic = 0;
  int system = 0;
  for (std::uint8_t raw = 0; raw < kFieldTypeCount; ++raw) {
    if (is_system_type(static_cast<FieldType>(raw))) ++system;
    else ++basic;
  }
  EXPECT_GE(basic, 10) << "paper: 'over ten basic types'";
  EXPECT_EQ(system, 3) << "paper: X_TS, X_REASON, X_CONSEQ";
}

TEST(FieldTypeTest, TagsFitInFourBitsForMetaCompression) {
  EXPECT_LE(kFieldTypeCount, 16);
}

TEST(FieldTypeTest, ValidityBoundary) {
  EXPECT_TRUE(field_type_valid(0));
  EXPECT_TRUE(field_type_valid(kFieldTypeCount - 1));
  EXPECT_FALSE(field_type_valid(kFieldTypeCount));
  EXPECT_FALSE(field_type_valid(0xff));
}

TEST(FieldTypeTest, NamesAreUnique) {
  std::set<std::string> names;
  for (std::uint8_t raw = 0; raw < kFieldTypeCount; ++raw) {
    names.insert(field_type_name(static_cast<FieldType>(raw)));
  }
  EXPECT_EQ(names.size(), kFieldTypeCount);
}

TEST(FieldTest, AccessorsConvert) {
  EXPECT_EQ(Field::i32(-5).as_signed(), -5);
  EXPECT_EQ(Field::u64(7).as_unsigned(), 7u);
  EXPECT_DOUBLE_EQ(Field::f64(2.5).as_double(), 2.5);
  EXPECT_EQ(Field::str("abc").as_string(), "abc");
  EXPECT_EQ(Field::ts(1'000'000).as_timestamp(), 1'000'000);
  EXPECT_EQ(Field::reason(42).as_causal_id(), 42u);
  EXPECT_EQ(Field::i32(9).as_double(), 9.0);
  EXPECT_EQ(Field::f64(3.7).as_signed(), 3);
}

TEST(FieldTest, EqualityRespectsTypeAndValue) {
  EXPECT_EQ(Field::i32(1), Field::i32(1));
  EXPECT_FALSE(Field::i32(1) == Field::i64(1));
  EXPECT_FALSE(Field::i32(1) == Field::i32(2));
  EXPECT_EQ(Field::str("x"), Field::str("x"));
}

TEST(FieldTest, ToStringRendering) {
  EXPECT_EQ(Field::i32(-3).to_string(), "-3");
  EXPECT_EQ(Field::u8(255).to_string(), "255");
  EXPECT_EQ(Field::ch('Q').to_string(), "Q");
  EXPECT_EQ(Field::str("a b").to_string(), "\"a b\"");
}

// ---- Record helpers ---------------------------------------------------------------

TEST(RecordTest, FindFieldAndCausalIds) {
  Record record;
  record.fields = {Field::i32(1), Field::reason(10), Field::ts(99)};
  EXPECT_NE(record.find_field(FieldType::x_reason), nullptr);
  EXPECT_EQ(record.find_field(FieldType::x_conseq), nullptr);
  EXPECT_EQ(record.reason_id().value_or(0), 10u);
  EXPECT_FALSE(record.conseq_id().has_value());
}

TEST(RecordTest, ToStringContainsStructure) {
  Record record;
  record.node = 3;
  record.sensor = 7;
  record.sequence = 11;
  record.timestamp = 1234;
  record.fields = {Field::i32(5)};
  const std::string rendered = record.to_string();
  EXPECT_NE(rendered.find("3:7#11"), std::string::npos);
  EXPECT_NE(rendered.find("X_I32=5"), std::string::npos);
}

// ---- native codec round trips ------------------------------------------------------

Record make_full_record() {
  Record record;
  record.node = 2;
  record.sensor = 300;
  record.sequence = 12345678901234ULL;
  record.timestamp = 1'700'000'000'000'000LL;
  record.fields = {
      Field::i8(-8),
      Field::u8(200),
      Field::i16(-30'000),
      Field::u16(60'000),
      Field::i32(std::numeric_limits<std::int32_t>::min()),
      Field::u32(std::numeric_limits<std::uint32_t>::max()),
      Field::i64(std::numeric_limits<std::int64_t>::min()),
      Field::u64(std::numeric_limits<std::uint64_t>::max()),
      Field::f32(1.5f),
      Field::f64(-2.25),
      Field::ch('z'),
      Field::str("hello world"),
      Field::ts(1'700'000'000'000'001LL),
      Field::reason(77),
      Field::conseq(88),
  };
  return record;
}

TEST(NativeCodecTest, RoundTripsEveryFieldType) {
  const Record original = make_full_record();
  auto encoded = encode_native(original);
  ASSERT_TRUE(encoded.is_ok()) << encoded.status().to_string();
  auto decoded = decode_native(encoded.value().view(), original.node);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

TEST(NativeCodecTest, EncodeIntoRoundTripsATracedRecordInTheCallersSpan) {
  Record record = make_full_record();
  record.trace = TraceAnnotation{0xabcdef, {}};
  for (std::size_t i = 0; i < kMaxTraceStamps; ++i) {
    record.trace->stamps.push_back(
        {static_cast<TraceStage>(i % kTraceStageCount), static_cast<TimeMicros>(1'000 + i)});
  }
  std::array<std::uint8_t, kMaxNativeRecordBytes> buf;
  auto into = encode_native_into(record, buf);
  ASSERT_TRUE(into.is_ok()) << into.status().to_string();
  EXPECT_EQ(into.value().data(), buf.data()) << "the encoding is a prefix of the caller's span";
  auto decoded = decode_native(into.value(), record.node);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), record);
}

TEST(NativeCodecTest, EncodeIntoReportsBufferFullOnAShortSpanOrTooManyFields) {
  const Record record = make_full_record();
  auto exact = encode_native(record);
  ASSERT_TRUE(exact.is_ok());
  std::vector<std::uint8_t> short_buf(exact.value().size() - 1);
  EXPECT_EQ(encode_native_into(record, short_buf).status().code(), Errc::buffer_full);
  std::vector<std::uint8_t> no_header(kNativeHeaderBytes - 1);
  EXPECT_EQ(encode_native_into(record, no_header).status().code(), Errc::buffer_full);

  Record wide;
  wide.fields.assign(kMaxFieldsPerRecord + 1, Field::i32(1));
  std::array<std::uint8_t, kMaxNativeRecordBytes> buf;
  EXPECT_EQ(encode_native_into(wide, buf).status().code(), Errc::buffer_full);
  EXPECT_EQ(encode_native(wide).status().code(), Errc::buffer_full);
}

TEST(NativeCodecTest, EmptyFieldsRecord) {
  Record record;
  record.sensor = 1;
  record.sequence = 2;
  record.timestamp = 3;
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  EXPECT_EQ(encoded.value().size(), kNativeHeaderBytes);
  auto decoded = decode_native(encoded.value().view());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().fields.empty());
}

TEST(NativeCodecTest, RejectsTruncatedHeader) {
  const std::uint8_t raw[10] = {};
  EXPECT_EQ(decode_native(ByteSpan{raw, 10}).status().code(), Errc::truncated);
}

TEST(NativeCodecTest, RejectsBadTypeTag) {
  Record record;
  record.fields = {Field::i32(1)};
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  std::vector<std::uint8_t> bytes(encoded.value().view().begin(), encoded.value().view().end());
  bytes[kNativeHeaderBytes] = 0xee;  // corrupt the field type
  EXPECT_EQ(decode_native(ByteSpan{bytes.data(), bytes.size()}).status().code(),
            Errc::malformed);
}

TEST(NativeCodecTest, RejectsTruncatedFieldBody) {
  Record record;
  record.fields = {Field::i64(5)};
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  auto view = encoded.value().view();
  EXPECT_EQ(decode_native(view.subspan(0, view.size() - 3)).status().code(), Errc::truncated);
}

TEST(NativeCodecTest, RejectsTrailingGarbage) {
  Record record;
  record.fields = {Field::i32(5)};
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  std::vector<std::uint8_t> bytes(encoded.value().view().begin(), encoded.value().view().end());
  bytes.push_back(0);
  EXPECT_EQ(decode_native(ByteSpan{bytes.data(), bytes.size()}).status().code(),
            Errc::malformed);
}

TEST(NativeCodecTest, PatchTimestampsShiftsHeaderAndTsFields) {
  Record record;
  record.timestamp = 1000;
  record.fields = {Field::i32(7), Field::ts(2000), Field::str("keep"), Field::ts(3000)};
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  std::vector<std::uint8_t> bytes(encoded.value().view().begin(), encoded.value().view().end());
  ASSERT_TRUE(patch_native_timestamps({bytes.data(), bytes.size()}, 500));
  auto decoded = decode_native(ByteSpan{bytes.data(), bytes.size()});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().timestamp, 1500);
  EXPECT_EQ(decoded.value().fields[1].as_timestamp(), 2500);
  EXPECT_EQ(decoded.value().fields[3].as_timestamp(), 3500);
  EXPECT_EQ(decoded.value().fields[0].as_signed(), 7) << "non-ts fields untouched";
  EXPECT_EQ(decoded.value().fields[2].as_string(), "keep");
}

TEST(NativeCodecTest, PatchWithNegativeDelta) {
  Record record;
  record.timestamp = 1000;
  auto encoded = encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  std::vector<std::uint8_t> bytes(encoded.value().view().begin(), encoded.value().view().end());
  ASSERT_TRUE(patch_native_timestamps({bytes.data(), bytes.size()}, -300));
  auto decoded = decode_native(ByteSpan{bytes.data(), bytes.size()});
  EXPECT_EQ(decoded.value().timestamp, 700);
}

// ---- RecordWriter fast path ---------------------------------------------------------

TEST(RecordWriterTest, FailsOnTinyBuffer) {
  std::uint8_t buf[8];
  RecordWriter writer({buf, sizeof buf});
  EXPECT_FALSE(writer.begin(1, 0, 0));
  EXPECT_FALSE(writer.finish().is_ok());
}

TEST(RecordWriterTest, EnforcesFieldLimit) {
  std::uint8_t buf[4096];
  RecordWriter writer({buf, sizeof buf});
  ASSERT_TRUE(writer.begin(1, 0, 0));
  for (std::size_t i = 0; i < kMaxFieldsPerRecord; ++i) {
    ASSERT_TRUE(writer.add_i32(static_cast<std::int32_t>(i)));
  }
  EXPECT_FALSE(writer.add_i32(99)) << "17th field must be rejected";
  EXPECT_FALSE(writer.finish().is_ok()) << "failure is sticky";
}

TEST(RecordWriterTest, RejectsOverlongString) {
  std::uint8_t buf[4096];
  RecordWriter writer({buf, sizeof buf});
  ASSERT_TRUE(writer.begin(1, 0, 0));
  EXPECT_FALSE(writer.add_string(std::string(kMaxStringFieldBytes + 1, 'a')));
}

TEST(RecordWriterTest, MaxLengthStringAccepted) {
  std::uint8_t buf[4096];
  RecordWriter writer({buf, sizeof buf});
  ASSERT_TRUE(writer.begin(1, 0, 0));
  EXPECT_TRUE(writer.add_string(std::string(kMaxStringFieldBytes, 'a')));
  auto bytes = writer.finish();
  ASSERT_TRUE(bytes.is_ok());
  auto decoded = decode_native(bytes.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().fields[0].as_string().size(), kMaxStringFieldBytes);
}

TEST(RecordWriterTest, ReusableAfterFinish) {
  std::uint8_t buf[256];
  RecordWriter writer({buf, sizeof buf});
  ASSERT_TRUE(writer.begin(1, 0, 10));
  ASSERT_TRUE(writer.add_i32(1));
  ASSERT_TRUE(writer.finish().is_ok());
  ASSERT_TRUE(writer.begin(2, 1, 20));
  ASSERT_TRUE(writer.add_i64(2));
  auto bytes = writer.finish();
  ASSERT_TRUE(bytes.is_ok());
  auto decoded = decode_native(bytes.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().sensor, 2u);
  EXPECT_EQ(decoded.value().timestamp, 20);
}

// ---- Sensor / NOTICE macro -----------------------------------------------------------

class SensorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::RingBuffer::region_size(64 * 1024));
    auto ring = shm::RingBuffer::init(memory_.data(), 64 * 1024);
    ASSERT_TRUE(ring.is_ok());
    ring_ = ring.value();
    sensor_ = std::make_unique<Sensor>(ring_, clock_);
  }

  Record pop_record() {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(ring_.try_pop(bytes));
    auto record = decode_native(ByteSpan{bytes.data(), bytes.size()});
    EXPECT_TRUE(record.is_ok()) << record.status().to_string();
    return std::move(record).value();
  }

  test::RingMemory memory_;
  shm::RingBuffer ring_;
  clk::ManualClock clock_{1'000'000};
  std::unique_ptr<Sensor> sensor_;
};

TEST_F(SensorTest, NoticeWritesTimestampedRecord) {
  clock_.set(5'000'000);
  ASSERT_TRUE(BRISK_NOTICE(*sensor_, 42, x_i32(1), x_i32(2)));
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, 42u);
  EXPECT_EQ(record.sequence, 0u);
  EXPECT_EQ(record.timestamp, 5'000'000);
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0], Field::i32(1));
}

TEST_F(SensorTest, SequenceNumbersIncrement) {
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(sensor_->notice(1, x_i32(i)));
  for (SequenceNo i = 0; i < 5; ++i) EXPECT_EQ(pop_record().sequence, i);
}

TEST_F(SensorTest, AllWrapperTypes) {
  ASSERT_TRUE(sensor_->notice(9, x_i8(-1), x_u8(2), x_i16(-3), x_u16(4), x_f32(1.5f),
                              x_str("s"), x_reason(7), x_conseq(8)));
  const Record record = pop_record();
  ASSERT_EQ(record.fields.size(), 8u);
  EXPECT_EQ(record.fields[0], Field::i8(-1));
  EXPECT_EQ(record.fields[4], Field::f32(1.5f));
  EXPECT_EQ(record.fields[5], Field::str("s"));
  EXPECT_EQ(record.reason_id().value_or(0), 7u);
  EXPECT_EQ(record.conseq_id().value_or(0), 8u);
}

TEST_F(SensorTest, EmbeddedTsUsesRecordTimestamp) {
  clock_.set(7'777'777);
  ASSERT_TRUE(sensor_->notice(1, x_ts()));
  const Record record = pop_record();
  EXPECT_EQ(record.fields[0].as_timestamp(), 7'777'777);
}

TEST_F(SensorTest, ExplicitTsValue) {
  ASSERT_TRUE(sensor_->notice(1, x_ts(123'456)));
  EXPECT_EQ(pop_record().fields[0].as_timestamp(), 123'456);
}

TEST_F(SensorTest, DropsCountedWhenRingFull) {
  // Fill the ring with nobody consuming.
  std::uint64_t accepted = 0;
  while (sensor_->notice(1, x_i64(0), x_i64(1), x_i64(2))) ++accepted;
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(sensor_->stats().records_dropped, 1u);
  EXPECT_EQ(sensor_->stats().records_pushed, accepted);
  EXPECT_EQ(sensor_->stats().notices, accepted + 1);
}

TEST_F(SensorTest, NoticeWithNoFields) {
  ASSERT_TRUE(sensor_->notice(5));
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, 5u);
  EXPECT_TRUE(record.fields.empty());
}

TEST_F(SensorTest, PushEncodedBypass) {
  std::uint8_t buf[256];
  RecordWriter writer({buf, sizeof buf});
  ASSERT_TRUE(writer.begin(77, 0, 42));
  ASSERT_TRUE(writer.add_u64(5));
  auto bytes = writer.finish();
  ASSERT_TRUE(bytes.is_ok());
  ASSERT_TRUE(sensor_->push_encoded(bytes.value()));
  const Record record = pop_record();
  EXPECT_EQ(record.sensor, 77u);
  EXPECT_EQ(record.fields[0], Field::u64(5));
}

#ifdef BRISK_DISABLE_NOTICE
#error test must compile with NOTICE enabled
#endif

// ---- SensorRegistry ---------------------------------------------------------------

TEST(SensorRegistryTest, RegisterAndFind) {
  SensorRegistry registry;
  ASSERT_TRUE(registry.register_sensor({1, "alpha", {FieldType::x_i32}, "first"}));
  auto found = registry.find(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->name, "alpha");
  EXPECT_FALSE(registry.find(2).has_value());
  EXPECT_TRUE(registry.find_by_name("alpha").has_value());
  EXPECT_FALSE(registry.find_by_name("beta").has_value());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SensorRegistryTest, IdempotentReRegistration) {
  SensorRegistry registry;
  SensorInfo info{3, "gamma", {FieldType::x_f64}, ""};
  ASSERT_TRUE(registry.register_sensor(info));
  EXPECT_TRUE(registry.register_sensor(info)) << "same definition is fine";
  info.name = "delta";
  EXPECT_EQ(registry.register_sensor(info).code(), Errc::already_exists);
}

TEST(SensorRegistryTest, ValidateSignature) {
  SensorRegistry registry;
  ASSERT_TRUE(
      registry.register_sensor({5, "typed", {FieldType::x_i32, FieldType::x_string}, ""}));
  Record good;
  good.sensor = 5;
  good.fields = {Field::i32(1), Field::str("x")};
  EXPECT_TRUE(registry.validate(good));

  Record wrong_count = good;
  wrong_count.fields.pop_back();
  EXPECT_EQ(registry.validate(wrong_count).code(), Errc::type_mismatch);

  Record wrong_type = good;
  wrong_type.fields[0] = Field::f32(1.0f);
  EXPECT_EQ(registry.validate(wrong_type).code(), Errc::type_mismatch);

  Record unknown;
  unknown.sensor = 999;
  EXPECT_TRUE(registry.validate(unknown)) << "unknown sensors validate trivially";
}

TEST(SensorRegistryTest, EmptySignatureIsDynamic) {
  SensorRegistry registry;
  ASSERT_TRUE(registry.register_sensor({6, "dyn", {}, ""}));
  Record record;
  record.sensor = 6;
  record.fields = {Field::i32(1), Field::f64(2.0)};
  EXPECT_TRUE(registry.validate(record));
}

}  // namespace
}  // namespace brisk::sensors
