// Unit tests for the common substrate: Status/Result, ByteBuffer,
// string utilities, time utilities, logging.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/spsc_queue.hpp"
#include "common/string_util.hpp"
#include "common/time_util.hpp"

namespace brisk {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_TRUE(static_cast<bool>(st));
  EXPECT_EQ(st.code(), Errc::ok);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st(Errc::timeout, "waited 5s");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::timeout);
  EXPECT_EQ(st.message(), "waited 5s");
  EXPECT_EQ(st.to_string(), "timeout: waited 5s");
}

TEST(StatusTest, ToStringWithoutMessage) {
  EXPECT_EQ(Status(Errc::closed).to_string(), "closed");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int raw = 0; raw <= static_cast<int>(Errc::internal); ++raw) {
    EXPECT_STRNE(errc_name(static_cast<Errc>(raw)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Errc::not_found, "gone");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::not_found);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r(7);
  EXPECT_EQ(r.value_or(-1), 7);
}

// ---- ByteBuffer --------------------------------------------------------------

TEST(ByteBufferTest, AppendAndView) {
  ByteBuffer buf;
  const std::uint8_t bytes[] = {1, 2, 3};
  buf.append(ByteSpan{bytes, 3});
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.view()[1], 2);
}

TEST(ByteBufferTest, ReadAdvancesCursor) {
  ByteBuffer buf;
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  buf.append(ByteSpan{bytes, 4});
  std::uint8_t out[2];
  ASSERT_TRUE(buf.read(out, 2));
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(buf.remaining(), 2u);
  ASSERT_TRUE(buf.read(out, 2));
  EXPECT_EQ(out[1], 4);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBufferTest, ReadPastEndIsTruncated) {
  ByteBuffer buf;
  buf.push_back(9);
  std::uint8_t out[4];
  Status st = buf.read(out, 4);
  EXPECT_EQ(st.code(), Errc::truncated);
  EXPECT_EQ(buf.remaining(), 1u) << "failed read must not consume";
}

TEST(ByteBufferTest, ReadViewSharesStorage) {
  ByteBuffer buf;
  const std::uint8_t bytes[] = {5, 6, 7};
  buf.append(ByteSpan{bytes, 3});
  auto view = buf.read_view(2);
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value()[0], 5);
  EXPECT_EQ(buf.remaining(), 1u);
}

TEST(ByteBufferTest, OverwriteInRange) {
  ByteBuffer buf;
  buf.append_zeros(4);
  const std::uint8_t patch[] = {0xaa, 0xbb};
  ASSERT_TRUE(buf.overwrite(1, ByteSpan{patch, 2}));
  EXPECT_EQ(buf.view()[1], 0xaa);
  EXPECT_EQ(buf.view()[2], 0xbb);
  EXPECT_EQ(buf.view()[3], 0x00);
}

TEST(ByteBufferTest, OverwritePastEndFails) {
  ByteBuffer buf;
  buf.append_zeros(2);
  const std::uint8_t patch[] = {1, 2, 3};
  EXPECT_EQ(buf.overwrite(0, ByteSpan{patch, 3}).code(), Errc::out_of_range);
}

TEST(ByteBufferTest, SkipAndSeek) {
  ByteBuffer buf;
  buf.append_zeros(10);
  ASSERT_TRUE(buf.skip(4));
  EXPECT_EQ(buf.read_position(), 4u);
  buf.seek(100);  // clamps
  EXPECT_EQ(buf.read_position(), 10u);
  buf.seek(0);
  EXPECT_EQ(buf.remaining(), 10u);
}

TEST(ByteBufferTest, ClearResetsCursor) {
  ByteBuffer buf;
  buf.append_zeros(5);
  ASSERT_TRUE(buf.skip(3));
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.read_position(), 0u);
}

TEST(ByteBufferTest, HexDump) {
  ByteBuffer buf;
  buf.push_back(0x0f);
  buf.push_back(0xa0);
  EXPECT_EQ(buf.hex(), "0fa0");
}

TEST(ByteBufferTest, TakeMovesStorage) {
  ByteBuffer buf;
  buf.push_back(1);
  auto vec = std::move(buf).take();
  EXPECT_EQ(vec.size(), 1u);
}

// ---- string_util --------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyTokens) {
  auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> items{"one", "two", "three"};
  EXPECT_EQ(join(items, "-"), "one-two-three");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(parse_int("42").value_or(0), 42);
  EXPECT_EQ(parse_int("-7").value_or(0), -7);
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4 2").has_value());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value_or(0), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value_or(0), -1000.0);
  EXPECT_FALSE(parse_double("3.5z").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(StringUtilTest, EscapeRoundTrip) {
  const std::string original = "line1\nline2\t\"quoted\" back\\slash \x01";
  const std::string escaped = escape_ascii(original);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  auto back = unescape_ascii(escaped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, original);
}

TEST(StringUtilTest, EscapeControlCharsAsHex) {
  EXPECT_EQ(escape_ascii(std::string(1, '\x02')), "\\x02");
  EXPECT_EQ(escape_ascii(std::string(1, '\x7f')), "\\x7f");
}

TEST(StringUtilTest, UnescapeRejectsMalformed) {
  EXPECT_FALSE(unescape_ascii("bad\\").has_value());
  EXPECT_FALSE(unescape_ascii("\\q").has_value());
  EXPECT_FALSE(unescape_ascii("\\x1").has_value());
  EXPECT_FALSE(unescape_ascii("\\xzz").has_value());
}

// ---- time_util ----------------------------------------------------------------

TEST(TimeUtilTest, WallClockLooksLikeRecentUtc) {
  const TimeMicros t = wall_time_micros();
  // After 2020-01-01 and before 2100-01-01 (in microseconds).
  EXPECT_GT(t, 1'577'836'800'000'000LL);
  EXPECT_LT(t, 4'102'444'800'000'000LL);
}

TEST(TimeUtilTest, MonotonicNeverDecreases) {
  TimeMicros prev = monotonic_micros();
  for (int i = 0; i < 1000; ++i) {
    const TimeMicros now = monotonic_micros();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(TimeUtilTest, SleepAdvancesMonotonic) {
  const TimeMicros before = monotonic_micros();
  sleep_micros(2'000);
  EXPECT_GE(monotonic_micros() - before, 1'500);
}

TEST(TimeUtilTest, CpuClockAdvancesUnderWork) {
  const TimeMicros before = thread_cpu_micros();
  double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink += static_cast<double>(i) * 0.5;
  // Keep the loop observable so the optimizer cannot delete it.
  ASSERT_GT(sink, 0.0);
  EXPECT_GT(thread_cpu_micros(), before);
}

TEST(TimeUtilTest, FormatMicros) {
  EXPECT_EQ(format_micros(1'500'000), "1.500000");
  EXPECT_EQ(format_micros(0), "0.000000");
  EXPECT_EQ(format_micros(-2'000'001), "-2.000001");
}

// ---- logging -------------------------------------------------------------------

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logging::set_level(LogLevel::debug);
    Logging::set_sink([this](LogLevel level, const std::string& message) {
      captured_.emplace_back(level, message);
    });
  }
  void TearDown() override {
    Logging::set_sink(nullptr);
    Logging::set_level(LogLevel::warn);
  }
  std::vector<std::pair<LogLevel, std::string>> captured_;
};

TEST_F(LoggingTest, EmitsThroughSink) {
  BRISK_LOG_INFO << "hello " << 42;
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first, LogLevel::info);
  EXPECT_EQ(captured_[0].second, "hello 42");
}

TEST_F(LoggingTest, LevelFiltersBelowThreshold) {
  Logging::set_level(LogLevel::error);
  BRISK_LOG_DEBUG << "nope";
  BRISK_LOG_WARN << "nope";
  BRISK_LOG_ERROR << "yes";
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].second, "yes");
}

TEST_F(LoggingTest, OffSilencesEverything) {
  Logging::set_level(LogLevel::off);
  BRISK_LOG_ERROR << "nope";
  EXPECT_TRUE(captured_.empty());
}

TEST(LogLevelTest, Names) {
  EXPECT_STREQ(log_level_name(LogLevel::debug), "debug");
  EXPECT_STREQ(log_level_name(LogLevel::error), "error");
}

// ---- SPSC queue -----------------------------------------------------------------------

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> queue(5);
  EXPECT_EQ(queue.capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
}

TEST(SpscQueueTest, CapacityPastLargestPowerOfTwoThrows) {
  // A wrapped negative size (SIZE_MAX) once spun forever doubling toward it.
  EXPECT_THROW(SpscQueue<int>(SIZE_MAX), std::length_error);
  EXPECT_THROW(SpscQueue<int>((SIZE_MAX >> 1) + 2), std::length_error);
}

TEST(SpscQueueTest, PushPopRoundTrip) {
  SpscQueue<int> queue(4);
  EXPECT_TRUE(queue.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(int(i)));
  EXPECT_FALSE(queue.try_push(99)) << "queue is full";
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(queue.try_pop(out)) << "queue is empty";
}

TEST(SpscQueueTest, MoveOnlyPayloads) {
  SpscQueue<std::unique_ptr<int>> queue(2);
  EXPECT_TRUE(queue.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(SpscQueueTest, ConcurrentProducerConsumerPreservesOrder) {
  SpscQueue<std::uint32_t> queue(64);
  constexpr std::uint32_t kCount = 20'000;
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kCount;) {
      if (queue.try_push(std::uint32_t(i))) ++i;
    }
  });
  std::uint32_t expected = 0;
  while (expected < kCount) {
    std::uint32_t out = 0;
    if (!queue.try_pop(out)) continue;
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueueTest, BulkPushPopAcrossTheWrapAround) {
  SpscQueue<int> queue(8);
  std::vector<int> out;
  // Move both cursors to 6, so the next chunks straddle the end of the slots.
  std::vector<int> first{0, 1, 2, 3, 4, 5};
  ASSERT_EQ(queue.try_push_n(std::span<int>(first)), 6u);
  ASSERT_EQ(queue.try_pop_n(out, 6), 6u);
  out.clear();
  std::vector<int> values{10, 11, 12, 13, 14, 15, 16};
  ASSERT_EQ(queue.try_push_n(std::span<int>(values)), 7u);
  EXPECT_EQ(queue.size(), 7u);
  EXPECT_EQ(queue.try_pop_n(out, 3), 3u);
  EXPECT_EQ(queue.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12, 13, 14, 15, 16}));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueueTest, BulkPushIntoANearlyFullLaneMovesWhatFits) {
  SpscQueue<std::unique_ptr<int>> queue(4);
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(0)));
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(1)));
  std::vector<std::unique_ptr<int>> values;
  for (int i = 2; i < 6; ++i) values.push_back(std::make_unique<int>(i));
  EXPECT_EQ(queue.try_push_n(std::span(values)), 2u) << "two free slots";
  EXPECT_EQ(values[0], nullptr);
  EXPECT_EQ(values[1], nullptr);
  ASSERT_NE(values[2], nullptr) << "what did not fit is untouched";
  EXPECT_EQ(*values[2], 4);
  EXPECT_EQ(queue.try_push_n(std::span(values).subspan(2)), 0u) << "full";
  std::vector<std::unique_ptr<int>> out;
  ASSERT_EQ(queue.try_pop_n(out, 1), 1u);
  EXPECT_EQ(queue.try_push_n(std::span(values).subspan(2)), 1u)
      << "the producer sees the freed slot once its cached copy says full";
  ASSERT_EQ(queue.try_pop_n(out, 4), 4u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*out[std::size_t(i)], i);
}

TEST(SpscQueueTest, BulkPopAskingForMoreThanTheLaneHolds) {
  SpscQueue<int> queue(16);
  std::vector<int> out{-1};
  EXPECT_EQ(queue.try_pop_n(out, 8), 0u) << "empty";
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.try_push(int(i)));
  EXPECT_EQ(queue.try_pop_n(out, 100), 3u);
  EXPECT_EQ(out, (std::vector<int>{-1, 0, 1, 2})) << "appended behind what was there";
  EXPECT_EQ(queue.try_pop_n(out, 100), 0u);
  ASSERT_TRUE(queue.try_push(7));
  int single = 0;
  ASSERT_TRUE(queue.try_pop(single)) << "the consumer sees a push made after it found empty";
  EXPECT_EQ(single, 7);
}

// Two threads, a small lane and chunk sizes that never line up with the
// capacity: every element arrives once, in order.
TEST(SpscQueueTest, ConcurrentBulkProducerConsumerPreservesOrder) {
  constexpr std::uint64_t kCount = 200'000;
  SpscQueue<std::uint64_t> queue(16);
  std::thread producer([&] {
    std::vector<std::uint64_t> chunk;
    std::uint64_t next = 0;
    std::size_t want = 1;
    while (next < kCount) {
      chunk.clear();
      for (std::size_t i = 0; i < want && next + i < kCount; ++i) chunk.push_back(next + i);
      std::size_t pushed = 0;
      while (pushed < chunk.size()) {
        const std::size_t n = queue.try_push_n(std::span(chunk).subspan(pushed));
        if (n == 0) std::this_thread::yield();
        pushed += n;
      }
      next += chunk.size();
      want = want % 23 + 1;
    }
  });
  std::vector<std::uint64_t> out;
  std::uint64_t expected = 0;
  std::uint64_t misordered = 0;
  std::size_t want = 1;
  while (expected < kCount) {
    out.clear();
    if (queue.try_pop_n(out, want) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t value : out) {
      if (value != expected) ++misordered;
      ++expected;
    }
    want = want % 19 + 1;
  }
  producer.join();
  EXPECT_EQ(misordered, 0u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace brisk
