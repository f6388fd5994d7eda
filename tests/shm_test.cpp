// Shared-memory substrate tests: SharedRegion lifetimes, RingBuffer SPSC
// semantics (header layout, wrap handling, drop-new overflow, cached peer
// cursors across handles, staged runs, concurrent producer/consumer,
// cross-fork visibility), MultiRing slot discipline.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <thread>

#include "ring_memory.hpp"
#include "shm/multi_ring.hpp"
#include "shm/ring_buffer.hpp"
#include "shm/shared_region.hpp"

namespace brisk::shm {
namespace {

std::vector<std::uint8_t> make_record(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

ByteSpan span_of(const std::vector<std::uint8_t>& v) { return {v.data(), v.size()}; }

// ---- SharedRegion ---------------------------------------------------------------

TEST(SharedRegionTest, AnonymousIsZeroed) {
  auto region = SharedRegion::create_anonymous(4096);
  ASSERT_TRUE(region.is_ok()) << region.status().to_string();
  const auto* bytes = static_cast<const std::uint8_t*>(region.value().data());
  EXPECT_EQ(std::accumulate(bytes, bytes + 4096, 0), 0);
  EXPECT_EQ(region.value().size(), 4096u);
}

TEST(SharedRegionTest, ZeroSizeRejected) {
  EXPECT_EQ(SharedRegion::create_anonymous(0).status().code(), Errc::invalid_argument);
}

TEST(SharedRegionTest, NamedCreateOpenUnlink) {
  const std::string name = "/brisk-test-" + std::to_string(::getpid());
  auto created = SharedRegion::create_named(name, 8192);
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  static_cast<std::uint8_t*>(created.value().data())[100] = 0x5a;

  auto opened = SharedRegion::open_named(name);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().size(), 8192u);
  EXPECT_EQ(static_cast<std::uint8_t*>(opened.value().data())[100], 0x5a);

  ASSERT_TRUE(created.value().unlink());
  EXPECT_EQ(SharedRegion::open_named(name).status().code(), Errc::not_found);
}

TEST(SharedRegionTest, DuplicateNamedCreateFails) {
  const std::string name = "/brisk-test-dup-" + std::to_string(::getpid());
  auto first = SharedRegion::create_named(name, 4096);
  ASSERT_TRUE(first.is_ok());
  auto second = SharedRegion::create_named(name, 4096);
  EXPECT_EQ(second.status().code(), Errc::already_exists);
  ASSERT_TRUE(first.value().unlink());
}

TEST(SharedRegionTest, BadNameRejected) {
  EXPECT_EQ(SharedRegion::create_named("no-slash", 4096).status().code(),
            Errc::invalid_argument);
  EXPECT_EQ(SharedRegion::open_named("").status().code(), Errc::invalid_argument);
}

TEST(SharedRegionTest, MoveTransfersOwnership) {
  auto region = SharedRegion::create_anonymous(4096);
  ASSERT_TRUE(region.is_ok());
  void* data = region.value().data();
  SharedRegion moved = std::move(region.value());
  EXPECT_EQ(moved.data(), data);
}

// ---- RingBuffer ------------------------------------------------------------------

// Each side's cursor and counters share one cache line that the other side
// writes nothing to.
constexpr std::size_t line_of(std::size_t offset) { return offset / 64; }
using Header = RingBuffer::Header;
static_assert(offsetof(Header, tail) - offsetof(Header, head) == 64,
              "head and tail sit one cache line apart");
static_assert(offsetof(Header, head) % 64 == 0 && offsetof(Header, tail) % 64 == 0);
static_assert(line_of(offsetof(Header, pushed)) == line_of(offsetof(Header, head)) &&
                  line_of(offsetof(Header, bytes_pushed)) == line_of(offsetof(Header, head)) &&
                  line_of(offsetof(Header, dropped)) == line_of(offsetof(Header, head)),
              "the producer's counters sit on the producer's line");
static_assert(line_of(offsetof(Header, popped)) == line_of(offsetof(Header, tail)),
              "the consumer's counter sits on the consumer's line");
static_assert(line_of(offsetof(Header, capacity)) != line_of(offsetof(Header, head)),
              "the read-only words share no line with a cursor");

class RingBufferTest : public ::testing::Test {
 protected:
  void make_ring(std::size_t capacity) {
    memory_.resize(RingBuffer::region_size(capacity));
    auto ring = RingBuffer::init(memory_.data(), capacity);
    ASSERT_TRUE(ring.is_ok()) << ring.status().to_string();
    ring_ = ring.value();
  }
  test::RingMemory memory_;
  RingBuffer ring_;
};

TEST_F(RingBufferTest, PushPopSingle) {
  make_ring(1024);
  auto record = make_record(10, 0xab);
  ASSERT_TRUE(ring_.try_push(span_of(record)));
  EXPECT_FALSE(ring_.empty());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring_.try_pop(out));
  EXPECT_EQ(out, record);
  EXPECT_TRUE(ring_.empty());
}

TEST_F(RingBufferTest, PopOnEmptyReturnsFalse) {
  make_ring(256);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(ring_.try_pop(out));
  EXPECT_TRUE(out.empty());
}

TEST_F(RingBufferTest, FifoOrderPreserved) {
  make_ring(4096);
  for (std::uint8_t i = 0; i < 50; ++i) {
    auto record = make_record(8 + i % 16, i);
    ASSERT_TRUE(ring_.try_push(span_of(record)));
  }
  for (std::uint8_t i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring_.try_pop(out));
    EXPECT_EQ(out.size(), 8u + i % 16);
    EXPECT_EQ(out[0], i);
  }
  EXPECT_TRUE(ring_.empty());
}

TEST_F(RingBufferTest, DropsWhenFullAndCounts) {
  make_ring(128);
  auto record = make_record(40, 1);
  int pushed = 0;
  while (ring_.try_push(span_of(record))) ++pushed;
  EXPECT_GT(pushed, 0);
  EXPECT_EQ(ring_.stats().dropped, 1u);
  EXPECT_FALSE(ring_.try_push(span_of(record)));
  EXPECT_EQ(ring_.stats().dropped, 2u);
}

TEST_F(RingBufferTest, SpaceReclaimedAfterPop) {
  make_ring(128);
  auto record = make_record(40, 2);
  while (ring_.try_push(span_of(record))) {
  }
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring_.try_pop(out));
  EXPECT_TRUE(ring_.try_push(span_of(record))) << "popped space must be reusable";
}

TEST_F(RingBufferTest, OversizedRecordRejected) {
  make_ring(256);
  auto record = make_record(200, 3);  // > capacity/2
  EXPECT_FALSE(ring_.try_push(span_of(record)));
  EXPECT_EQ(ring_.stats().dropped, 1u);
  EXPECT_TRUE(ring_.empty());
}

TEST_F(RingBufferTest, ZeroLengthRecordSupported) {
  make_ring(256);
  ASSERT_TRUE(ring_.try_push(ByteSpan{}));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring_.try_pop(out));
  EXPECT_TRUE(out.empty());
}

TEST_F(RingBufferTest, WrapAroundManyTimes) {
  // Capacity forces wraps with records that do not divide it evenly; pop to
  // make room whenever a push is rejected, and verify strict FIFO fills.
  make_ring(230);
  std::uint8_t next_push = 0;
  std::uint8_t next_pop = 0;
  std::vector<std::uint8_t> out;
  for (int round = 0; round < 500; ++round) {
    auto record = make_record(17 + round % 29, next_push);
    while (!ring_.try_push(span_of(record))) {
      out.clear();
      ASSERT_TRUE(ring_.try_pop(out));
      EXPECT_EQ(out[0], next_pop);
      ++next_pop;
    }
    ++next_push;
  }
  out.clear();
  while (ring_.try_pop(out)) {
    EXPECT_EQ(out[0], next_pop);
    ++next_pop;
    out.clear();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST_F(RingBufferTest, NextRecordSizePeeks) {
  make_ring(512);
  EXPECT_EQ(ring_.next_record_size(), 0u);
  auto record = make_record(33, 9);
  ASSERT_TRUE(ring_.try_push(span_of(record)));
  EXPECT_EQ(ring_.next_record_size(), 33u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring_.try_pop(out));
  EXPECT_EQ(ring_.next_record_size(), 0u);
}

TEST_F(RingBufferTest, StatsAccumulate) {
  make_ring(4096);
  auto record = make_record(16, 0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring_.try_push(span_of(record)));
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring_.try_pop(out));
  const RingStats stats = ring_.stats();
  EXPECT_EQ(stats.pushed, 10u);
  EXPECT_EQ(stats.popped, 4u);
  EXPECT_EQ(stats.bytes_pushed, 160u);
}

TEST_F(RingBufferTest, AttachValidatesMagic) {
  make_ring(256);
  std::vector<std::uint8_t> garbage(RingBuffer::region_size(256), 0x77);
  EXPECT_EQ(RingBuffer::attach(garbage.data(), garbage.size()).status().code(),
            Errc::malformed);
  EXPECT_TRUE(RingBuffer::attach(memory_.data(), memory_.size()).is_ok());
}

TEST_F(RingBufferTest, AttachRejectsTruncatedRegion) {
  make_ring(256);
  EXPECT_EQ(RingBuffer::attach(memory_.data(), sizeof(RingBuffer::Header) - 1).status().code(),
            Errc::malformed);
  EXPECT_EQ(RingBuffer::attach(memory_.data(), sizeof(RingBuffer::Header) + 10).status().code(),
            Errc::malformed);
}

TEST_F(RingBufferTest, InitRejectsTinyCapacity) {
  test::RingMemory mem(RingBuffer::region_size(16));
  EXPECT_EQ(RingBuffer::init(mem.data(), 16).status().code(), Errc::invalid_argument);
}

// The header of the build before the per-side lines ("BRISKRNG"): a ring
// formatted by it must not attach.
TEST_F(RingBufferTest, AttachRejectsThePreviousHeaderMagic) {
  make_ring(256);
  constexpr std::uint64_t kPreviousMagic = 0x425249534b524e47ULL;
  std::memcpy(memory_.data(), &kPreviousMagic, sizeof kPreviousMagic);
  EXPECT_EQ(RingBuffer::attach(memory_.data(), memory_.size()).status().code(),
            Errc::malformed);
}

/// A record that names its own sequence number: a u32 sequence, then a
/// length and filler bytes that both follow from it.
std::vector<std::uint8_t> sequenced_record(std::uint32_t seq) {
  std::vector<std::uint8_t> record(sizeof seq + seq % 37, static_cast<std::uint8_t>(seq * 7));
  std::memcpy(record.data(), &seq, sizeof seq);
  return record;
}

/// Whether `out` is exactly sequenced_record(seq).
bool is_sequenced_record(const std::vector<std::uint8_t>& out, std::uint32_t seq) {
  return out == sequenced_record(seq);
}

/// Several handles over one ring, as the EXS, the sensors and the sinks
/// hold them: each keeps its own copy of the peer cursor.
class RingBufferHandlesTest : public RingBufferTest {
 protected:
  RingBuffer handle() {
    auto ring = RingBuffer::attach(memory_.data(), memory_.size());
    EXPECT_TRUE(ring.is_ok());
    return ring.value();
  }
  bool push(RingBuffer& ring) {
    if (!ring.try_push(span_of(sequenced_record(next_push_)))) return false;
    ++next_push_;
    return true;
  }
  bool pop(RingBuffer& ring) {
    out_.clear();
    if (!ring.try_pop(out_)) return false;
    EXPECT_TRUE(is_sequenced_record(out_, next_pop_)) << "record " << next_pop_;
    ++next_pop_;
    return true;
  }
  std::uint32_t next_push_ = 0;
  std::uint32_t next_pop_ = 0;
  std::vector<std::uint8_t> out_;
};

TEST_F(RingBufferHandlesTest, TwoHandlesPerSideTakeTurnsThroughManyWraps) {
  make_ring(256);
  RingBuffer producers[] = {handle(), handle()};
  RingBuffer consumers[] = {handle(), handle()};
  for (int round = 0; round < 4000; ++round) {
    RingBuffer& producer = producers[(round / 3) % 2];
    RingBuffer& consumer = consumers[(round / 5) % 2];
    for (int i = 0; i <= round % 7 && push(producer); ++i) {
    }
    for (int i = 0; i <= round % 6 && pop(consumer); ++i) {
    }
  }
  while (pop(consumers[next_pop_ % 2])) {
  }
  EXPECT_EQ(next_pop_, next_push_);
  EXPECT_GT(ring_.stats().bytes_pushed, 200u * 256) << "the records must wrap many times";
  EXPECT_EQ(ring_.stats().popped, next_pop_);
}

// A producer handle idle while another pushed and the consumer popped for
// many laps holds a copy of tail more than a capacity behind head. On a full
// ring it must reload and refuse, not overwrite unread records.
TEST_F(RingBufferHandlesTest, ProducerCacheAFullLapBehindReloads) {
  make_ring(256);
  RingBuffer stale = handle();
  RingBuffer producer = handle();
  RingBuffer consumer = handle();
  ASSERT_TRUE(push(stale));
  ASSERT_TRUE(pop(consumer));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(push(producer));
    ASSERT_TRUE(pop(consumer));
  }
  while (push(producer)) {
  }
  const std::uint64_t dropped = ring_.stats().dropped;
  ASSERT_FALSE(push(stale)) << "the ring is full";
  EXPECT_EQ(ring_.stats().dropped, dropped + 1);
  while (pop(consumer)) {
  }
  EXPECT_EQ(next_pop_, next_push_);
  EXPECT_TRUE(push(stale)) << "after the drain the stale handle has room again";
  EXPECT_TRUE(pop(consumer));
}

// A consumer handle whose copy of head another consumer handle has popped
// past must reload, not read beyond head.
TEST_F(RingBufferHandlesTest, ConsumerCacheOvertakenByAnotherHandleReloads) {
  make_ring(256);
  RingBuffer producer = handle();
  RingBuffer stale = handle();
  RingBuffer consumer = handle();
  ASSERT_TRUE(push(producer));
  ASSERT_TRUE(pop(stale));  // its copy of head now equals the shared tail
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(push(producer));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pop(consumer));
  ASSERT_FALSE(pop(consumer)) << "the ring is empty";
  ASSERT_FALSE(pop(stale)) << "the ring is empty";
  EXPECT_EQ(ring_.stats().popped, next_pop_);
  ASSERT_TRUE(push(producer));
  EXPECT_TRUE(pop(stale));
}

// stage() writes behind head; publish() makes the run visible at once and
// moves each counter once.
TEST_F(RingBufferTest, StagedRunStaysInvisibleUntilPublished) {
  make_ring(1024);
  auto consumer = RingBuffer::attach(memory_.data(), memory_.size());
  ASSERT_TRUE(consumer.is_ok());
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(ring_.stage(span_of(sequenced_record(seq))));
  }
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(consumer.value().empty());
  EXPECT_FALSE(consumer.value().try_pop(out));
  EXPECT_EQ(ring_.stats().pushed, 0u);
  EXPECT_EQ(ring_.stats().bytes_pushed, 0u);

  ring_.publish();
  const RingStats stats = ring_.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.bytes_pushed, 3 * 4u + 0 + 1 + 2);
  EXPECT_EQ(stats.dropped, 0u);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    out.clear();
    ASSERT_TRUE(consumer.value().try_pop(out));
    EXPECT_TRUE(is_sequenced_record(out, seq));
  }
  ring_.publish();  // nothing staged: nothing moves
  EXPECT_EQ(ring_.stats().pushed, 3u);
  EXPECT_TRUE(consumer.value().empty());
}

// A record the ring refuses mid-run leaves the records staged before it in
// place; the next publish() shows them and counts the drop.
TEST_F(RingBufferTest, RefusalMidRunStillPublishesTheRecordsBeforeIt) {
  make_ring(128);
  const auto big = make_record(40, 0xb1);    // 44 ring bytes
  const auto small = make_record(10, 0x5a);  // 14 ring bytes
  ASSERT_TRUE(ring_.stage(span_of(big)));
  ASSERT_TRUE(ring_.stage(span_of(big)));
  EXPECT_FALSE(ring_.stage(span_of(big))) << "40 bytes left before the end, nothing after it";
  EXPECT_TRUE(ring_.stage(span_of(small))) << "a shorter record still fits";
  EXPECT_EQ(ring_.stats().dropped, 0u) << "the drop is counted at publish()";
  ring_.publish();
  const RingStats stats = ring_.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.bytes_pushed, 90u);
  EXPECT_EQ(stats.dropped, 1u);
  std::vector<std::uint8_t> out;
  for (const auto* expected : {&big, &big, &small}) {
    out.clear();
    ASSERT_TRUE(ring_.try_pop(out));
    EXPECT_EQ(out, *expected);
  }
  EXPECT_FALSE(ring_.try_pop(out));
}

// Stress: one producer and one consumer thread over a small ring. Records of
// varying length wrap the ring many times; the producer alternates single
// pushes with staged runs, and both sides yield when the ring is full or
// empty. Every record arrives once, in order, byte for byte.
TEST_F(RingBufferTest, ConcurrentProducerConsumer) {
  make_ring(1024);
  constexpr std::uint32_t kRecords = 200'000;
  auto consumer_ring = RingBuffer::attach(memory_.data(), memory_.size());
  ASSERT_TRUE(consumer_ring.is_ok());
  std::uint64_t refusals = 0;

  std::thread producer([&] {
    std::uint32_t seq = 0;
    while (seq < kRecords) {
      if (seq / 64 % 2 == 0) {
        if (ring_.try_push(span_of(sequenced_record(seq)))) {
          ++seq;
        } else {
          ++refusals;
          std::this_thread::yield();
        }
        continue;
      }
      // A staged run of up to 8 records, published once; a refusal ends it.
      const std::uint32_t end = std::min(seq + 8, kRecords);
      while (seq < end && ring_.stage(span_of(sequenced_record(seq)))) ++seq;
      const bool refused = seq < end;
      ring_.publish();
      if (refused) {
        ++refusals;
        std::this_thread::yield();
      }
    }
  });

  std::uint32_t expected = 0;
  std::uint32_t mismatches = 0;
  std::vector<std::uint8_t> out;
  while (expected < kRecords) {
    out.clear();
    if (!consumer_ring.value().try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    if (!is_sequenced_record(out, expected)) ++mismatches;
    ++expected;
  }
  producer.join();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_FALSE(consumer_ring.value().try_pop(out));
  const RingStats stats = ring_.stats();
  EXPECT_EQ(stats.pushed, kRecords);
  EXPECT_EQ(stats.popped, kRecords);
  EXPECT_EQ(stats.dropped, refusals);
  EXPECT_GT(stats.bytes_pushed, 1000u * 1024) << "the records must wrap many times";
}

TEST(RingBufferForkTest, CrossProcessTransfer) {
  auto region = SharedRegion::create_anonymous(RingBuffer::region_size(64 * 1024));
  ASSERT_TRUE(region.is_ok());
  auto ring = RingBuffer::init(region.value().data(), 64 * 1024);
  ASSERT_TRUE(ring.is_ok());
  constexpr int kRecords = 5000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: producer.
    auto child_ring = RingBuffer::attach(region.value().data(), region.value().size());
    if (!child_ring.is_ok()) _exit(10);
    for (int i = 0; i < kRecords; ++i) {
      std::uint8_t payload[8];
      std::memcpy(payload, &i, 4);
      std::memcpy(payload + 4, &i, 4);
      while (!child_ring.value().try_push(ByteSpan{payload, 8})) {
        // ring full: spin until the parent consumes
      }
    }
    _exit(0);
  }

  // Parent: consumer.
  std::vector<std::uint8_t> out;
  int expected = 0;
  while (expected < kRecords) {
    out.clear();
    if (!ring.value().try_pop(out)) continue;
    int a = 0;
    int b = 0;
    ASSERT_EQ(out.size(), 8u);
    std::memcpy(&a, out.data(), 4);
    std::memcpy(&b, out.data() + 4, 4);
    EXPECT_EQ(a, expected);
    EXPECT_EQ(b, expected);
    ++expected;
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- parameterized: every record size against every ring capacity ---------------

struct RingSweepParam {
  std::size_t capacity;
  std::size_t record_size;
};

class RingSweep : public ::testing::TestWithParam<RingSweepParam> {};

TEST_P(RingSweep, FillDrainTwiceKeepsIntegrity) {
  const auto [capacity, record_size] = GetParam();
  test::RingMemory memory(RingBuffer::region_size(capacity));
  auto ring = RingBuffer::init(memory.data(), capacity);
  ASSERT_TRUE(ring.is_ok());

  for (int round = 0; round < 2; ++round) {
    std::uint8_t fill = 0;
    std::uint64_t pushed = 0;
    while (true) {
      auto record = make_record(record_size, fill);
      if (!ring.value().try_push(span_of(record))) break;
      ++pushed;
      ++fill;
    }
    ASSERT_GT(pushed, 0u);
    std::vector<std::uint8_t> out;
    std::uint8_t expected = 0;
    std::uint64_t popped = 0;
    while (ring.value().try_pop(out)) {
      ASSERT_EQ(out.size(), record_size);
      if (record_size > 0) {
        EXPECT_EQ(out[0], expected);
      }
      ++expected;
      ++popped;
      out.clear();
    }
    EXPECT_EQ(popped, pushed);
    EXPECT_TRUE(ring.value().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RingSweep,
    ::testing::Values(RingSweepParam{128, 1}, RingSweepParam{128, 7}, RingSweepParam{128, 16},
                      RingSweepParam{256, 40}, RingSweepParam{1024, 40},
                      RingSweepParam{1024, 100}, RingSweepParam{4096, 333},
                      RingSweepParam{65536, 1000}, RingSweepParam{128, 0},
                      RingSweepParam{100, 13}),
    [](const ::testing::TestParamInfo<RingSweepParam>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_rec" +
             std::to_string(info.param.record_size);
    });

// ---- MultiRing -------------------------------------------------------------------

TEST(MultiRingTest, ClaimSlotsUntilExhausted) {
  test::RingMemory memory(MultiRing::region_size(3, 256));
  auto rings = MultiRing::init(memory.data(), 3, 256);
  ASSERT_TRUE(rings.is_ok());
  EXPECT_EQ(rings.value().claimed_slots(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(rings.value().claim_slot().is_ok());
  }
  EXPECT_EQ(rings.value().claimed_slots(), 3u);
  EXPECT_EQ(rings.value().claim_slot().status().code(), Errc::buffer_full);
}

TEST(MultiRingTest, SlotsAreIndependent) {
  test::RingMemory memory(MultiRing::region_size(2, 512));
  auto rings = MultiRing::init(memory.data(), 2, 512);
  ASSERT_TRUE(rings.is_ok());
  auto ring0 = rings.value().claim_slot();
  auto ring1 = rings.value().claim_slot();
  ASSERT_TRUE(ring0.is_ok());
  ASSERT_TRUE(ring1.is_ok());

  auto record_a = make_record(8, 0xaa);
  auto record_b = make_record(8, 0xbb);
  ASSERT_TRUE(ring0.value().try_push(span_of(record_a)));
  ASSERT_TRUE(ring1.value().try_push(span_of(record_b)));

  std::vector<std::uint8_t> out;
  auto consumer0 = rings.value().slot(0);
  ASSERT_TRUE(consumer0.is_ok());
  ASSERT_TRUE(consumer0.value().try_pop(out));
  EXPECT_EQ(out[0], 0xaa);
  out.clear();
  auto consumer1 = rings.value().slot(1);
  ASSERT_TRUE(consumer1.is_ok());
  ASSERT_TRUE(consumer1.value().try_pop(out));
  EXPECT_EQ(out[0], 0xbb);
}

TEST(MultiRingTest, SlotOutOfRangeRejected) {
  test::RingMemory memory(MultiRing::region_size(2, 256));
  auto rings = MultiRing::init(memory.data(), 2, 256);
  ASSERT_TRUE(rings.is_ok());
  EXPECT_EQ(rings.value().slot(0).status().code(), Errc::out_of_range)
      << "unclaimed slot must not be readable";
  ASSERT_TRUE(rings.value().claim_slot().is_ok());
  EXPECT_TRUE(rings.value().slot(0).is_ok());
  EXPECT_EQ(rings.value().slot(1).status().code(), Errc::out_of_range);
}

TEST(MultiRingTest, AttachSeesClaims) {
  test::RingMemory memory(MultiRing::region_size(4, 256));
  auto rings = MultiRing::init(memory.data(), 4, 256);
  ASSERT_TRUE(rings.is_ok());
  ASSERT_TRUE(rings.value().claim_slot().is_ok());

  auto attached = MultiRing::attach(memory.data(), memory.size());
  ASSERT_TRUE(attached.is_ok());
  EXPECT_EQ(attached.value().claimed_slots(), 1u);
  EXPECT_EQ(attached.value().slot_count(), 4u);
  EXPECT_EQ(attached.value().ring_capacity(), 256u);
}

TEST(MultiRingTest, AttachValidates) {
  std::vector<std::uint8_t> garbage(1024, 0x13);
  EXPECT_EQ(MultiRing::attach(garbage.data(), garbage.size()).status().code(), Errc::malformed);
  EXPECT_EQ(MultiRing::attach(garbage.data(), 4).status().code(), Errc::malformed);
}

// The directory of the build before the per-side ring lines ("BRISKDR2"),
// whose slot stride differs: it must not attach.
TEST(MultiRingTest, AttachRejectsThePreviousDirectoryMagic) {
  test::RingMemory memory(MultiRing::region_size(2, 256));
  ASSERT_TRUE(MultiRing::init(memory.data(), 2, 256).is_ok());
  constexpr std::uint64_t kPreviousMagic = 0x425249534b445232ULL;
  std::memcpy(memory.data(), &kPreviousMagic, sizeof kPreviousMagic);
  EXPECT_EQ(MultiRing::attach(memory.data(), memory.size()).status().code(), Errc::malformed);
}

TEST(MultiRingTest, TotalStatsAggregates) {
  test::RingMemory memory(MultiRing::region_size(2, 512));
  auto rings = MultiRing::init(memory.data(), 2, 512);
  ASSERT_TRUE(rings.is_ok());
  auto ring0 = rings.value().claim_slot();
  auto ring1 = rings.value().claim_slot();
  auto record = make_record(10, 1);
  ASSERT_TRUE(ring0.value().try_push(span_of(record)));
  ASSERT_TRUE(ring0.value().try_push(span_of(record)));
  ASSERT_TRUE(ring1.value().try_push(span_of(record)));
  const RingStats stats = rings.value().total_stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.bytes_pushed, 30u);
}

// A slot ring's header keeps its cursors on their own cache lines, so every
// slot must start on one, also for a ring capacity that is not a multiple of
// 64 (the EXS's --ring-bytes takes any value from 1024).
TEST(MultiRingTest, EverySlotRingStartsOnACacheLine) {
  constexpr std::uint32_t kSlots = 3;
  constexpr std::uint32_t kCapacity = 1000;
  test::RingMemory memory(MultiRing::region_size(kSlots, kCapacity));
  ASSERT_TRUE(MultiRing::init(memory.data(), kSlots, kCapacity).is_ok());
  std::size_t rings_found = 0;
  for (std::size_t offset = 0; offset + sizeof(std::uint64_t) <= memory.size(); offset += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, memory.data() + offset, sizeof word);
    if (word != RingBuffer::kMagic) continue;
    ++rings_found;
    EXPECT_EQ(offset % 64, 0u) << "slot ring header at offset " << offset;
  }
  EXPECT_EQ(rings_found, kSlots);
}

TEST(MultiRingTest, ConcurrentClaimsAreUnique) {
  test::RingMemory memory(MultiRing::region_size(8, 256));
  auto rings = MultiRing::init(memory.data(), 8, 256);
  ASSERT_TRUE(rings.is_ok());
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(12);
  for (int i = 0; i < 12; ++i) {
    threads.emplace_back([&] {
      auto slot = rings.value().claim_slot();
      if (slot.is_ok()) successes.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 8);
  EXPECT_EQ(rings.value().claimed_slots(), 8u);
}

}  // namespace
}  // namespace brisk::shm
