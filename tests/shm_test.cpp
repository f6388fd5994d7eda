// Shared-memory substrate tests: SharedRegion lifetimes, RingBuffer SPSC
// semantics (wrap handling, drop-new overflow, concurrent producer/consumer,
// cross-fork visibility), MultiRing slot discipline.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

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

TEST_F(RingBufferTest, ConcurrentProducerConsumer) {
  make_ring(8192);
  constexpr int kRecords = 200'000;
  std::atomic<bool> done{false};
  std::uint64_t consumed = 0;
  std::uint64_t checksum = 0;

  std::thread consumer([&] {
    std::vector<std::uint8_t> out;
    while (!done.load(std::memory_order_acquire) || !ring_.empty()) {
      out.clear();
      if (ring_.try_pop(out)) {
        ++consumed;
        checksum += out[0];
      }
    }
  });

  std::uint64_t produced = 0;
  std::uint64_t produced_checksum = 0;
  for (int i = 0; i < kRecords; ++i) {
    auto record = make_record(8 + i % 24, static_cast<std::uint8_t>(i));
    if (ring_.try_push(span_of(record))) {
      ++produced;
      produced_checksum += static_cast<std::uint8_t>(i);
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(consumed, produced);
  EXPECT_EQ(checksum, produced_checksum);
  EXPECT_EQ(ring_.stats().pushed, produced);
  EXPECT_EQ(ring_.stats().dropped + produced, static_cast<std::uint64_t>(kRecords));
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
