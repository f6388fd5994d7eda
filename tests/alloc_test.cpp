// Heap-allocation counts of the per-record output encoders.
//
// This binary replaces the global operator new with one that counts calls
// and bytes per thread, and only inside a measured region (count_allocs),
// so gtest's own bookkeeping and other threads never show up. It pins:
//   - ShmSink::accept: 0 allocations per record, like a NOTICE;
//   - ConsumerGateway::accept_run into a ShmSink: 0 per run of 256 records;
//   - encode_native / encode_output_record: exactly 1 (the result buffer);
//   - a gateway SUB_DATA frame: at most 2 (the shared block and its bytes);
//   - OrderingPipeline::submit_run of a 256-record batch into a shard
//     worker's lane: 0 on the ordering thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "clock/clock.hpp"
#include "ism/gateway.hpp"
#include "ism/output.hpp"
#include "ism/pipeline.hpp"
#include "ring_memory.hpp"
#include "sensors/record_codec.hpp"
#include "shm/ring_buffer.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted_malloc(std::size_t size) {
  if (t_counting) {
    ++t_calls;
    t_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// Keeps the optimizer from eliding a new/delete pair.
void escape(void* p) noexcept { asm volatile("" : : "g"(p) : "memory"); }

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations `fn` makes on the calling thread.
template <typename Fn>
AllocCount count_allocs(Fn&& fn) {
  t_calls = 0;
  t_bytes = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return {t_calls, t_bytes};
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace brisk::ism {
namespace {

using sensors::Field;
using sensors::Record;

constexpr int kRecordsPerCase = 64;

// AddressSanitizer owns malloc and may keep its own operator new; the
// counts are only meaningful when this file's replacement is the one linked.
class CountingAllocatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const AllocCount probe = count_allocs([] {
      char* p = new char(1);
      escape(p);
      delete p;
    });
    if (probe.calls == 1) return;
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "the sanitizer runtime's operator new is in effect, not the counting one";
#else
    FAIL() << "counting operator new is not in effect (" << probe.calls << " calls counted)";
#endif
  }
};
using AllocCountTest = CountingAllocatorTest;
using OutputAllocTest = CountingAllocatorTest;
using IngressAllocTest = CountingAllocatorTest;

Record plain_record() {
  Record record;
  record.node = 3;
  record.sensor = 100;
  record.sequence = 42;
  record.timestamp = 1'700'000'000'000'000LL;
  for (std::int32_t i = 0; i < 6; ++i) record.fields.push_back(Field::i32(i * 1'000));
  return record;
}

Record traced_record() {
  Record record = plain_record();
  record.trace = sensors::TraceAnnotation{0xfeed'beefULL, {}};
  for (std::size_t i = 0; i < sensors::kMaxTraceStamps; ++i) {
    record.trace->stamps.push_back({static_cast<sensors::TraceStage>(i % sensors::kTraceStageCount),
                                    static_cast<TimeMicros>(i)});
  }
  return record;
}

Record max_strings_record() {
  Record record = plain_record();
  record.fields.clear();
  for (std::size_t i = 0; i < sensors::kMaxFieldsPerRecord; ++i) {
    record.fields.push_back(Field::str(std::string(sensors::kMaxStringFieldBytes, 'x')));
  }
  return record;
}

std::vector<Record> cases() { return {plain_record(), traced_record(), max_strings_record()}; }

TEST_F(AllocCountTest, CountsOnlyTheCallingThreadInsideTheRegion) {
  char* outside = new char[16];  // before the region: not counted
  escape(outside);
  const AllocCount one = count_allocs([] {
    char* p = new char[100];
    escape(p);
    delete[] p;
  });
  EXPECT_EQ(one.calls, 1u);
  EXPECT_EQ(one.bytes, 100u);

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  char* theirs = nullptr;
  std::thread other([&] {
    while (!go.load()) std::this_thread::yield();
    theirs = new char[64];
    escape(theirs);
    done.store(true);
  });
  const AllocCount mine = count_allocs([&] {
    go.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  other.join();
  delete[] theirs;
  delete[] outside;
  EXPECT_EQ(mine.calls, 0u) << "another thread's allocation is not counted";
}

TEST_F(OutputAllocTest, ShmSinkAcceptMakesNoHeapAllocation) {
  constexpr std::size_t kCapacity = 1u << 20;
  test::RingMemory memory(shm::RingBuffer::region_size(kCapacity));
  auto ring = shm::RingBuffer::init(memory.data(), kCapacity);
  ASSERT_TRUE(ring.is_ok());
  for (const Record& record : cases()) {
    ShmSink sink(ring.value());
    std::vector<std::uint8_t> popped;
    popped.reserve(kMaxOutputRecordBytes);
    for (int i = 0; i < kRecordsPerCase; ++i) {
      bool ok = false;
      const AllocCount n = count_allocs([&] { ok = sink.accept(record).is_ok(); });
      ASSERT_TRUE(ok);
      EXPECT_EQ(n.calls, 0u) << record.to_string();
      EXPECT_EQ(n.bytes, 0u);
      popped.clear();
      ASSERT_TRUE(ring.value().try_pop(popped));
    }
    EXPECT_EQ(sink.delivered(), static_cast<std::uint64_t>(kRecordsPerCase));
  }
}

// The pipeline's hand-over: a 256-record run through the gateway's filter
// loop into the shm sink's run path.
TEST_F(OutputAllocTest, GatewayAndShmSinkRunMakeNoHeapAllocation) {
  constexpr std::size_t kCapacity = 1u << 20;
  constexpr std::size_t kRun = 256;
  test::RingMemory memory(shm::RingBuffer::region_size(kCapacity));
  auto ring = shm::RingBuffer::init(memory.data(), kCapacity);
  ASSERT_TRUE(ring.is_ok());
  auto gateway = ConsumerGateway::create(GatewayConfig{});
  ASSERT_TRUE(gateway.is_ok());
  auto sink = std::make_shared<ShmSink>(ring.value());
  ASSERT_TRUE(gateway.value()->subscribe("shm", sink));
  SubscriptionOptions sampled;
  sampled.filter = SubscriptionFilter::parse("sample=4").value();
  ASSERT_TRUE(gateway.value()->subscribe("sampled", std::make_shared<ShmSink>(ring.value()),
                                         sampled));
  std::vector<Record> run;
  for (std::size_t i = 0; i < kRun; ++i) {
    Record record = plain_record();
    record.timestamp += static_cast<TimeMicros>(i);
    run.push_back(std::move(record));
  }
  std::vector<std::uint8_t> popped;
  popped.reserve(kMaxOutputRecordBytes);
  for (int round = 0; round < 4; ++round) {
    RunResult result;
    const AllocCount n = count_allocs([&] { result = gateway.value()->accept_run(run); });
    ASSERT_TRUE(result.status.is_ok());
    EXPECT_EQ(n.calls, 0u);
    EXPECT_EQ(n.bytes, 0u);
    const AllocCount direct = count_allocs([&] { result = sink->accept_run(run); });
    ASSERT_TRUE(result.status.is_ok());
    EXPECT_EQ(result.accepted, kRun);
    EXPECT_EQ(direct.calls, 0u);
    while (!ring.value().empty()) {
      popped.clear();
      ASSERT_TRUE(ring.value().try_pop(popped));
    }
  }
  EXPECT_EQ(sink->delivered(), 2 * 4 * kRun);
}

TEST_F(OutputAllocTest, OwningEncodersMakeExactlyOneAllocation) {
  for (const Record& record : cases()) {
    std::size_t native_size = 0;
    const AllocCount native = count_allocs([&] {
      auto bytes = sensors::encode_native(record);
      ASSERT_TRUE(bytes.is_ok());
      native_size = bytes.value().size();
    });
    EXPECT_EQ(native.calls, 1u) << record.to_string();
    EXPECT_EQ(native.bytes, native_size) << "an exact-size buffer";

    std::size_t output_size = 0;
    const AllocCount output = count_allocs([&] {
      auto bytes = encode_output_record(record);
      ASSERT_TRUE(bytes.is_ok());
      output_size = bytes.value().size();
    });
    EXPECT_EQ(output.calls, 1u) << record.to_string();
    EXPECT_EQ(output.bytes, output_size);
    EXPECT_EQ(output_size, kNodePrefixBytes + native_size);
  }
}

TEST_F(OutputAllocTest, GatewayDataFrameMakesAtMostTwoAllocations) {
  for (const Record& record : cases()) {
    std::shared_ptr<const ByteBuffer> frame;
    const AllocCount n = count_allocs([&] { frame = encode_data_frame(record); });
    ASSERT_NE(frame, nullptr);
    EXPECT_LE(n.calls, 2u) << record.to_string();
  }
}

// The ordering thread's hand-off of one admitted batch to a shard worker:
// bulk moves into the shard's lane, one count bump, one wakeup.
TEST_F(IngressAllocTest, SubmitRunMakesNoHeapAllocationOnTheOrderingThread) {
  constexpr std::size_t kRun = 256;
  constexpr int kRounds = 4;
  clk::ManualClock clock(plain_record().timestamp);
  PipelineConfig config;
  config.shards = 2;
  config.sorter.initial_frame_us = 1'000'000;  // hold everything until drain
  std::atomic<std::size_t> delivered{0};
  OrderingPipeline pipeline(
      config, clock,
      OrderingPipeline::RunSinkFn([&](std::span<const Record> run) { delivered += run.size(); }),
      [] {}, [] {});
  ASSERT_TRUE(pipeline.threaded());
  std::vector<Record> batch;
  batch.reserve(kRun);
  for (int round = 0; round < kRounds; ++round) {
    batch.clear();
    for (std::size_t i = 0; i < kRun; ++i) {
      Record record = plain_record();
      record.timestamp += static_cast<TimeMicros>(round * kRun + i);
      batch.push_back(std::move(record));
    }
    Status st;
    const AllocCount n = count_allocs([&] { st = pipeline.submit_run(3, batch); });
    ASSERT_TRUE(st.is_ok());
    EXPECT_EQ(n.calls, 0u) << "round " << round;
    EXPECT_EQ(n.bytes, 0u);
  }
  ASSERT_TRUE(pipeline.drain());
  EXPECT_EQ(delivered.load(), kRounds * kRun);
  EXPECT_EQ(pipeline.stats().submitted, kRounds * kRun);
}

}  // namespace
}  // namespace brisk::ism
