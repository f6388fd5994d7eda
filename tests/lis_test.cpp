// LIS / external-sensor tests: batching-with-latency-control policies and
// the socket-free ExsCore (ring draining, clock-correction application,
// sync slave protocol, hello/bye).
#include <gtest/gtest.h>

#include <cstring>

#include "clock/clock.hpp"
#include "clock/sim_clock.hpp"
#include "common/time_util.hpp"
#include "lis/batcher.hpp"
#include "lis/external_sensor.hpp"
#include "ring_memory.hpp"
#include "tp/replay_buffer.hpp"
#include "sensors/sensor.hpp"
#include "tp/batch.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::lis {
namespace {

using sensors::Field;
using sensors::Record;
using tp::ReplayBuffer;

Record test_record(TimeMicros ts) {
  Record record;
  record.sensor = 1;
  record.timestamp = ts;
  record.fields = {Field::i32(1), Field::i32(2)};
  return record;
}

ByteBuffer native_of(const Record& record) {
  auto encoded = sensors::encode_native(record);
  EXPECT_TRUE(encoded.is_ok());
  return std::move(encoded).value();
}

tp::Batch parse_batch(const ByteBuffer& payload) {
  xdr::Decoder dec(payload.view());
  auto type = tp::peek_type(dec);
  EXPECT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::data_batch);
  auto batch = tp::decode_batch(dec);
  EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
  return std::move(batch).value();
}

// ---- Batcher ------------------------------------------------------------------------

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest() { config_.node = 5; }

  Batcher make_batcher() {
    return Batcher(config_, clock_, [this](ByteBuffer payload) {
      sent_.push_back(std::move(payload));
      return Status::ok();
    });
  }

  ExsConfig config_;
  clk::ManualClock clock_{1'000'000};
  std::vector<ByteBuffer> sent_;
};

TEST_F(BatcherTest, FlushAtRecordLimit) {
  config_.batch_max_records = 3;
  config_.batch_max_age_us = 1'000'000'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(10));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  }
  ASSERT_EQ(sent_.size(), 1u) << "3rd record must trigger the flush";
  EXPECT_EQ(parse_batch(sent_[0]).header.record_count, 3u);
  EXPECT_EQ(batcher.pending_records(), 0u);
}

TEST_F(BatcherTest, FlushAtByteLimit) {
  config_.batch_max_records = 1'000'000;
  config_.batch_max_bytes = 128;
  config_.batch_max_age_us = 1'000'000'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(10));
  for (int i = 0; i < 20 && sent_.empty(); ++i) {
    ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  }
  ASSERT_FALSE(sent_.empty());
  EXPECT_LE(sent_[0].size(), 128u + 64u) << "batch roughly respects the byte limit";
  EXPECT_GE(parse_batch(sent_[0]).header.record_count, 1u);
}

TEST_F(BatcherTest, AgeBasedFlush) {
  config_.batch_max_age_us = 5'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(10));
  ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_TRUE(sent_.empty()) << "too young to flush";
  clock_.advance(6'000);
  ASSERT_TRUE(batcher.maybe_flush());
  ASSERT_EQ(sent_.size(), 1u);
}

TEST_F(BatcherTest, EmptyBatchNeverSent) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.flush());
  ASSERT_TRUE(batcher.maybe_flush());
  clock_.advance(1'000'000);
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_TRUE(sent_.empty());
}

TEST_F(BatcherTest, CorrectionAppliedToRecords) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1'000)).view(), 250));
  ASSERT_TRUE(batcher.flush());
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(parse_batch(sent_[0]).records[0].timestamp, 1'250);
}

TEST_F(BatcherTest, DropCounterTravelsInHeader) {
  Batcher batcher = make_batcher();
  batcher.set_ring_dropped_total(17);
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  EXPECT_EQ(parse_batch(sent_[0]).header.ring_dropped_total, 17u);
}

TEST_F(BatcherTest, StatsTrackBatchesAndBytes) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(2)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  EXPECT_EQ(batcher.batches_sent(), 2u);
  EXPECT_EQ(batcher.bytes_sent(), sent_[0].size() + sent_[1].size());
}

TEST_F(BatcherTest, BatchSequenceNumbersIncrease) {
  Batcher batcher = make_batcher();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.add_native_record(native_of(test_record(i)).view(), 0));
    ASSERT_TRUE(batcher.flush());
  }
  EXPECT_EQ(parse_batch(sent_[0]).header.batch_seq, 0u);
  EXPECT_EQ(parse_batch(sent_[1]).header.batch_seq, 1u);
  EXPECT_EQ(parse_batch(sent_[2]).header.batch_seq, 2u);
}

// ---- ExsConfig validation --------------------------------------------------------------

TEST(ExsConfigTest, ValidatesKnobs) {
  ExsConfig config;
  EXPECT_TRUE(config.validate());
  config.batch_max_records = 0;
  EXPECT_FALSE(config.validate());
  config = ExsConfig{};
  config.select_timeout_us = 0;
  EXPECT_FALSE(config.validate());
  config = ExsConfig{};
  config.drain_burst = 0;
  EXPECT_FALSE(config.validate());
}

// ---- ExsCore ----------------------------------------------------------------------------

class ExsCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::MultiRing::region_size(4, 64 * 1024));
    auto rings = shm::MultiRing::init(memory_.data(), 4, 64 * 1024);
    ASSERT_TRUE(rings.is_ok());
    rings_ = rings.value();
    config_.node = 3;
    config_.batch_max_age_us = 0;  // flush every cycle
    core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
      frames_.push_back(std::move(payload));
      return Status::ok();
    });
  }

  /// Frames of a given type, decoded as batches.
  std::vector<tp::Batch> sent_batches() {
    std::vector<tp::Batch> out;
    for (const ByteBuffer& frame : frames_) {
      xdr::Decoder dec(frame.view());
      auto type = tp::peek_type(dec);
      EXPECT_TRUE(type.is_ok());
      if (type.value() != tp::MsgType::data_batch) continue;
      auto batch = tp::decode_batch(dec);
      EXPECT_TRUE(batch.is_ok());
      out.push_back(std::move(batch).value());
    }
    return out;
  }

  test::RingMemory memory_;
  shm::MultiRing rings_;
  clk::ManualClock clock_{1'000'000};
  ExsConfig config_;
  std::vector<ByteBuffer> frames_;
  std::unique_ptr<ExsCore> core_;
};

TEST_F(ExsCoreTest, HelloCarriesNodeId) {
  ASSERT_TRUE(core_->send_hello());
  ASSERT_EQ(frames_.size(), 1u);
  xdr::Decoder dec(frames_[0].view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::hello);
  auto hello = tp::decode_hello(dec);
  ASSERT_TRUE(hello.is_ok());
  EXPECT_EQ(hello.value().node, 3u);
  EXPECT_EQ(hello.value().version, tp::kProtocolVersion);
}

TEST_F(ExsCoreTest, DrainsSensorsAcrossSlots) {
  auto ring_a = rings_.claim_slot();
  auto ring_b = rings_.claim_slot();
  ASSERT_TRUE(ring_a.is_ok());
  ASSERT_TRUE(ring_b.is_ok());
  sensors::Sensor sensor_a(ring_a.value(), clock_);
  sensors::Sensor sensor_b(ring_b.value(), clock_);
  ASSERT_TRUE(sensor_a.notice(1, sensors::x_i32(1)));
  ASSERT_TRUE(sensor_b.notice(2, sensors::x_i32(2)));

  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), 2u);
  ASSERT_TRUE(core_->maybe_flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records.size(), 2u);
}

TEST_F(ExsCoreTest, DrainBurstBoundsWork) {
  config_.drain_burst = 5;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));
  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), 5u) << "burst limit respected";
}

TEST_F(ExsCoreTest, CorrectionValueAppliedToForwardedTimestamps) {
  // Apply an ADJUST, then forward a record: its timestamp must shift.
  ByteBuffer adjust;
  xdr::Encoder enc(adjust);
  tp::put_type(tp::MsgType::adjust, enc);
  tp::encode_adjust({2'500}, enc);
  ASSERT_TRUE(core_->handle_frame(adjust.view()));
  EXPECT_EQ(core_->correction(), 2'500);

  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  clock_.set(5'000'000);
  ASSERT_TRUE(sensor.notice(1, sensors::x_i32(0)));
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records[0].timestamp, 5'002'500);
}

TEST_F(ExsCoreTest, AdjustmentsAccumulate) {
  for (TimeMicros delta : {100, -30, 7}) {
    ByteBuffer adjust;
    xdr::Encoder enc(adjust);
    tp::put_type(tp::MsgType::adjust, enc);
    tp::encode_adjust({delta}, enc);
    ASSERT_TRUE(core_->handle_frame(adjust.view()));
  }
  EXPECT_EQ(core_->correction(), 77);
  EXPECT_EQ(core_->stats().sync_adjustments, 3u);
}

TEST_F(ExsCoreTest, TimeReqAnsweredWithCorrectedClock) {
  ByteBuffer adjust;
  xdr::Encoder enc1(adjust);
  tp::put_type(tp::MsgType::adjust, enc1);
  tp::encode_adjust({1'000}, enc1);
  ASSERT_TRUE(core_->handle_frame(adjust.view()));

  clock_.set(42'000'000);
  ByteBuffer req;
  xdr::Encoder enc2(req);
  tp::put_type(tp::MsgType::time_req, enc2);
  tp::encode_time_req({99}, enc2);
  ASSERT_TRUE(core_->handle_frame(req.view()));

  ASSERT_EQ(frames_.size(), 1u);
  xdr::Decoder dec(frames_[0].view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  ASSERT_EQ(type.value(), tp::MsgType::time_resp);
  auto resp = tp::decode_time_resp(dec);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().request_id, 99u);
  EXPECT_EQ(resp.value().slave_time, 42'001'000);
  EXPECT_EQ(core_->stats().sync_polls_answered, 1u);
}

TEST_F(ExsCoreTest, ByeReportsClosed) {
  ByteBuffer bye;
  xdr::Encoder enc(bye);
  tp::put_type(tp::MsgType::bye, enc);
  EXPECT_EQ(core_->handle_frame(bye.view()).code(), Errc::closed);
}

TEST_F(ExsCoreTest, UnexpectedMessageRejected) {
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({1, 1}, enc);
  EXPECT_EQ(core_->handle_frame(hello.view()).code(), Errc::malformed);
}

TEST_F(ExsCoreTest, StatsCountForwardedRecords) {
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  EXPECT_EQ(core_->stats().records_forwarded, 7u);
  EXPECT_EQ(core_->stats().batches_sent, 1u);
  EXPECT_GT(core_->stats().bytes_sent, 0u);
}

TEST_F(ExsCoreTest, RoundRobinAcrossChattySlots) {
  // One slot with many records, one with few: the few must not starve.
  auto ring_a = rings_.claim_slot();
  auto ring_b = rings_.claim_slot();
  ASSERT_TRUE(ring_a.is_ok());
  ASSERT_TRUE(ring_b.is_ok());
  sensors::Sensor chatty(ring_a.value(), clock_);
  sensors::Sensor quiet(ring_b.value(), clock_);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(chatty.notice(1, sensors::x_i32(i)));
  ASSERT_TRUE(quiet.notice(2, sensors::x_i32(0)));

  config_.drain_burst = 10;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  bool saw_quiet = false;
  for (const Record& r : batches[0].records) {
    if (r.sensor == 2) saw_quiet = true;
  }
  EXPECT_TRUE(saw_quiet) << "round-robin must reach the quiet slot within one burst";
}

// The node's ring-drop total rides in every batch header. The EXS reads it
// once per drain pass, before popping, so a batch sealed after the drops
// carries them.
TEST_F(ExsCoreTest, BatchSealedAfterRingDropsCarriesTheDropTotal) {
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  std::uint64_t noticed = 0;
  std::uint64_t dropped = 0;
  while (dropped < 3) {
    if (sensor.notice(1, sensors::x_i32(static_cast<std::int32_t>(noticed)))) {
      ++noticed;
    } else {
      ++dropped;
    }
  }
  for (;;) {
    auto drained = core_->drain_rings();
    ASSERT_TRUE(drained.is_ok());
    if (drained.value() == 0) break;
  }
  ASSERT_TRUE(core_->flush());
  const auto batches = sent_batches();
  ASSERT_FALSE(batches.empty());
  std::uint64_t records = 0;
  for (const tp::Batch& batch : batches) {
    EXPECT_EQ(batch.header.ring_dropped_total, dropped);
    records += batch.records.size();
  }
  EXPECT_EQ(records, noticed);
  EXPECT_EQ(core_->stats().ring_drops_seen, dropped);
}

// ---- ExsCore::next_wait_us ----------------------------------------------------------

/// The loop's wait rule on a simulated node clock: every wait below follows
/// from the drains the test performs and the instants it sets.
class ExsWaitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::MultiRing::region_size(2, 64 * 1024));
    auto rings = shm::MultiRing::init(memory_.data(), 2, 64 * 1024);
    ASSERT_TRUE(rings.is_ok());
    rings_ = rings.value();
    auto ring = rings_.claim_slot();
    ASSERT_TRUE(ring.is_ok());
    sensor_ = std::make_unique<sensors::Sensor>(ring.value(), clock_);
    config_.node = 3;
    config_.select_timeout_us = 40'000;
    config_.batch_max_age_us = 20'000;
    config_.batch_max_records = 256;
  }

  void make_core() {
    core_ = std::make_unique<ExsCore>(config_, rings_, clock_,
                                      [](ByteBuffer) { return Status::ok(); });
  }

  void notice(int count) {
    for (int i = 0; i < count; ++i) ASSERT_TRUE(sensor_->notice(1, sensors::x_i32(i)));
  }

  std::size_t drain() {
    auto drained = core_->drain_rings();
    EXPECT_TRUE(drained.is_ok());
    return drained.is_ok() ? drained.value() : 0;
  }

  test::RingMemory memory_;
  shm::MultiRing rings_;
  clk::ManualClock reference_{0};
  clk::SimClock clock_{reference_, clk::SimClockConfig{5'000'000, 0.0, 0, 1}};
  ExsConfig config_;
  std::unique_ptr<sensors::Sensor> sensor_;
  std::unique_ptr<ExsCore> core_;
};

TEST_F(ExsWaitTest, IdleRingsWaitTheAgeBoundOrTheSelectTimeout) {
  make_core();
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 20'000) << "before any drain";
  EXPECT_EQ(drain(), 0u);
  reference_.advance(1'000);
  EXPECT_EQ(drain(), 0u);
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 20'000)
      << "a record NOTICEd now must be drained within the age bound";

  config_.batch_max_age_us = 0;  // flush every cycle: only the idle cap is left
  make_core();
  EXPECT_EQ(drain(), 0u);
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 40'000);
}

TEST_F(ExsWaitTest, OpenBatchWaitsItsRemainingAge) {
  make_core();
  notice(3);
  EXPECT_EQ(drain(), 3u);  // first drain: no fill rate yet
  reference_.advance(5'000);
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 15'000);
  reference_.advance(20'000);
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 0) << "an overdue batch seals at once";
}

TEST_F(ExsWaitTest, PredictsWhenTheRingsFillTheOpenBatch) {
  make_core();
  EXPECT_EQ(drain(), 0u);
  reference_.advance(1'000);
  notice(64);
  EXPECT_EQ(drain(), 64u);
  // 64 records in 1 ms; the open batch takes 192 more: 3 ms at that rate.
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 3'000);

  // With no batch open the prediction covers a whole batch: 256 records
  // at 128 per 2 ms.
  config_.batch_max_age_us = 0;
  make_core();
  EXPECT_EQ(drain(), 0u);
  reference_.advance(2'000);
  notice(128);
  EXPECT_EQ(drain(), 128u);
  ASSERT_TRUE(core_->flush());
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 4'000);
}

TEST_F(ExsWaitTest, BurstLimitedDrainGoesStraightBack) {
  config_.drain_burst = 8;
  make_core();
  notice(20);
  EXPECT_EQ(drain(), 8u);
  EXPECT_EQ(core_->next_wait_us(clock_.now()), 0) << "the rings still hold records";
  EXPECT_EQ(core_->stats().burst_limited_drains, 1u);

  core_->on_disconnect();  // records could only move into the replay buffer
  EXPECT_GT(core_->next_wait_us(clock_.now()), 0);

  make_core();
  EXPECT_EQ(drain(), 8u);
  EXPECT_EQ(drain(), 4u);
  EXPECT_GT(core_->next_wait_us(clock_.now()), 0) << "rings empty again";
  EXPECT_EQ(core_->stats().loop_wakeups, 2u);
  EXPECT_EQ(core_->stats().burst_limited_drains, 1u);
}

TEST_F(ExsWaitTest, FillPredictionIsFlooredAtTheMinimumLoopWait) {
  make_core();
  EXPECT_EQ(drain(), 0u);
  reference_.advance(10);
  notice(200);
  EXPECT_EQ(drain(), 200u);
  // 56 more records at 20 per µs is under 3 µs: the floor keeps the loop
  // from spinning.
  EXPECT_EQ(core_->next_wait_us(clock_.now()), kMinLoopWaitUs);
}

// ---- ReplayBuffer --------------------------------------------------------------------

/// A synthetic data_batch frame: 12-byte header (type, node, batch_seq as
/// big-endian u32s) padded out to `total_bytes`.
ByteBuffer replay_frame(std::uint32_t batch_seq, std::size_t total_bytes) {
  EXPECT_GE(total_bytes, 12u);
  ByteBuffer frame;
  xdr::Encoder enc(frame);
  enc.put_u32(2);  // MsgType::data_batch
  enc.put_u32(1);  // node
  enc.put_u32(batch_seq);
  const std::vector<std::uint8_t> padding(total_bytes - 12, 0xab);
  frame.append(ByteSpan{padding.data(), padding.size()});
  return frame;
}

TEST(ReplayBufferTest, ByteCapEvictsOldestFirst) {
  ReplayBuffer buffer(/*max_batches=*/100, /*max_bytes=*/1000);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 300).view()));
  }
  // 5 x 300 bytes against a 1000-byte cap: the two oldest must have gone.
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.bytes(), 900u);
  EXPECT_EQ(buffer.evictions(), 2u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 2u);
  EXPECT_EQ(buffer.entries().back().batch_seq, 4u);
}

TEST(ReplayBufferTest, JumboBatchDisplacesEverythingYetIsRetained) {
  ReplayBuffer buffer(/*max_batches=*/100, /*max_bytes=*/1000);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 300).view()));
  }
  // One batch bigger than the whole cap: everything older is declared lost,
  // but the jumbo itself stays — it is the batch currently in flight.
  ASSERT_TRUE(buffer.retain(replay_frame(3, 2'000).view()));
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.bytes(), 2'000u);
  EXPECT_EQ(buffer.evictions(), 3u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 3u);
}

TEST(ReplayBufferTest, CountCapIndependentOfByteCap) {
  ReplayBuffer buffer(/*max_batches=*/2, /*max_bytes=*/0);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 100).view()));
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.evictions(), 1u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 1u);
}

TEST(ReplayBufferTest, AckReleasesBytes) {
  ReplayBuffer buffer(/*max_batches=*/10, /*max_bytes=*/10'000);
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 250).view()));
  }
  EXPECT_EQ(buffer.bytes(), 1'000u);
  buffer.ack(/*next_expected=*/3);
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.bytes(), 250u);
  EXPECT_EQ(buffer.evictions(), 0u) << "acked batches are not evictions";
}

}  // namespace
}  // namespace brisk::lis
