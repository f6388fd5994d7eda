// ISM pipeline tests: per-EXS queues, the timestamp merge heap, the
// adaptive on-line sorter (delay window, T raise on out-of-order, exponential
// decay, overflow policies), the CRE matcher (hold, tachyon repair, timeout,
// extra sync rounds), flow control, and the output sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "ism/cre_matcher.hpp"
#include "ism/drop_policy.hpp"
#include "ism/ingest.hpp"
#include "ism/merge_heap.hpp"
#include "ism/online_sorter.hpp"
#include "ism/output.hpp"
#include "ism/ism.hpp"
#include "ism/pipeline.hpp"
#include "ism/session_table.hpp"
#include "ring_memory.hpp"

namespace brisk::ism {
namespace {

using sensors::Field;
using sensors::Record;

Record make_record(NodeId node, TimeMicros ts, SensorId sensor = 1) {
  Record record;
  record.node = node;
  record.sensor = sensor;
  record.timestamp = ts;
  record.fields = {Field::i32(static_cast<std::int32_t>(ts))};
  return record;
}

Record reason_record(NodeId node, TimeMicros ts, CausalId id) {
  Record record = make_record(node, ts, 2);
  record.fields = {Field::reason(id)};
  return record;
}

Record conseq_record(NodeId node, TimeMicros ts, CausalId id) {
  Record record = make_record(node, ts, 3);
  record.fields = {Field::conseq(id)};
  return record;
}

// ---- EventQueue -------------------------------------------------------------------

TEST(EventQueueTest, FifoAndCounters) {
  EventQueue queue(4);
  queue.push(make_record(4, 100));
  queue.push(make_record(4, 50));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.front().timestamp, 100) << "arrival order, not ts order";
  EXPECT_EQ(queue.pop().timestamp, 100);
  EXPECT_EQ(queue.pop().timestamp, 50);
  EXPECT_TRUE(queue.empty());
}

// ---- SessionTable -----------------------------------------------------------------
//
// The session protocol with no sockets: every call gets an explicit `now`.

class SessionTableTest : public ::testing::Test {
 protected:
  static constexpr NodeId kNode = 7;
  static constexpr TimeMicros kT0 = 1'000'000;

  SessionTableTest() {
    config_.quarantine_timeout_us = 5'000'000;
    config_.ack_period_us = 200'000;
    config_.gap_skip_timeout_us = 1'000'000;
    config_.credit_window_records = 8;
    config_.credit_window_bytes = 4'096;
    config_.credit_replenish_us = 20'000;
  }

  /// Admits batches [from, to) in order.
  void admit_range(std::uint32_t from, std::uint32_t to, TimeMicros now = kT0) {
    for (std::uint32_t seq = from; seq < to; ++seq) {
      ASSERT_TRUE(table_.admit(kNode, seq, 0, now)) << seq;
    }
  }
  std::uint32_t cursor() { return table_.ack(kNode).value().next_expected_seq; }
  std::size_t flight_events(sensors::EventKind kind) {
    const auto events = flight_.snapshot();
    return static_cast<std::size_t>(std::count_if(
        events.begin(), events.end(),
        [kind](const metrics::FlightEvent& e) { return e.kind == kind; }));
  }

  /// `n` records of `node` leave the pipeline as one sink run.
  void drain_run(std::size_t n, NodeId node = kNode) {
    const std::vector<sensors::Record> run(n, record_of(node));
    table_.note_records_drained(run);
  }
  /// Drains `count` records of kNode at the pipeline exit, one at a time.
  void drain(int count) {
    for (int i = 0; i < count; ++i) drain_run(1);
  }
  static sensors::Record record_of(NodeId node) {
    sensors::Record record;
    record.node = node;
    return record;
  }

  IsmConfig config_;
  clk::ManualClock clock_{kT0};
  metrics::FlightRecorder flight_{"session-table-test"};
  std::atomic<int> wakes_{0};  // regrant wakeups the drain side raised
  SessionTable table_{config_, clock_, flight_, [this] { ++wakes_; }};
};

TEST_F(SessionTableTest, RejoinKeepsTheCursor) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  admit_range(0, 3);
  EXPECT_EQ(table_.disconnect(kNode, /*bye=*/false, kT0), SessionTable::Departure::quarantined);
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  EXPECT_EQ(cursor(), 3u);
  EXPECT_FALSE(table_.admit(kNode, 2, 0, kT0)) << "replayed batch is a duplicate";
  EXPECT_EQ(table_.counters().rejoins.load(), 1u);
  EXPECT_EQ(table_.counters().duplicate_batches_dropped.load(), 1u);
  EXPECT_EQ(flight_events(sensors::EventKind::session_rejoined), 1u);
}

TEST_F(SessionTableTest, IncarnationResetZeroesTheCursor) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  admit_range(0, 3);
  table_.disconnect(kNode, false, kT0);
  table_.hello(kNode, 43, tp::kProtocolVersion, false);
  EXPECT_EQ(cursor(), 0u);
  EXPECT_TRUE(table_.admit(kNode, 0, 0, kT0)) << "a restarted EXS is not deduplicated";
  EXPECT_EQ(table_.counters().rejoins.load(), 0u);
}

TEST_F(SessionTableTest, GapSkipFiresAtExactlyTheTimeout) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  admit_range(0, 1);
  const TimeMicros opened = kT0 + 500;
  EXPECT_FALSE(table_.admit(kNode, 3, 0, opened));  // batches 1..2 are missing
  EXPECT_FALSE(table_.admit(kNode, 2, 0, opened + config_.gap_skip_timeout_us - 1));
  EXPECT_EQ(table_.counters().batch_seq_gaps.load(), 0u);
  EXPECT_EQ(cursor(), 1u);
  EXPECT_TRUE(table_.admit(kNode, 2, 0, opened + config_.gap_skip_timeout_us))
      << "the lowest batch on offer is admitted once the hole is declared lost";
  EXPECT_EQ(cursor(), 3u);
  EXPECT_EQ(table_.counters().batch_seq_gaps.load(), 1u);
  EXPECT_EQ(table_.counters().out_of_order_batches_dropped.load(), 3u);
  EXPECT_EQ(flight_events(sensors::EventKind::batch_gap), 1u);
  // The resend filling a hole closes it: a later hole starts a new timer.
  EXPECT_FALSE(table_.admit(kNode, 5, 0, opened + 2 * config_.gap_skip_timeout_us));
  EXPECT_TRUE(table_.admit(kNode, 3, 0, opened + 2 * config_.gap_skip_timeout_us));
  EXPECT_FALSE(table_.admit(kNode, 5, 0, opened + 3 * config_.gap_skip_timeout_us));
  EXPECT_EQ(table_.counters().batch_seq_gaps.load(), 1u);
}

TEST_F(SessionTableTest, RingDropsCountOnlyTheirGrowthOnAdmittedBatches) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  EXPECT_TRUE(table_.admit(kNode, 0, 5, kT0));
  EXPECT_FALSE(table_.admit(kNode, 0, 9, kT0)) << "a duplicate reports nothing";
  EXPECT_TRUE(table_.admit(kNode, 1, 7, kT0));
  EXPECT_EQ(table_.counters().ring_drops_reported.load(), 7u);
}

TEST_F(SessionTableTest, QuarantineExpiryFiresAtExactlyTheTimeout) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  table_.disconnect(kNode, false, kT0);
  EXPECT_EQ(flight_events(sensors::EventKind::session_quarantined), 1u);
  EXPECT_TRUE(table_.expired(kT0 + config_.quarantine_timeout_us - 1).empty());
  EXPECT_EQ(table_.expired(kT0 + config_.quarantine_timeout_us), std::vector<NodeId>{kNode});
  table_.expire(kNode, 4);
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.counters().sessions_expired.load(), 1u);
  EXPECT_EQ(flight_events(sensors::EventKind::session_expired), 1u);
}

TEST_F(SessionTableTest, ByeForgetsAndZeroQuarantineExpiresAtOnce) {
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  EXPECT_EQ(table_.disconnect(kNode, /*bye=*/true, kT0), SessionTable::Departure::forgotten);
  EXPECT_EQ(table_.size(), 0u);
  config_.quarantine_timeout_us = 0;
  table_.hello(kNode, 42, tp::kProtocolVersion, false);
  EXPECT_EQ(table_.disconnect(kNode, false, kT0), SessionTable::Departure::expire_now);
  table_.expire(kNode, 0);
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.counters().sessions_expired.load(), 1u);
}

TEST_F(SessionTableTest, UnknownNodesNeverGetASession) {
  EXPECT_FALSE(table_.admit(kNode, 0, 0, kT0));
  EXPECT_FALSE(table_.admitted(kNode, 8));
  EXPECT_FALSE(table_.ack(kNode).has_value());
  EXPECT_EQ(table_.disconnect(kNode, false, kT0), SessionTable::Departure::forgotten);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(SessionTableTest, HalfWindowAdmittedTriggersAWindowUpdate) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  ASSERT_TRUE(table_.ack(kNode).has_value());  // the HELLO_ACK
  EXPECT_FALSE(table_.admitted(kNode, 3));
  EXPECT_TRUE(table_.admitted(kNode, 1)) << "4 of an 8-record window since the last ack";
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 4u);
  EXPECT_FALSE(table_.admitted(kNode, 3)) << "the count restarts at each ack";
  EXPECT_EQ(table_.counters().window_update_acks.load(), 1u);
  config_.credit_window_records = 1;  // threshold floors at one record
  EXPECT_TRUE(table_.admitted(kNode, 0));
}

TEST_F(SessionTableTest, ReplenishCadenceWhileTheGrantIsBelowTheWindow) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 8u);
  EXPECT_EQ(table_.ack_period(kNode), config_.ack_period_us);
  table_.admitted(kNode, 3);
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 5u);
  EXPECT_EQ(table_.ack_period(kNode), config_.credit_replenish_us);
  drain_run(3);
  EXPECT_EQ(table_.backlog(kNode), 0u);
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 8u);
  EXPECT_EQ(table_.ack_period(kNode), config_.ack_period_us) << "full window: plain cadence";
  table_.admitted(kNode, 3);
  table_.ack(kNode);
  config_.credit_replenish_us = config_.ack_period_us;
  EXPECT_EQ(table_.ack_period(kNode), config_.ack_period_us) << "replenish clamps up";
}

TEST_F(SessionTableTest, ZeroWindowGrantWhenTheBacklogFillsTheWindow) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  table_.admitted(kNode, 12);
  const tp::HelloAck ack = table_.ack(kNode).value();
  ASSERT_TRUE(ack.credit.has_value());
  EXPECT_EQ(ack.credit->incarnation, 42u);
  EXPECT_EQ(ack.credit->window_records, 0u) << "clamped, never negative";
  EXPECT_EQ(ack.credit->window_bytes, config_.credit_window_bytes);
  EXPECT_EQ(table_.counters().zero_window_grants.load(), 1u);
  EXPECT_EQ(table_.counters().credit_grants_sent.load(), 1u);
  EXPECT_EQ(flight_events(sensors::EventKind::zero_window_grant), 1u);
}

TEST_F(SessionTableTest, V2SessionsGetNoGrant) {
  table_.hello(kNode, 42, tp::kMinProtocolVersion, false);
  EXPECT_FALSE(table_.ack(kNode)->credit.has_value());
  EXPECT_FALSE(table_.admitted(kNode, 8)) << "no window updates either";
  EXPECT_EQ(table_.ack_period(kNode), config_.ack_period_us);
  EXPECT_EQ(table_.counters().credit_grants_sent.load(), 0u);
  EXPECT_EQ(table_.counters().acks_sent.load(), 1u);
}

TEST_F(SessionTableTest, RelayLaneSurvivesARejoinButNotAReset) {
  const SessionTable::Hello first = table_.hello(kNode, 42, tp::kCreditProtocolVersion, true);
  EXPECT_FALSE(first.relay_lane.has_value());
  ASSERT_TRUE(first.drained);
  table_.bind_relay_lane(kNode, 3);
  table_.disconnect(kNode, false, kT0);
  const SessionTable::Hello again = table_.hello(kNode, 42, tp::kCreditProtocolVersion, true);
  EXPECT_EQ(again.relay_lane, std::optional<std::size_t>(3));
  EXPECT_EQ(again.drained, first.drained);
  table_.disconnect(kNode, false, kT0);
  EXPECT_FALSE(table_.hello(kNode, 43, tp::kCreditProtocolVersion, true).relay_lane);
}

TEST_F(SessionTableTest, QuarterWindowDrainedAfterAGrantMakesOneRegrantDue) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 8u);
  EXPECT_TRUE(table_.admitted(kNode, 8));
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 0u) << "window-stalled";
  // Each quarter window (2 records) drained after a grant wakes the loop
  // once and makes one regrant due; the grant widens by that quarter.
  for (int round = 1; round <= 4; ++round) {
    SCOPED_TRACE(round);
    drain(1);
    EXPECT_EQ(wakes_.load(), round - 1);
    EXPECT_FALSE(table_.regrant_due(kNode));
    drain(1);
    EXPECT_EQ(wakes_.load(), round);
    EXPECT_TRUE(table_.regrant_due(kNode));
    EXPECT_EQ(table_.ack(kNode)->credit->window_records, 2u * round);
  }
  EXPECT_EQ(table_.counters().drain_window_updates.load(), 4u);
  EXPECT_FALSE(table_.regrant_due(kNode)) << "a full-window grant cannot widen";
  // Admissions after a grant move the mark: the backlog must shrink by a
  // quarter window net of them.
  EXPECT_TRUE(table_.admitted(kNode, 4));
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 4u);
  table_.admitted(kNode, 1);
  drain(2);
  EXPECT_FALSE(table_.regrant_due(kNode));
  EXPECT_EQ(wakes_.load(), 4);
  drain(1);
  EXPECT_EQ(wakes_.load(), 5);
  EXPECT_TRUE(table_.regrant_due(kNode));
}

TEST_F(SessionTableTest, AMarkBehindTheDrainedCountWakesAtOnce) {
  // The drain side can pass a mark before the ordering thread stores it:
  // storing it then re-checks, so the crossing is never lost.
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);  // grant 0, mark at 2 drained
  drain(5);
  EXPECT_EQ(wakes_.load(), 1);
  table_.admitted(kNode, 1);  // moves the mark to 3, already passed
  EXPECT_EQ(wakes_.load(), 2);
  EXPECT_TRUE(table_.regrant_due(kNode));
}

TEST_F(SessionTableTest, NoRegrantForV2OrCreditsOffSessions) {
  table_.hello(kNode, 42, tp::kMinProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);
  drain(8);
  EXPECT_FALSE(table_.regrant_due(kNode));
  table_.disconnect(kNode, /*bye=*/true, kT0);
  config_.credit_window_records = 0;
  table_.hello(kNode, 43, tp::kCreditProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);
  drain(8);
  EXPECT_FALSE(table_.regrant_due(kNode));
  EXPECT_EQ(wakes_.load(), 0);
  EXPECT_EQ(table_.counters().drain_window_updates.load(), 0u);
}

// The pipeline notes drained records a run at a time, so a run can jump
// past the re-grant mark: it wakes when the count crosses the mark
// (before < mark <= before + n), never on a run wholly below or above it.
TEST_F(SessionTableTest, ADrainedRunJumpingPastTheMarkWakesOnce) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);  // grant 0, mark at 2 drained
  drain_run(5);
  EXPECT_EQ(wakes_.load(), 1);
  EXPECT_TRUE(table_.regrant_due(kNode));
}

TEST_F(SessionTableTest, ADrainedRunLandingOnTheMarkWakesOnce) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);  // grant 0, mark at 2 drained
  drain_run(2);
  EXPECT_EQ(wakes_.load(), 1);
  EXPECT_TRUE(table_.regrant_due(kNode));
}

TEST_F(SessionTableTest, DrainedRunsWhollyBelowOrAboveTheMarkDoNotWake) {
  table_.hello(kNode, 42, tp::kCreditProtocolVersion, false);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  table_.ack(kNode);  // grant 0, mark at 4 drained once 2 more are admitted
  table_.admitted(kNode, 2);
  EXPECT_EQ(wakes_.load(), 0);
  drain_run(3);  // 0 -> 3, below 4
  EXPECT_EQ(wakes_.load(), 0);
  EXPECT_FALSE(table_.regrant_due(kNode));
  drain_run(0);
  EXPECT_EQ(wakes_.load(), 0) << "an empty run crosses nothing";
  drain_run(1);  // 3 -> 4, lands on it
  EXPECT_EQ(wakes_.load(), 1);
  drain_run(3);  // 4 -> 7, wholly above
  EXPECT_EQ(wakes_.load(), 1);
}

// A merged run interleaves nodes: each credited node's cell is bumped by
// its own records in the run, and records of nodes without a cell are
// skipped.
TEST_F(SessionTableTest, AnInterleavedRunDrainsEachNodeByItsOwnRecords) {
  constexpr NodeId kOther = 3;
  for (const NodeId node : {kNode, kOther}) {
    table_.hello(node, 42, tp::kCreditProtocolVersion, false);
    table_.ack(node);
    table_.admitted(node, 6);
  }
  std::vector<sensors::Record> run;
  for (const NodeId node : {kNode, kOther, kNode, NodeId{99}, kNode, kOther, kNode}) {
    run.push_back(record_of(node));
  }
  table_.note_records_drained(run);
  EXPECT_EQ(table_.backlog(kNode), 2u);
  EXPECT_EQ(table_.backlog(kOther), 4u);
  EXPECT_EQ(table_.backlog(99), 0u);
}

TEST_F(SessionTableTest, RelayLaneCellRegrantsLikeASessionCell) {
  // A relay's cell is bumped by the merge as it releases lane records
  // (DrainCell::note_drained), not through the per-node sink hook.
  const SessionTable::Hello joined = table_.hello(kNode, 42, tp::kCreditProtocolVersion, true);
  ASSERT_TRUE(joined.drained);
  table_.ack(kNode);
  table_.admitted(kNode, 8);
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 0u);
  joined.drained->note_drained();
  EXPECT_FALSE(table_.regrant_due(kNode));
  joined.drained->note_drained();
  EXPECT_EQ(wakes_.load(), 1);
  EXPECT_TRUE(table_.regrant_due(kNode));
  EXPECT_EQ(table_.ack(kNode)->credit->window_records, 2u);
}

TEST_F(SessionTableTest, DrainedHookRacesSessionChurnCleanly) {
  // The pipeline exit bumps drained cells on the merger thread while the
  // ordering thread publishes and retires them.
  std::atomic<bool> stop{false};
  const std::vector<sensors::Record> run(1, record_of(kNode));
  std::thread merger([&] {
    while (!stop.load(std::memory_order_relaxed)) table_.note_records_drained(run);
  });
  for (std::uint64_t incarnation = 0; incarnation < 200; ++incarnation) {
    table_.hello(kNode, incarnation, tp::kCreditProtocolVersion, false);
    table_.admitted(kNode, 4);
    table_.ack(kNode);
    table_.disconnect(kNode, false, kT0);
    table_.expire(kNode, 0);
  }
  stop.store(true);
  merger.join();
  EXPECT_EQ(table_.size(), 0u);
}

// ---- MergeHeap --------------------------------------------------------------------

class MergeHeapTest : public ::testing::Test {
 protected:
  EventQueue* add_queue(NodeId node) {
    queues_.push_back(std::make_unique<EventQueue>(node));
    EXPECT_TRUE(heap_.add_queue(queues_.back().get()));
    return queues_.back().get();
  }
  std::vector<std::unique_ptr<EventQueue>> queues_;
  MergeHeap heap_;
};

TEST_F(MergeHeapTest, MergesSortedStreams) {
  EventQueue* q0 = add_queue(0);
  EventQueue* q1 = add_queue(1);
  EventQueue* q2 = add_queue(2);
  for (TimeMicros ts : {10, 40, 70}) q0->push(make_record(0, ts));
  for (TimeMicros ts : {20, 50, 80}) q1->push(make_record(1, ts));
  for (TimeMicros ts : {30, 60, 90}) q2->push(make_record(2, ts));
  heap_.notify_pushed(0);
  heap_.notify_pushed(1);
  heap_.notify_pushed(2);

  std::vector<TimeMicros> merged;
  while (heap_.has_min()) {
    auto popped = heap_.pop_min();
    ASSERT_TRUE(popped.is_ok());
    merged.push_back(popped.value().timestamp);
  }
  EXPECT_EQ(merged, (std::vector<TimeMicros>{10, 20, 30, 40, 50, 60, 70, 80, 90}));
}

TEST_F(MergeHeapTest, MinTimestampTracksHeads) {
  EventQueue* q0 = add_queue(0);
  EventQueue* q1 = add_queue(1);
  q0->push(make_record(0, 500));
  heap_.notify_pushed(0);
  EXPECT_EQ(heap_.min_timestamp(), 500);
  q1->push(make_record(1, 100));
  heap_.notify_pushed(1);
  EXPECT_EQ(heap_.min_timestamp(), 100);
}

TEST_F(MergeHeapTest, DuplicateQueueRejected) {
  add_queue(7);
  EventQueue other(7);
  EXPECT_EQ(heap_.add_queue(&other).code(), Errc::already_exists);
}

TEST_F(MergeHeapTest, RemoveQueueDropsItsEntry) {
  EventQueue* q0 = add_queue(0);
  EventQueue* q1 = add_queue(1);
  q0->push(make_record(0, 10));
  q1->push(make_record(1, 20));
  heap_.notify_pushed(0);
  heap_.notify_pushed(1);
  ASSERT_TRUE(heap_.remove_queue(0));
  EXPECT_EQ(heap_.min_timestamp(), 20);
  EXPECT_EQ(heap_.queue_count(), 1u);
}

TEST_F(MergeHeapTest, PopOnEmptyFails) {
  EXPECT_FALSE(heap_.pop_min().is_ok());
  EXPECT_FALSE(heap_.has_min());
}

TEST_F(MergeHeapTest, NotifyPushedIdempotent) {
  EventQueue* q0 = add_queue(0);
  q0->push(make_record(0, 10));
  heap_.notify_pushed(0);
  heap_.notify_pushed(0);
  heap_.notify_pushed(0);
  auto first = heap_.pop_min();
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(heap_.has_min()) << "only one heap entry per queue";
}

TEST_F(MergeHeapTest, EqualTimestampsTieBreakByNode) {
  EventQueue* q0 = add_queue(2);
  EventQueue* q1 = add_queue(1);
  q0->push(make_record(2, 100));
  q1->push(make_record(1, 100));
  heap_.notify_pushed(2);
  heap_.notify_pushed(1);
  auto first = heap_.pop_min();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().node, 1u) << "deterministic tie break by node id";
}

TEST_F(MergeHeapTest, PendingCountsAllQueues) {
  EventQueue* q0 = add_queue(0);
  EventQueue* q1 = add_queue(1);
  for (int i = 0; i < 3; ++i) q0->push(make_record(0, i));
  q1->push(make_record(1, 9));
  EXPECT_EQ(heap_.pending(), 4u);
}

// ---- OnlineSorter ------------------------------------------------------------------

class SorterTest : public ::testing::Test {
 protected:
  OnlineSorter make_sorter(SorterConfig config) {
    return OnlineSorter(config, clock_, [this](const Record& record) {
      emitted_.push_back(record);
    });
  }
  clk::ManualClock clock_{0};
  std::vector<Record> emitted_;
};

TEST_F(SorterTest, DelaysRecordsForTimeFrame) {
  auto sorter = make_sorter({.initial_frame_us = 1'000, .adaptive = false});
  clock_.set(10'000);
  ASSERT_TRUE(sorter.push(make_record(0, 10'000)));
  sorter.service();
  EXPECT_TRUE(emitted_.empty()) << "within the delay window";
  clock_.set(10'999);
  sorter.service();
  EXPECT_TRUE(emitted_.empty());
  clock_.set(11'000);
  sorter.service();
  ASSERT_EQ(emitted_.size(), 1u) << "released at ts + T";
}

TEST_F(SorterTest, ReordersWithinWindow) {
  auto sorter = make_sorter({.initial_frame_us = 10'000, .adaptive = false});
  clock_.set(100'000);
  // Node 1's record is older but arrives later.
  ASSERT_TRUE(sorter.push(make_record(0, 100'000)));
  ASSERT_TRUE(sorter.push(make_record(1, 99'000)));
  clock_.set(120'000);
  sorter.service();
  ASSERT_EQ(emitted_.size(), 2u);
  EXPECT_EQ(emitted_[0].timestamp, 99'000);
  EXPECT_EQ(emitted_[1].timestamp, 100'000);
  EXPECT_EQ(sorter.stats().out_of_order_emissions, 0u);
}

TEST_F(SorterTest, DetectsOutOfOrderEmissionAndRaisesFrame) {
  auto sorter = make_sorter(
      {.initial_frame_us = 100, .min_frame_us = 100, .max_frame_us = 1'000'000});
  clock_.set(1'000);
  ASSERT_TRUE(sorter.push(make_record(0, 1'000)));
  clock_.set(2'000);
  sorter.service();  // emits ts=1000
  ASSERT_EQ(emitted_.size(), 1u);
  // A record 700 µs older than the last emission arrives late.
  ASSERT_TRUE(sorter.push(make_record(1, 300)));
  clock_.set(3'000);
  sorter.service();
  ASSERT_EQ(emitted_.size(), 2u);
  EXPECT_EQ(sorter.stats().out_of_order_emissions, 1u);
  EXPECT_EQ(sorter.stats().max_lateness_us, 700);
  EXPECT_GE(sorter.current_frame(), 690) << "T raised to ~the observed lateness";
  EXPECT_EQ(sorter.stats().frame_raises, 1u);
}

TEST_F(SorterTest, NonAdaptiveKeepsFrameFixed) {
  auto sorter = make_sorter({.initial_frame_us = 100, .adaptive = false});
  clock_.set(1'000);
  ASSERT_TRUE(sorter.push(make_record(0, 1'000)));
  clock_.set(2'000);
  sorter.service();
  ASSERT_TRUE(sorter.push(make_record(1, 300)));
  clock_.set(3'000);
  sorter.service();
  EXPECT_EQ(sorter.stats().out_of_order_emissions, 1u);
  EXPECT_EQ(sorter.current_frame(), 100) << "fixed T never moves";
  EXPECT_EQ(sorter.stats().frame_raises, 0u);
}

TEST_F(SorterTest, FrameDecaysExponentially) {
  auto sorter = make_sorter({.initial_frame_us = 100'000,
                             .min_frame_us = 1'000,
                             .decay_half_life_s = 1.0});
  // One half-life after construction (t=0): (100000-1000)/2 + 1000 = 50500.
  clock_.set(1'000'000);
  sorter.service();
  EXPECT_NEAR(static_cast<double>(sorter.current_frame()), 50'500.0, 500.0);
  // A second half-life: (100000-1000)/4 + 1000 = 25750.
  clock_.set(2'000'000);
  sorter.service();
  EXPECT_NEAR(static_cast<double>(sorter.current_frame()), 25'750.0, 500.0);
  // Many half-lives: converges to the floor.
  clock_.set(60'000'000);
  sorter.service();
  EXPECT_NEAR(static_cast<double>(sorter.current_frame()), 1'000.0, 50.0);
}

TEST_F(SorterTest, FrameRaiseCappedAtMax) {
  auto sorter = make_sorter(
      {.initial_frame_us = 100, .min_frame_us = 100, .max_frame_us = 5'000});
  clock_.set(1'000'000);
  ASSERT_TRUE(sorter.push(make_record(0, 1'000'000)));
  clock_.set(1'100'000);
  sorter.service();
  ASSERT_TRUE(sorter.push(make_record(1, 10)));  // enormous lateness
  clock_.set(2'000'000);
  sorter.service();
  EXPECT_LE(sorter.current_frame(), 5'000);
}

TEST_F(SorterTest, PerNodeFifoPreservedEvenWhenLate) {
  auto sorter = make_sorter({.initial_frame_us = 1'000});
  clock_.set(10'000);
  ASSERT_TRUE(sorter.push(make_record(0, 10'000)));
  ASSERT_TRUE(sorter.push(make_record(0, 9'000)));  // same node, older ts later
  clock_.set(50'000);
  sorter.service();
  ASSERT_EQ(emitted_.size(), 2u);
  EXPECT_EQ(emitted_[0].timestamp, 10'000) << "queue order within a node wins";
  EXPECT_EQ(emitted_[1].timestamp, 9'000);
}

TEST_F(SorterTest, OverflowEmitEarly) {
  auto sorter = make_sorter({.initial_frame_us = 1'000'000,
                             .max_pending = 10,
                             .overflow = OverflowPolicy::emit_early});
  clock_.set(0);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(sorter.push(make_record(0, i)));
  }
  EXPECT_LE(sorter.pending(), 10u);
  EXPECT_EQ(sorter.stats().overflow_emits, 5u);
  EXPECT_EQ(emitted_.size(), 5u) << "released despite the delay window";
}

TEST_F(SorterTest, OverflowDropNewest) {
  auto sorter = make_sorter({.initial_frame_us = 1'000'000,
                             .max_pending = 10,
                             .overflow = OverflowPolicy::drop_newest});
  clock_.set(0);
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(sorter.push(make_record(0, i)));
  EXPECT_EQ(sorter.pending(), 10u);
  EXPECT_EQ(sorter.stats().overflow_drops, 5u);
  EXPECT_TRUE(emitted_.empty());
}

TEST_F(SorterTest, OverflowDropOldest) {
  auto sorter = make_sorter({.initial_frame_us = 1'000'000,
                             .max_pending = 10,
                             .overflow = OverflowPolicy::drop_oldest});
  clock_.set(0);
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(sorter.push(make_record(0, i)));
  EXPECT_EQ(sorter.pending(), 10u);
  EXPECT_EQ(sorter.stats().overflow_drops, 5u);
  sorter.flush_all();
  ASSERT_EQ(emitted_.size(), 10u);
  EXPECT_EQ(emitted_[0].timestamp, 5) << "the 5 oldest were dropped";
}

TEST_F(SorterTest, FlushAllEmitsEverythingInOrder) {
  auto sorter = make_sorter({.initial_frame_us = 1'000'000'000});
  clock_.set(0);
  ASSERT_TRUE(sorter.push(make_record(0, 30)));
  ASSERT_TRUE(sorter.push(make_record(1, 10)));
  ASSERT_TRUE(sorter.push(make_record(2, 20)));
  sorter.flush_all();
  ASSERT_EQ(emitted_.size(), 3u);
  EXPECT_EQ(emitted_[0].timestamp, 10);
  EXPECT_EQ(emitted_[2].timestamp, 30);
  EXPECT_EQ(sorter.pending(), 0u);
}

TEST_F(SorterTest, TotalDelayAccumulates) {
  auto sorter = make_sorter({.initial_frame_us = 1'000, .adaptive = false});
  clock_.set(10'000);
  ASSERT_TRUE(sorter.push(make_record(0, 10'000)));
  clock_.set(12'000);
  sorter.service();
  EXPECT_EQ(sorter.stats().total_delay_us, 2'000u);
}

TEST_F(SorterTest, NextDueInReflectsWindow) {
  auto sorter = make_sorter({.initial_frame_us = 1'000, .adaptive = false});
  clock_.set(5'000);
  ASSERT_TRUE(sorter.push(make_record(0, 5'000)));
  EXPECT_EQ(sorter.next_due_in(), 1'000);
  clock_.set(6'500);
  EXPECT_LT(sorter.next_due_in(), 0);
}

// ---- CreMatcher -------------------------------------------------------------------

class CreTest : public ::testing::Test {
 protected:
  CreMatcher make_matcher(CreConfig config = {.hold_timeout_us = 10'000,
                                              .repair_margin_us = 1}) {
    return CreMatcher(config, clock_, [this] { ++extra_rounds_; });
  }
  clk::ManualClock clock_{1'000'000};
  int extra_rounds_ = 0;
  std::vector<Record> out_;
};

TEST_F(CreTest, UnmarkedRecordsPassThrough) {
  auto matcher = make_matcher();
  matcher.process(make_record(0, 100), out_);
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(matcher.stats().reasons_seen, 0u);
}

TEST_F(CreTest, ReasonThenConsequenceInOrder) {
  auto matcher = make_matcher();
  matcher.process(reason_record(0, 100, 7), out_);
  matcher.process(conseq_record(1, 200, 7), out_);
  ASSERT_EQ(out_.size(), 2u);
  EXPECT_EQ(out_[1].timestamp, 200) << "correctly ordered pair is untouched";
  EXPECT_EQ(matcher.stats().matched, 1u);
  EXPECT_EQ(matcher.stats().tachyons_repaired, 0u);
  EXPECT_EQ(extra_rounds_, 0);
}

TEST_F(CreTest, TachyonConsequenceAfterReasonIsRepaired) {
  auto matcher = make_matcher();
  matcher.process(reason_record(0, 500, 7), out_);
  matcher.process(conseq_record(1, 400, 7), out_);  // before its reason!
  ASSERT_EQ(out_.size(), 2u);
  EXPECT_EQ(out_[1].timestamp, 501) << "overridden by a larger value";
  EXPECT_EQ(matcher.stats().tachyons_repaired, 1u);
  EXPECT_EQ(extra_rounds_, 1) << "extra clock sync round requested";
}

TEST_F(CreTest, ConsequenceWaitsForReason) {
  auto matcher = make_matcher();
  matcher.process(conseq_record(1, 400, 9), out_);
  EXPECT_TRUE(out_.empty()) << "held until the reason arrives";
  EXPECT_EQ(matcher.held_count(), 1u);

  matcher.process(reason_record(0, 300, 9), out_);
  ASSERT_EQ(out_.size(), 2u) << "released consequence + the reason itself";
  EXPECT_EQ(matcher.held_count(), 0u);
  // conseq ts 400 > reason ts 300: no repair needed.
  EXPECT_EQ(matcher.stats().tachyons_repaired, 0u);
}

TEST_F(CreTest, WaitingTachyonRepairedWhenReasonArrives) {
  auto matcher = make_matcher();
  matcher.process(conseq_record(1, 200, 9), out_);
  matcher.process(reason_record(0, 300, 9), out_);
  ASSERT_EQ(out_.size(), 2u);
  // `out` order is sink order (the matcher runs behind the merge): the
  // reason leaves first, then the released consequence, repaired past it.
  EXPECT_TRUE(out_[0].reason_id().has_value());
  const Record& conseq = out_[1];
  ASSERT_TRUE(conseq.conseq_id().has_value());
  EXPECT_EQ(conseq.timestamp, 301);
  EXPECT_EQ(matcher.stats().tachyons_repaired, 1u);
  EXPECT_EQ(extra_rounds_, 1);
}

TEST_F(CreTest, MultipleConsequencesSameReason) {
  auto matcher = make_matcher();
  matcher.process(conseq_record(1, 100, 5), out_);
  matcher.process(conseq_record(2, 150, 5), out_);
  EXPECT_EQ(matcher.held_count(), 2u);
  matcher.process(reason_record(0, 120, 5), out_);
  ASSERT_EQ(out_.size(), 3u);
  EXPECT_EQ(matcher.stats().matched, 2u);
  EXPECT_EQ(matcher.stats().tachyons_repaired, 1u) << "only the ts=100 conseq is a tachyon";
}

TEST_F(CreTest, HoldTimeoutReleasesUnmatched) {
  auto matcher = make_matcher({.hold_timeout_us = 5'000, .repair_margin_us = 1});
  matcher.process(conseq_record(1, 100, 11), out_);
  EXPECT_TRUE(out_.empty());
  clock_.advance(4'999);
  matcher.service(out_);
  EXPECT_TRUE(out_.empty());
  clock_.advance(1);
  matcher.service(out_);
  ASSERT_EQ(out_.size(), 1u) << "its peer may have been dropped — release";
  EXPECT_EQ(matcher.stats().hold_timeouts, 1u);
  EXPECT_EQ(matcher.held_count(), 0u);
}

TEST_F(CreTest, ReasonTableExpires) {
  auto matcher = make_matcher({.hold_timeout_us = 5'000, .repair_margin_us = 1});
  matcher.process(reason_record(0, 100, 13), out_);
  EXPECT_EQ(matcher.reason_table_size(), 1u);
  clock_.advance(6'000);
  matcher.service(out_);
  EXPECT_EQ(matcher.reason_table_size(), 0u);
  // A consequence arriving after expiry must wait (and eventually time out).
  out_.clear();
  matcher.process(conseq_record(1, 200, 13), out_);
  EXPECT_TRUE(out_.empty());
}

TEST_F(CreTest, RepairMarginConfigurable) {
  auto matcher = make_matcher({.hold_timeout_us = 10'000, .repair_margin_us = 50});
  matcher.process(reason_record(0, 1'000, 3), out_);
  matcher.process(conseq_record(1, 900, 3), out_);
  EXPECT_EQ(out_[1].timestamp, 1'050);
}

TEST_F(CreTest, RecordWithBothMarksActsAsReason) {
  // A record can be the consequence of one chain and the reason of another;
  // our dispatcher routes by the first system field present: reason wins.
  auto matcher = make_matcher();
  Record both = make_record(0, 100);
  both.fields = {Field::reason(21), Field::conseq(22)};
  matcher.process(both, out_);
  EXPECT_EQ(out_.size(), 1u);
  EXPECT_EQ(matcher.stats().reasons_seen, 1u);
}

// ---- TokenBucket -------------------------------------------------------------------

TEST(TokenBucketTest, AdmitsUpToBurst) {
  TokenBucket bucket(1'000.0, 5.0);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (bucket.admit(1'000'000)) ++admitted;
  }
  EXPECT_EQ(admitted, 5);
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket bucket(1'000.0, 5.0);  // 1 token per ms
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(bucket.admit(1'000'000));
  EXPECT_FALSE(bucket.admit(1'000'000));
  EXPECT_TRUE(bucket.admit(1'002'000)) << "2 ms later there are tokens again";
}

TEST(TokenBucketTest, CapsAtBurst) {
  TokenBucket bucket(1'000'000.0, 3.0);
  ASSERT_TRUE(bucket.admit(0));
  // A long quiet period cannot bank more than `burst` tokens.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (bucket.admit(100'000'000)) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
}

// ---- output sinks ---------------------------------------------------------------------

TEST(OutputTest, ShmSinkRoundTripsThroughRing) {
  test::RingMemory memory(shm::RingBuffer::region_size(64 * 1024));
  auto ring = shm::RingBuffer::init(memory.data(), 64 * 1024);
  ASSERT_TRUE(ring.is_ok());
  ShmSink sink(ring.value());

  Record record = make_record(9, 1'234, 5);
  ASSERT_TRUE(sink.accept(record));
  EXPECT_EQ(sink.delivered(), 1u);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(ring.value().try_pop(bytes));
  auto decoded = decode_output_record(ByteSpan{bytes.data(), bytes.size()});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node, 9u);
  EXPECT_EQ(decoded.value().timestamp, 1'234);
}

TEST(OutputTest, ShmSinkCountsDropsWhenRingFull) {
  test::RingMemory memory(shm::RingBuffer::region_size(128));
  auto ring = shm::RingBuffer::init(memory.data(), 128);
  ASSERT_TRUE(ring.is_ok());
  ShmSink sink(ring.value());
  Record record = make_record(1, 1);
  Status last = Status::ok();
  for (int i = 0; i < 20; ++i) last = sink.accept(record);
  EXPECT_EQ(last.code(), Errc::buffer_full);
  EXPECT_GT(sink.dropped(), 0u);
}

TEST(OutputTest, ShmSinkRunCountsExactlyTheRefusedRecordsAsDropped) {
  test::RingMemory memory(shm::RingBuffer::region_size(256));
  auto ring = shm::RingBuffer::init(memory.data(), 256);
  ASSERT_TRUE(ring.is_ok());
  ShmSink sink(ring.value());
  std::vector<Record> run;
  for (TimeMicros ts = 0; ts < 20; ++ts) run.push_back(make_record(1, ts));

  const RunResult result = sink.accept_run(run);
  EXPECT_EQ(result.status.code(), Errc::buffer_full) << "the ring fills mid-run";
  ASSERT_GT(result.accepted, 0u);
  ASSERT_LT(result.accepted, run.size());
  EXPECT_EQ(sink.delivered(), result.accepted);
  EXPECT_EQ(sink.dropped(), run.size() - result.accepted);
  EXPECT_EQ(ring.value().stats().pushed, result.accepted);
  EXPECT_EQ(ring.value().stats().dropped, sink.dropped());
  // Equal-size records: the ring took exactly the head of the run.
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < result.accepted; ++i) {
    bytes.clear();
    ASSERT_TRUE(ring.value().try_pop(bytes));
    auto decoded = decode_output_record(ByteSpan{bytes.data(), bytes.size()});
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().timestamp, run[i].timestamp);
  }
  EXPECT_TRUE(ring.value().empty());
}

// The output stream as consumers see it: no fields, the 6 x i32 workload
// shape, 16 maximum-length strings, and a full trace tail.
std::vector<Record> mixed_output_stream() {
  std::vector<Record> stream;
  Record empty = make_record(1, 10);
  empty.fields.clear();
  stream.push_back(empty);
  Record ints = make_record(2, 20, 7);
  ints.fields.assign(6, Field::i32(-123'456));
  stream.push_back(ints);
  Record strings = make_record(3'000'000'000u, 30, 65'000);
  strings.fields.clear();
  for (std::size_t i = 0; i < sensors::kMaxFieldsPerRecord; ++i) {
    strings.fields.push_back(
        Field::str(std::string(sensors::kMaxStringFieldBytes, static_cast<char>('a' + i))));
  }
  stream.push_back(strings);
  Record traced = make_record(4, 40, 9);
  traced.trace = sensors::TraceAnnotation{0x1234'5678'9abc'def0ULL, {}};
  for (std::size_t i = 0; i < sensors::kMaxTraceStamps; ++i) {
    traced.trace->stamps.push_back({static_cast<sensors::TraceStage>(i % sensors::kTraceStageCount),
                                    static_cast<TimeMicros>(40 + i)});
  }
  stream.push_back(traced);
  return stream;
}

TEST(OutputTest, ShmSinkWritesTheReferenceEncodingByteForByte) {
  constexpr std::size_t kCapacity = 16 * 1024;
  test::RingMemory memory_a(shm::RingBuffer::region_size(kCapacity));
  test::RingMemory memory_b(shm::RingBuffer::region_size(kCapacity));
  auto ring_a = shm::RingBuffer::init(memory_a.data(), kCapacity);
  auto ring_b = shm::RingBuffer::init(memory_b.data(), kCapacity);
  ASSERT_TRUE(ring_a.is_ok());
  ASSERT_TRUE(ring_b.is_ok());
  ShmSink sink(ring_a.value());
  const std::vector<Record> stream = mixed_output_stream();
  for (int round = 0; round < 8; ++round) {  // enough to wrap the ring's data area
    for (const Record& record : stream) {
      ASSERT_TRUE(sink.accept(record));
      auto reference = encode_output_record(record);
      ASSERT_TRUE(reference.is_ok());
      ASSERT_TRUE(ring_b.value().try_push(reference.value().view()));
    }
    // Drain both rings the same way so later rounds wrap; what the sink
    // wrote decodes back to the records it was given.
    std::vector<std::uint8_t> bytes;
    for (const Record& record : stream) {
      bytes.clear();
      ASSERT_TRUE(ring_a.value().try_pop(bytes));
      auto decoded = decode_output_record(ByteSpan{bytes.data(), bytes.size()});
      ASSERT_TRUE(decoded.is_ok());
      EXPECT_EQ(decoded.value(), record);
      bytes.clear();
      ASSERT_TRUE(ring_b.value().try_pop(bytes));
    }
  }
  for (const Record& record : stream) ASSERT_TRUE(sink.accept(record));
  for (const Record& record : stream) {
    ASSERT_TRUE(ring_b.value().try_push(encode_output_record(record).value().view()));
  }
  EXPECT_EQ(sink.delivered(), 9 * stream.size());
  EXPECT_EQ(std::memcmp(memory_a.data(), memory_b.data(), memory_a.size()), 0);
}

TEST(OutputTest, ShmSinkRejectsAnUnencodableRecordWithoutTouchingTheRing) {
  constexpr std::size_t kCapacity = 64 * 1024;
  test::RingMemory memory(shm::RingBuffer::region_size(kCapacity));
  auto ring = shm::RingBuffer::init(memory.data(), kCapacity);
  ASSERT_TRUE(ring.is_ok());
  ShmSink sink(ring.value());
  ASSERT_TRUE(sink.accept(make_record(1, 1)));
  const auto* header = reinterpret_cast<const shm::RingBuffer::Header*>(memory.data());
  const std::uint64_t head = header->head.load();
  const shm::RingStats before = ring.value().stats();

  Record wide = make_record(1, 2);
  wide.fields.assign(sensors::kMaxFieldsPerRecord + 1, Field::i32(5));
  EXPECT_EQ(sink.accept(wide).code(), Errc::buffer_full);
  EXPECT_EQ(encode_output_record(wide).status().code(), Errc::buffer_full);

  EXPECT_EQ(header->head.load(), head);
  EXPECT_EQ(ring.value().stats().pushed, before.pushed);
  EXPECT_EQ(ring.value().stats().dropped, before.dropped);
  EXPECT_EQ(sink.delivered(), 1u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(OutputTest, EncodeDecodeOutputRecordPreservesNode) {
  Record record = make_record(4'000'000, 77);
  auto encoded = encode_output_record(record);
  ASSERT_TRUE(encoded.is_ok());
  auto decoded = decode_output_record(encoded.value().view());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node, 4'000'000u);
}

TEST(OutputTest, DecodeOutputRecordRejectsShortBuffer) {
  const std::uint8_t tiny[] = {1, 2};
  EXPECT_EQ(decode_output_record(ByteSpan{tiny, 2}).status().code(), Errc::truncated);
}

// ---- parameterized: decay half-life sweep ------------------------------------------------

class DecaySweep : public ::testing::TestWithParam<double> {};

TEST_P(DecaySweep, LongerHalfLifeDecaysSlower) {
  clk::ManualClock clock(0);
  SorterConfig config{.initial_frame_us = 64'000, .min_frame_us = 0,
                      .decay_half_life_s = GetParam()};
  OnlineSorter sorter(config, clock, [](const Record&) {});
  clock.set(1'000'000);  // 1 s elapsed
  sorter.service();
  const double expected = 64'000.0 * std::exp2(-1.0 / GetParam());
  EXPECT_NEAR(static_cast<double>(sorter.current_frame()), expected, expected * 0.02 + 10);
}

INSTANTIATE_TEST_SUITE_P(HalfLives, DecaySweep, ::testing::Values(0.25, 0.5, 1.0, 2.0, 8.0));

// ---- OrderingPipeline --------------------------------------------------------------

/// Thread-safe capture of everything the pipeline's sink receives (the
/// merger thread delivers when shards > 1).
struct PipelineCapture {
  std::mutex mutex;
  std::vector<Record> records;
  std::atomic<int> tachyons{0};

  OrderingPipeline::SinkFn sink() {
    return [this](const sensors::Record& r) {
      std::lock_guard<std::mutex> lock(mutex);
      records.push_back(r);
    };
  }
  OrderingPipeline::FlushFn flush() {
    return [] {};
  }
  OrderingPipeline::TachyonFn on_tachyon() {
    return [this] { tachyons.fetch_add(1); };
  }
  std::vector<Record> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return records;
  }
};

TEST(ShardOfNodeTest, StableInRangeAndSpreading) {
  EXPECT_EQ(shard_of_node(12345, 1), 0u);
  std::vector<int> hits(4, 0);
  for (NodeId node = 0; node < 1000; ++node) {
    const std::size_t shard = shard_of_node(node, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, shard_of_node(node, 4)) << "assignment must be stable";
    ++hits[shard];
  }
  for (int shard_hits : hits) {
    EXPECT_GT(shard_hits, 100) << "striding node ids must spread over all shards";
  }
}

TEST(OrderingPipelineTest, InlineSortsAcrossNodes) {
  clk::ManualClock clock(1'000'000);
  PipelineConfig config;
  config.sorter.initial_frame_us = 10'000;
  config.sorter.adaptive = false;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  EXPECT_FALSE(pipeline.threaded());

  ASSERT_TRUE(pipeline.submit(make_record(1, 1'000'300)));
  ASSERT_TRUE(pipeline.submit(make_record(2, 1'000'100)));
  ASSERT_TRUE(pipeline.submit(make_record(1, 1'000'500)));
  EXPECT_EQ(pipeline.service(), 10'100) << "the earliest record falls due at ts + T";
  EXPECT_TRUE(capture.snapshot().empty()) << "inside the delay window";

  clock.set(1'011'000);
  pipeline.service();
  const auto records = capture.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].timestamp, 1'000'100);
  EXPECT_EQ(records[1].timestamp, 1'000'300);
  EXPECT_EQ(records[2].timestamp, 1'000'500);
  EXPECT_EQ(pipeline.stats().submitted, 3u);
  EXPECT_EQ(pipeline.stats().merged, 3u);
}

TEST(OrderingPipelineTest, RemoveNodeDrainsOutOfBandInline) {
  clk::ManualClock clock(1'000'000);
  PipelineConfig config;
  config.sorter.initial_frame_us = 1'000'000;  // hold everything
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  ASSERT_TRUE(pipeline.submit(make_record(7, 1'000'010)));
  ASSERT_TRUE(pipeline.submit(make_record(7, 1'000'020)));
  ASSERT_TRUE(pipeline.submit(make_record(7, 1'000'030)));
  ASSERT_TRUE(pipeline.submit(make_record(1, 1'000'001)));

  EXPECT_EQ(pipeline.remove_node(7), 3u);
  auto records = capture.snapshot();
  ASSERT_EQ(records.size(), 3u) << "expired node drains immediately, out of band";
  for (const Record& r : records) EXPECT_EQ(r.node, 7u);
  EXPECT_EQ(pipeline.stats().oob_records, 3u);

  ASSERT_TRUE(pipeline.drain());
  records = capture.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().node, 1u) << "live node flushed by drain";
}

// The tentpole's determinism claim at unit level: whatever the shard count,
// draining the same per-node FIFO streams yields the same (timestamp, node)
// sequence the single monolithic sorter produces.
TEST(OrderingPipelineTest, DrainOrderIdenticalAcrossShardCounts) {
  constexpr int kNodes = 8;
  constexpr int kPerNode = 25;
  const TimeMicros base = clk::SystemClock::instance().now();

  std::vector<std::vector<std::pair<TimeMicros, NodeId>>> outputs;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    PipelineConfig config;
    config.shards = shards;
    config.shard_queue_records = 64;  // small lanes, exercise the spill paths
    config.sorter.initial_frame_us = 120'000'000;  // hold everything until drain
    config.sorter.max_frame_us = 120'000'000;
    config.sorter.adaptive = false;
    PipelineCapture capture;
    OrderingPipeline pipeline(config, clk::SystemClock::instance(), capture.sink(),
                              capture.flush(), capture.on_tachyon());
    EXPECT_EQ(pipeline.shard_count(), shards);
    EXPECT_EQ(pipeline.threaded(), shards > 1);
    for (int i = 0; i < kPerNode; ++i) {
      for (NodeId node = 1; node <= kNodes; ++node) {
        // Node n owns timestamps n, n + kNodes, ... — all distinct, fully
        // interleaved across nodes (and so across shards).
        ASSERT_TRUE(pipeline.submit(
            make_record(node, base + TimeMicros(node) + TimeMicros(i) * kNodes)));
      }
    }
    ASSERT_TRUE(pipeline.drain());
    std::vector<std::pair<TimeMicros, NodeId>> sequence;
    for (const Record& r : capture.snapshot()) sequence.emplace_back(r.timestamp, r.node);
    EXPECT_EQ(pipeline.stats().merged, std::uint64_t(kNodes) * kPerNode);
    outputs.push_back(std::move(sequence));
  }

  ASSERT_EQ(outputs[0].size(), std::size_t(kNodes) * kPerNode);
  EXPECT_TRUE(std::is_sorted(outputs[0].begin(), outputs[0].end()));
  for (std::size_t m = 1; m < outputs.size(); ++m) {
    EXPECT_EQ(outputs[m], outputs[0]) << "shard count must not change the order";
  }
}

// X_REASON/X_CONSEQ pairs may span shards, which is exactly why the CRE
// matcher sits behind the k-way merge. A tachyon consequence (timestamp
// before its reason) emerges from the merge first, is held globally, and is
// released repaired once the reason passes.
TEST(OrderingPipelineTest, CrossShardTachyonRepairedBehindMerge) {
  constexpr std::size_t kShards = 4;
  // Two nodes that land on different shards.
  const NodeId reason_node = 1;
  NodeId conseq_node = 2;
  while (shard_of_node(conseq_node, kShards) == shard_of_node(reason_node, kShards)) {
    ++conseq_node;
  }
  const TimeMicros base = clk::SystemClock::instance().now();
  PipelineConfig config;
  config.shards = kShards;
  config.sorter.initial_frame_us = 120'000'000;
  config.sorter.max_frame_us = 120'000'000;
  config.sorter.adaptive = false;
  config.cre.repair_margin_us = 1;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clk::SystemClock::instance(), capture.sink(),
                            capture.flush(), capture.on_tachyon());

  ASSERT_TRUE(pipeline.submit(conseq_record(conseq_node, base - 1'000, 42)));
  ASSERT_TRUE(pipeline.submit(reason_record(reason_node, base, 42)));
  ASSERT_TRUE(pipeline.drain());

  const auto records = capture.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].node, reason_node) << "reason must reach the sink first";
  EXPECT_EQ(records[1].node, conseq_node);
  EXPECT_EQ(records[1].timestamp, base + 1) << "consequence repaired past its reason";
  EXPECT_EQ(pipeline.cre_stats().tachyons_repaired, 1u);
  EXPECT_EQ(capture.tachyons.load(), 1);
}

// The merge gates a relay lane's records on every empty shard lane's
// watermark, and an idle shard worker republishes its watermark only once
// per poll timeout. A relay frame must wake the shards, and a shard that
// advanced its watermark must wake the merger.
TEST(OrderingPipelineTest, RelayRecordIsNotHeldBackByAnIdleShardsStaleWatermark) {
  clk::Clock& clock = clk::SystemClock::instance();
  PipelineConfig config;
  config.shards = 2;
  config.poll_timeout_us = 200'000;
  config.sorter.initial_frame_us = 1'000;
  config.sorter.min_frame_us = 1'000;
  config.sorter.adaptive = false;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  const std::size_t lane = pipeline.add_relay_lane(nullptr);
  sleep_micros(5'000);
  // Newer than the watermark the idle shards published at start-up, older
  // than the one they would publish now (now - T).
  const TimeMicros ts = clock.now() - 2'000;
  std::vector<Record> batch;
  batch.push_back(make_record(100, ts));
  const TimeMicros submitted_at = monotonic_micros();
  ASSERT_TRUE(pipeline.submit_relay(lane, std::move(batch), ts));
  while (capture.snapshot().empty() && monotonic_micros() - submitted_at < 1'000'000) {
    sleep_micros(1'000);
  }
  const TimeMicros waited = monotonic_micros() - submitted_at;
  ASSERT_EQ(capture.snapshot().size(), 1u) << "relay record never delivered";
  EXPECT_LT(waited, 100'000) << "held back until the shards' next 200 ms poll";
}

// Without workers the ordering thread is the output lane's only consumer,
// so a full lane must not spin it: it merges, and while a lagging relay
// watermark gates the merge it spills behind the lane. Once the relay
// catches up every record comes out in (timestamp, node) order.
TEST(OrderingPipelineTest, OrderingThreadSpillsBehindAFullLaneWhileTheMergeIsGated) {
  clk::ManualClock clock(1'000'000);
  PipelineConfig config;
  config.shard_queue_records = 4;
  config.sorter.initial_frame_us = 1'000;
  config.sorter.min_frame_us = 1'000;
  config.sorter.adaptive = false;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  EXPECT_FALSE(pipeline.threaded());
  const std::size_t lane = pipeline.add_relay_lane(nullptr);
  for (TimeMicros i = 0; i < 6; ++i) {
    ASSERT_TRUE(pipeline.submit(make_record(1, 1'000'100 + i * 10)));
    ASSERT_TRUE(pipeline.submit(make_record(2, 1'000'100 + i * 10)));
  }
  clock.set(1'010'000);  // all 12 due: three times the lane depth
  EXPECT_EQ(pipeline.service(), -1) << "the sorter emitted everything";
  EXPECT_TRUE(capture.snapshot().empty()) << "the relay lane has promised nothing yet";

  std::vector<Record> relay;
  relay.push_back(make_record(50, 1'000'105));
  relay.push_back(make_record(50, 1'000'200));
  ASSERT_TRUE(pipeline.submit_relay(lane, std::move(relay), 1'000'200));
  pipeline.service();
  const auto records = capture.snapshot();
  ASSERT_EQ(records.size(), 14u);
  std::vector<std::pair<TimeMicros, NodeId>> keys;
  for (const Record& r : records) keys.emplace_back(r.timestamp, r.node);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys[2], std::make_pair(TimeMicros{1'000'105}, NodeId{50}));
  EXPECT_EQ(pipeline.stats().merge_inversions, 0u);
}

std::vector<std::pair<TimeMicros, NodeId>> keys_of(const std::vector<Record>& records) {
  std::vector<std::pair<TimeMicros, NodeId>> keys;
  for (const Record& r : records) keys.emplace_back(r.timestamp, r.node);
  return keys;
}

/// A clock that moves on by `step` after every reading: time passes
/// between any two reads inside the pipeline.
class SteppingClock final : public clk::Clock {
 public:
  explicit SteppingClock(TimeMicros step) noexcept : step_(step) {}
  TimeMicros now() noexcept override {
    const TimeMicros t = now_;
    now_ += step_;
    return t;
  }
  void set(TimeMicros t) noexcept { now_ = t; }

 private:
  const TimeMicros step_;
  TimeMicros now_ = 0;
};

// A shard's watermark must promise only what its sorter's service pass
// released. Read after the pass, the clock has moved on, and the promise
// covers a record the pass left pending: the merge releases a relay
// record past it, and the shard's record follows as an inversion.
TEST(OrderingPipelineTest, ShardWatermarkPromisesOnlyWhatItsServicePassReleased) {
  SteppingClock clock(1'000);
  PipelineConfig config;
  config.sorter.initial_frame_us = 10'000;
  config.sorter.min_frame_us = 10'000;
  config.sorter.adaptive = false;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  const std::size_t lane = pipeline.add_relay_lane(nullptr);
  ASSERT_TRUE(pipeline.submit(make_record(1, 1'000'500)));
  std::vector<Record> relay;
  relay.push_back(make_record(50, 1'000'800));
  ASSERT_TRUE(pipeline.submit_relay(lane, std::move(relay), 1'000'800));
  // The first pass starts reading the clock at 1'010'000: the shard record
  // (due at 1'010'500 with a 10 ms frame) is not due at that reading, but
  // is at the next one.
  clock.set(1'010'000);
  pipeline.service();
  clock.set(1'020'000);
  pipeline.service();
  const auto keys = keys_of(capture.snapshot());
  const std::vector<std::pair<TimeMicros, NodeId>> expected{{1'000'500, 1}, {1'000'800, 50}};
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(pipeline.stats().merge_inversions, 0u);
}

// merge_inversions counts a merged record that sorts below the one merged
// just before it, as perfbench's checker does. A lane that breaks its
// promise with one early outlier followed by three in-order records below
// it is one inversion, not three: the three are in order with each other.
TEST(OrderingPipelineTest, MergeInversionCountsOneEarlyOutlierOnce) {
  clk::ManualClock clock(2'000'000);
  PipelineConfig config;
  config.sorter.initial_frame_us = 10'000;
  config.sorter.adaptive = false;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  const std::size_t lane = pipeline.add_relay_lane(nullptr);
  std::vector<Record> relay;
  for (TimeMicros ts : {1'000'400, 1'000'100, 1'000'200, 1'000'300}) {
    relay.push_back(make_record(50, ts));
  }
  ASSERT_TRUE(pipeline.submit_relay(lane, std::move(relay), 1'000'400));
  pipeline.service();
  const auto keys = keys_of(capture.snapshot());
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0].first, 1'000'400) << "the lane's order is kept; the merge only counts";
  EXPECT_EQ(pipeline.stats().merge_inversions, 1u);
  EXPECT_EQ(pipeline.release_watermark(), 1'000'400)
      << "the release watermark stays the merge's high-water";
}

// Ism::handle_batch hands each admitted batch to the pipeline as one run,
// with token-bucket drops compacted out in place. Whatever the shard count,
// the run must produce exactly the stream — records, order, trace stamps —
// that per-record submits of the same admitted records produce.
TEST(OrderingPipelineTest, SubmitRunMatchesPerRecordSubmit) {
  constexpr TimeMicros kBase = 1'000'000;
  constexpr int kRecords = 8;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    auto run = [&](bool as_run) {
      clk::ManualClock clock(kBase);
      PipelineConfig config;
      config.shards = shards;
      config.sorter.initial_frame_us = 1'000'000;  // hold everything until drain
      config.sorter.adaptive = false;
      PipelineCapture capture;
      OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                                capture.on_tachyon());
      std::uint64_t dropped = 0;
      for (NodeId node : {NodeId{1}, NodeId{2}, NodeId{3}}) {
        std::vector<Record> batch;
        for (int i = 0; i < kRecords; ++i) {
          batch.push_back(make_record(node, kBase + 10 + i * 3 + TimeMicros(node)));
        }
        batch[2].trace = sensors::TraceAnnotation{node, {}};
        // One token per 10 µs, burst 1: the record read after only 5 µs
        // finds half a token and is dropped, mid-batch.
        TokenBucket bucket(100'000.0, 1.0);
        TimeMicros at = 0;
        std::size_t admitted = 0;
        for (int i = 0; i < kRecords; ++i) {
          at += i == 4 ? 5 : 10;
          if (!bucket.admit(at)) {
            ++dropped;
            continue;
          }
          if (admitted != std::size_t(i)) batch[admitted] = std::move(batch[std::size_t(i)]);
          ++admitted;
        }
        if (as_run) {
          EXPECT_TRUE(pipeline.submit_run(node, std::span(batch.data(), admitted)));
        } else {
          for (std::size_t i = 0; i < admitted; ++i) {
            EXPECT_TRUE(pipeline.submit(std::move(batch[i])));
          }
        }
      }
      EXPECT_EQ(dropped, 3u) << "one drop per batch";
      EXPECT_EQ(pipeline.stats().submitted, 3u * (kRecords - 1));
      EXPECT_TRUE(pipeline.drain());  // flushes every sorter, due or not
      return capture.snapshot();
    };
    const std::vector<Record> per_record = run(false);
    const std::vector<Record> as_run = run(true);
    ASSERT_EQ(per_record.size(), 3u * (kRecords - 1)) << shards << " shards";
    EXPECT_EQ(as_run, per_record) << shards << " shards";
    std::size_t traced = 0;
    for (const Record& r : as_run) {
      if (!r.trace) continue;
      ++traced;
      EXPECT_NE(r.trace->find(sensors::TraceStage::sorter_release), nullptr);
    }
    EXPECT_EQ(traced, 3u) << shards << " shards";
  }
}

// The pipeline hands its sink runs, not records. Whatever the shard count,
// the run sink must see exactly the record sequence the per-record adapter
// sees, in hand-overs of at most kMaxSinkRun records, and the release
// watermark must never pass a record the sink has not been handed.
struct RunCapture {
  std::mutex mutex;
  std::vector<Record> records;
  std::vector<std::size_t> run_sizes;
  TimeMicros max_handed = std::numeric_limits<TimeMicros>::min();
  std::size_t watermark_overtakes = 0;
  std::atomic<const OrderingPipeline*> pipeline{nullptr};

  OrderingPipeline::RunSinkFn sink() {
    return [this](std::span<const Record> run) {
      std::lock_guard<std::mutex> lock(mutex);
      // This run is not handed yet: the watermark may cover earlier ones only.
      const OrderingPipeline* p = pipeline.load();
      if (p != nullptr && p->release_watermark() > max_handed) ++watermark_overtakes;
      run_sizes.push_back(run.size());
      for (const Record& r : run) {
        records.push_back(r);
        max_handed = std::max(max_handed, r.timestamp);
      }
    };
  }
};

/// A manual clock the shard workers may read while the test sets it.
class SharedManualClock final : public clk::Clock {
 public:
  explicit SharedManualClock(TimeMicros start) noexcept : now_(start) {}
  TimeMicros now() noexcept override { return now_.load(); }
  void set(TimeMicros t) noexcept { now_.store(t); }

 private:
  std::atomic<TimeMicros> now_;
};

void expect_run_delivery_matches_per_record(std::size_t shards) {
  constexpr NodeId kNodes = 4;
  constexpr int kPerNode = 300;  // 1,200 records: several capped hand-overs
  SharedManualClock clock(1'000'000);
  PipelineConfig config;
  config.shards = shards;
  config.sorter.initial_frame_us = 10'000;
  config.sorter.min_frame_us = 10'000;
  config.sorter.adaptive = false;
  config.poll_timeout_us = 1'000;

  RunCapture runs;
  PipelineCapture records;
  OrderingPipeline run_pipeline(config, clock, runs.sink(), [] {}, [] {});
  runs.pipeline.store(&run_pipeline);
  OrderingPipeline record_pipeline(config, clock, records.sink(), records.flush(),
                                   records.on_tachyon());
  ASSERT_EQ(run_pipeline.threaded(), shards > 1);
  // A fixed schedule: node n owns timestamps n, n + kNodes, ...; half of
  // them fall due before drain(), the rest drain.
  for (int i = 0; i < kPerNode; ++i) {
    for (NodeId node = 1; node <= kNodes; ++node) {
      const TimeMicros ts = 1'000'000 + TimeMicros(node) + TimeMicros(i) * kNodes;
      ASSERT_TRUE(run_pipeline.submit(make_record(node, ts)));
      ASSERT_TRUE(record_pipeline.submit(make_record(node, ts)));
    }
  }
  clock.set(1'000'000 + kPerNode * kNodes / 2 + 10'000);
  run_pipeline.service();
  record_pipeline.service();
  ASSERT_TRUE(run_pipeline.drain());
  ASSERT_TRUE(record_pipeline.drain());

  std::lock_guard<std::mutex> lock(runs.mutex);
  ASSERT_EQ(runs.records.size(), std::size_t(kNodes) * kPerNode);
  const auto keys = keys_of(runs.records);
  EXPECT_EQ(keys, keys_of(records.snapshot()));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (std::size_t size : runs.run_sizes) {
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, kMaxSinkRun);
  }
  EXPECT_EQ(runs.watermark_overtakes, 0u) << "the watermark passed a record not yet handed";
  EXPECT_EQ(run_pipeline.release_watermark(), runs.max_handed);
  const PipelineStats stats = run_pipeline.stats();
  EXPECT_EQ(stats.merged, runs.records.size());
  EXPECT_EQ(stats.sink_runs, runs.run_sizes.size());
}

TEST(OrderingPipelineTest, RunSinkSeesThePerRecordSequenceInCappedRunsInline) {
  expect_run_delivery_matches_per_record(1);
}

TEST(OrderingPipelineTest, RunSinkSeesThePerRecordSequenceInCappedRunsSharded) {
  expect_run_delivery_matches_per_record(2);
}

// Without workers the schedule is deterministic: each half of the stream
// leaves in one release run, cut at the cap.
TEST(OrderingPipelineTest, InlineReleaseRunsAreCutAtTheCap) {
  clk::ManualClock clock(1'000'000);
  PipelineConfig config;
  config.sorter.initial_frame_us = 10'000;
  config.sorter.adaptive = false;
  RunCapture runs;
  OrderingPipeline pipeline(config, clock, runs.sink(), [] {}, [] {});
  for (TimeMicros i = 0; i < 600; ++i) {
    ASSERT_TRUE(pipeline.submit(make_record(1 + NodeId(i % 3), 1'000'000 + i * 10)));
  }
  clock.set(1'000'000 + 2'995 + 10'000);  // the first 300 fall due
  pipeline.service();
  ASSERT_TRUE(pipeline.drain());
  std::lock_guard<std::mutex> lock(runs.mutex);
  const std::vector<std::size_t> expected{256, 44, 256, 44};
  EXPECT_EQ(runs.run_sizes, expected);
  EXPECT_EQ(pipeline.stats().sink_runs, 4u);
  EXPECT_EQ(pipeline.stats().merged, 600u);
}

// drain() must release exactly what one merge over every lane's complete
// remainder releases. The schedule holds an out-of-band entry behind a
// cached head, a late record the flush emits below its shard's watermark,
// more records than a lane holds, and a relay record the late one precedes.
// Without workers the relay gate lifts before drain(), so a merge run
// part-way through a flush would be free to release the relay record ahead
// of the late one; with workers it stays, or the merger would release the
// remainders before drain() does.
std::vector<std::pair<TimeMicros, NodeId>> drain_sequence_with_a_late_and_an_oob_record(
    std::size_t shards, NodeId a, NodeId b, NodeId x) {
  constexpr TimeMicros kBase = 1'000'000;
  SharedManualClock clock(kBase);
  PipelineConfig config;
  config.shards = shards;
  config.shard_queue_records = 4;
  config.sorter.initial_frame_us = 1'000;
  config.sorter.min_frame_us = 1'000;
  config.sorter.adaptive = false;
  config.poll_timeout_us = 1'000;
  PipelineCapture capture;
  OrderingPipeline pipeline(config, clock, capture.sink(), capture.flush(),
                            capture.on_tachyon());
  // Settles the shard cycle: inline, one service() pass; with workers, a
  // wait until the sorters hold `pending` records.
  auto settle = [&](std::size_t pending) {
    if (!pipeline.threaded()) {
      pipeline.service();
      return;
    }
    const TimeMicros deadline = monotonic_micros() + 5'000'000;
    for (;;) {
      const std::vector<std::size_t> depths = pipeline.shard_depths();
      std::size_t total = 0;
      for (std::size_t depth : depths) total += depth;
      if (total == pending || monotonic_micros() > deadline) return;
      sleep_micros(1'000);
    }
  };
  const std::size_t gate = pipeline.add_relay_lane(nullptr);  // empty: gates the merge
  const std::size_t relay = pipeline.add_relay_lane(nullptr);

  EXPECT_TRUE(pipeline.submit(make_record(a, kBase + 100)));
  EXPECT_TRUE(pipeline.submit(make_record(b, kBase + 110)));
  EXPECT_TRUE(pipeline.submit(make_record(x, kBase + 5'000)));
  clock.set(kBase + 1'200);  // a and b fall due, x does not
  settle(1);
  pipeline.remove_node(x);  // x's record queues behind a's cached head
  if (pipeline.threaded()) settle(0);
  // Due but unserviced inline: the flush emits them. 45 is late: a's 100
  // has left the sorter already.
  for (TimeMicros ts : {130, 140, 45, 1'300, 1'400, 1'600, 1'700, 1'800}) {
    EXPECT_TRUE(pipeline.submit(make_record(a, kBase + ts)));
  }
  for (TimeMicros ts : {1'350, 1'500, 1'650, 1'750, 1'850}) {
    EXPECT_TRUE(pipeline.submit(make_record(b, kBase + ts)));
  }
  if (pipeline.threaded()) settle(10);
  std::vector<Record> batch;
  batch.push_back(make_record(50, kBase + 142));
  EXPECT_TRUE(pipeline.submit_relay(relay, std::move(batch), kBase + 142));
  if (!pipeline.threaded()) pipeline.flush_relay_lane(gate);
  EXPECT_TRUE(pipeline.drain());

  EXPECT_EQ(pipeline.sorter_stats().late_records, 1u);
  EXPECT_EQ(pipeline.stats().oob_records, 1u);
  EXPECT_EQ(pipeline.stats().merged, 16u);
  EXPECT_EQ(pipeline.stats().merge_inversions, 1u);
  return keys_of(capture.snapshot());
}

/// Node ids where a and x share a shard at N=2 and b does not.
struct DrainNodes {
  NodeId a = 1;
  NodeId b = 2;
  NodeId x = 2;
  DrainNodes() {
    while (shard_of_node(b, 2) == shard_of_node(a, 2)) ++b;
    while (x == b || shard_of_node(x, 2) != shard_of_node(a, 2)) ++x;
  }
};

TEST(OrderingPipelineTest, DrainReleasesWhatOneMergeOverTheRemaindersReleasesInline) {
  const DrainNodes n;
  constexpr TimeMicros kBase = 1'000'000;
  // One lane: b's 110 was emitted before x was removed, so x's entry follows it.
  const std::vector<std::pair<TimeMicros, NodeId>> expected{
      {kBase + 100, n.a},   {kBase + 110, n.b},   {kBase + 5'000, n.x}, {kBase + 130, n.a},
      {kBase + 140, n.a},   {kBase + 45, n.a},    {kBase + 142, 50},    {kBase + 1'300, n.a},
      {kBase + 1'350, n.b}, {kBase + 1'400, n.a}, {kBase + 1'500, n.b}, {kBase + 1'600, n.a},
      {kBase + 1'650, n.b}, {kBase + 1'700, n.a}, {kBase + 1'750, n.b}, {kBase + 1'800, n.a},
      {kBase + 1'850, n.b}};
  EXPECT_EQ(drain_sequence_with_a_late_and_an_oob_record(1, n.a, n.b, n.x), expected);
}

TEST(OrderingPipelineTest, DrainReleasesWhatOneMergeOverTheRemaindersReleasesSharded) {
  const DrainNodes n;
  constexpr TimeMicros kBase = 1'000'000;
  const std::vector<std::pair<TimeMicros, NodeId>> expected{
      {kBase + 100, n.a},   {kBase + 5'000, n.x}, {kBase + 110, n.b},   {kBase + 130, n.a},
      {kBase + 140, n.a},   {kBase + 45, n.a},    {kBase + 142, 50},    {kBase + 1'300, n.a},
      {kBase + 1'350, n.b}, {kBase + 1'400, n.a}, {kBase + 1'500, n.b}, {kBase + 1'600, n.a},
      {kBase + 1'650, n.b}, {kBase + 1'700, n.a}, {kBase + 1'750, n.b}, {kBase + 1'800, n.a},
      {kBase + 1'850, n.b}};
  EXPECT_EQ(drain_sequence_with_a_late_and_an_oob_record(2, n.a, n.b, n.x), expected);
}

// ---- least-loaded accept placement ------------------------------------------------

TEST(LeastLoadedReaderTest, PicksMinimumAndBreaksTiesLow) {
  // Equally idle readers: placement by connection count alone.
  EXPECT_EQ(least_loaded_reader({0.0}, {0}), 0u);
  EXPECT_EQ(least_loaded_reader({0.0, 0.0, 0.0}, {3, 1, 2}), 1u);
  EXPECT_EQ(least_loaded_reader({0.0, 0.0, 0.0}, {2, 2, 2}), 0u)
      << "ties go to the lowest index";
  EXPECT_EQ(least_loaded_reader({0.0, 0.0, 0.0}, {1, 0, 0}), 1u) << "first minimum wins";
  // The churn scenario round-robin gets wrong: reader 0 kept its long-lived
  // connections while reader 1's all closed — new accepts must land on 1.
  EXPECT_EQ(least_loaded_reader({0.0, 0.0}, {5, 0}), 1u);
}

TEST(LeastLoadedReaderTest, DrainRatePlacementPrefersColdReaders) {
  // The rate-aware overload places by drained-record rates, not connection
  // counts: the scenario connection counting gets wrong is one chatty node
  // on reader 0 out-weighing three idle ones on reader 1.
  EXPECT_EQ(least_loaded_reader({9000.0, 12.0}, {1, 3}), 1u);
  EXPECT_EQ(least_loaded_reader({0.0, 500.0, 250.0}, {4, 1, 1}), 0u);
  // Equal rates fall back to the connection-count tie-break...
  EXPECT_EQ(least_loaded_reader({100.0, 100.0}, {3, 1}), 1u);
  // ...and a full tie goes to the lowest index.
  EXPECT_EQ(least_loaded_reader({100.0, 100.0}, {2, 2}), 0u);
  EXPECT_EQ(least_loaded_reader({0.0}, {0}), 0u);
  // All-idle readers (fresh start): same placement round-robin-from-zero
  // shape as before — first minimum, lowest connection count.
  EXPECT_EQ(least_loaded_reader({0.0, 0.0, 0.0}, {1, 0, 2}), 1u);
}

}  // namespace
}  // namespace brisk::ism
