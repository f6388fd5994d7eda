// Property tests of credit-based flow control on the TP wire.
//
// A seeded schedule drives a real ExsCore (rings → batcher → replay buffer →
// paced sends) against the ISM's real ism::SessionTable behind a frame
// codec: cursor-based admission with dedupe and gap skip, the drained-record
// cells, grants of `window − (admitted − drained)` on every ack, and the
// half-window and drain-driven window updates, all under the schedule's
// ManualClock.
// EXS→ISM data frames pass through a sim::FaultInjector, so batches drop
// and duplicate mid-stream; the link also hard-disconnects and reconnects.
// For every seed the invariants must hold:
//  * the EXS never has more unacked records in flight than the granted
//    window (modulo the single-oversized-batch progress guarantee),
//  * a zero or shrunken window never deadlocks the stream — once the model
//    drains, replenishing grants always pump the parked batches out,
//  * go-back-N replay after loss or reconnect respects the window in force
//    when it runs, and every hole is filled by a resend (the table never
//    declares one lost),
//  * the admitted record stream is exactly the produced stream — and
//    byte-identical to a no-credit baseline run of the same schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "clock/clock.hpp"
#include "ism/ism.hpp"
#include "ism/session_table.hpp"
#include "lis/external_sensor.hpp"
#include "ring_memory.hpp"
#include "sensors/sensor.hpp"
#include "sim/fault_injector.hpp"
#include "tp/batch.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::lis {
namespace {

struct FlowParam {
  std::uint64_t seed = 1;
  /// Model-ISM record window; 0 = credits off (the baseline shape).
  std::uint32_t window_records = 0;
  std::uint64_t window_bytes = 0;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

std::string param_name(const ::testing::TestParamInfo<FlowParam>& info) {
  const FlowParam& p = info.param;
  std::string name = "seed" + std::to_string(p.seed) + "_w" +
                     std::to_string(p.window_records);
  if (p.window_bytes > 0) name += "_b" + std::to_string(p.window_bytes);
  if (p.drop_probability > 0 || p.duplicate_probability > 0) name += "_faulty";
  return name;
}

/// The ISM side, reduced to the wire: frames decode into calls on the real
/// ism::SessionTable (cursor, dedupe, gap skip, grants, window updates), and
/// every ack the table asks for is encoded back to the EXS. The table's
/// regrant wakeup only raises a flag, which take_window_updates consumes the
/// way the ISM's loop consumes its wakeup pipe.
class ModelIsm {
 public:
  /// `seed` picks how each drain is split into sink runs.
  ModelIsm(std::uint32_t window_records, std::uint64_t window_bytes, clk::Clock& clock,
           std::uint64_t seed = 1)
      : clock_(clock), runs_(seed) {
    config_.credit_window_records = window_records;
    config_.credit_window_bytes = window_bytes;
  }

  /// Feeds one EXS→ISM frame. Returns frames to deliver back to the EXS:
  /// the hello_ack, and any window update a data batch earns.
  std::vector<ByteBuffer> on_frame(ByteSpan payload) {
    std::vector<ByteBuffer> replies;
    xdr::Decoder dec(payload);
    auto type = tp::peek_type(dec);
    EXPECT_TRUE(type.is_ok());
    if (!type.is_ok()) return replies;
    switch (type.value()) {
      case tp::MsgType::hello: {
        auto hello = tp::decode_hello(dec);
        EXPECT_TRUE(hello.is_ok());
        if (hello.is_ok()) {
          EXPECT_EQ(hello.value().version, tp::kProtocolVersion);
          node_ = hello.value().node;
          sessions_.hello(node_, hello.value().incarnation, hello.value().version, false);
          replies.push_back(make_ack(tp::MsgType::hello_ack));
        }
        break;
      }
      case tp::MsgType::data_batch: {
        auto batch = tp::decode_batch(dec);
        EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
        if (!batch.is_ok()) break;
        const tp::BatchHeader& header = batch.value().header;
        if (!sessions_.admit(node_, header.batch_seq, header.ring_dropped_total, clock_.now())) {
          break;
        }
        for (const sensors::Record& record : batch.value().records) {
          EXPECT_FALSE(record.fields.empty());
          if (!record.fields.empty()) {
            stream_.push_back(static_cast<std::int32_t>(record.fields[0].as_signed()));
          }
        }
        if (sessions_.admitted(node_, batch.value().records.size())) {
          replies.push_back(make_ack(tp::MsgType::batch_ack));
        }
        break;
      }
      default:
        break;  // heartbeats and sync frames carry nothing the model tracks
    }
    return replies;
  }

  [[nodiscard]] ByteBuffer make_ack(tp::MsgType type) {
    const std::optional<tp::HelloAck> decided = sessions_.ack(node_);
    EXPECT_TRUE(decided.has_value());
    const tp::HelloAck ack = decided.value_or(tp::HelloAck{});
    ByteBuffer out;
    xdr::Encoder enc(out);
    tp::put_type(type, enc);
    if (type == tp::MsgType::hello_ack) {
      tp::encode_hello_ack(ack, enc);
    } else {
      tp::encode_batch_ack({ack.next_expected_seq, ack.credit}, enc);
    }
    return out;
  }

  void disconnect() { (void)sessions_.disconnect(node_, /*bye=*/false, clock_.now()); }
  [[nodiscard]] const ism::SessionCounters& counters() const { return sessions_.counters(); }

  /// The pipeline delivers up to `count` admitted records, in sink runs of
  /// random length: half of them single records, the rest up to all that is
  /// left. A crossing of the re-grant mark thus both lands on it and jumps
  /// past it across the schedules.
  void drain(std::uint64_t count) {
    for (count = std::min(count, sessions_.backlog(node_)); count > 0;) {
      const std::uint64_t n = runs_() % 2 == 0 ? 1 : 1 + runs_() % count;
      sensors::Record record;
      record.node = node_;
      const std::vector<sensors::Record> run(n, record);
      sessions_.note_records_drained(run);
      count -= n;
    }
  }
  void drain_all() { drain(sessions_.backlog(node_)); }

  /// The ISM loop's regrant wakeup: a BATCH_ACK if the drained records let
  /// the grant widen by a quarter window. A wakeup while the link is down
  /// is consumed with nothing to ack (the HELLO_ACK re-grants on rejoin).
  std::vector<ByteBuffer> take_window_updates(bool connected) {
    std::vector<ByteBuffer> replies;
    if (!std::exchange(regrant_pending_, false) || !connected) return replies;
    if (sessions_.regrant_due(node_)) replies.push_back(make_ack(tp::MsgType::batch_ack));
    return replies;
  }

  /// Payload values of admitted records, in admission order — the stream
  /// the downstream sorter would see from this node.
  [[nodiscard]] const std::vector<std::int32_t>& stream() const noexcept {
    return stream_;
  }

 private:
  ism::IsmConfig config_;
  clk::Clock& clock_;
  metrics::FlightRecorder flight_{"flow-control-model"};
  bool regrant_pending_ = false;
  ism::SessionTable sessions_{config_, clock_, flight_, [this] { regrant_pending_ = true; }};
  NodeId node_ = 0;
  std::vector<std::int32_t> stream_;
  std::mt19937_64 runs_;
};

struct RunResult {
  std::vector<std::int32_t> produced;
  std::vector<std::int32_t> admitted;
  ExsStats stats;
  std::uint64_t window_updates = 0;  // acks the table sent on half a window
  std::uint64_t drain_updates = 0;   // acks the table sent on a quarter drained
  std::uint64_t gaps = 0;            // holes the table declared lost
  bool drained_clean = false;  // the drain phase emptied the replay buffer
};

class FlowControlProperty : public ::testing::TestWithParam<FlowParam> {
 protected:
  static constexpr std::uint32_t kSteps = 600;

  /// Replays the seeded schedule. `window_records == 0` runs the no-credit
  /// baseline: the model sends plain v2-shaped acks and the EXS never
  /// enters paced mode.
  static RunResult run(const FlowParam& param, std::uint32_t window_records) {
    RunResult result;
    test::RingMemory memory(shm::MultiRing::region_size(2, 256 * 1024));
    auto rings = shm::MultiRing::init(memory.data(), 2, 256 * 1024);
    EXPECT_TRUE(rings.is_ok());
    clk::ManualClock clock(1'000'000);

    ExsConfig config;
    config.node = 7;
    config.incarnation = 42;
    config.batch_max_age_us = 0;  // flush every cycle
    config.batch_max_records = 16;
    // Large enough that the schedule can never evict: evictions are
    // declared loss, and this suite asserts zero loss.
    config.replay_buffer_batches = 4096;

    ModelIsm model(window_records, param.window_bytes, clock, param.seed);
    sim::FaultPlan plan;
    plan.seed = param.seed * 7919 + 1;
    plan.drop_probability = param.drop_probability;
    plan.duplicate_probability = param.duplicate_probability;
    plan.spare_control_frames = true;
    sim::FaultInjector injector(plan);

    std::vector<ByteBuffer> wire;  // EXS→model frames awaiting delivery
    ExsCore core(config, rings.value(), clock, [&wire](ByteBuffer payload) {
      wire.push_back(std::move(payload));
      return Status::ok();
    });

    bool connected = true;
    std::uint64_t frame_index = 0;
    std::int32_t next_value = 0;

    // Delivering an ack can make the core pump parked batches, which lands
    // more frames on the wire — loop until quiescent, serving the model's
    // regrant wakeups like the ISM loop would.
    auto pump_wire = [&] {
      for (;;) {
        for (ByteBuffer& update : model.take_window_updates(connected)) {
          EXPECT_TRUE(core.handle_frame(update.view()));
        }
        if (wire.empty()) break;
        std::vector<ByteBuffer> frames = std::move(wire);
        wire.clear();
        for (ByteBuffer& frame : frames) {
          if (!connected) continue;  // lost with the link; replay covers it
          const net::FaultDecision fate =
              injector.decide(frame_index++, frame.view());
          const int copies = fate.action == net::FaultAction::drop        ? 0
                             : fate.action == net::FaultAction::duplicate ? 2
                                                                          : 1;
          for (int i = 0; i < copies; ++i) {
            for (ByteBuffer& reply : model.on_frame(frame.view())) {
              EXPECT_TRUE(core.handle_frame(reply.view()));
            }
          }
        }
      }
    };

    auto check_window = [&] {
      if (!core.pacing()) return;
      // The window invariant: sent-but-unacked records never exceed the
      // granted window. The one exception is the progress guarantee — a
      // batch bigger than the whole window ships alone — which the batch
      // record cap bounds at batch_max_records.
      const std::uint64_t bound = std::max<std::uint64_t>(
          core.stats().credit_window_records, config.batch_max_records);
      EXPECT_LE(core.outstanding_records(), bound);
    };

    auto ring = rings.value().claim_slot();
    EXPECT_TRUE(ring.is_ok());
    sensors::Sensor sensor(ring.value(), clock);

    EXPECT_TRUE(core.send_hello());
    pump_wire();

    std::mt19937_64 rng(param.seed);
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      const double roll = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      if (roll < 0.45) {
        // Produce and forward a burst.
        const std::uint32_t burst = 1 + static_cast<std::uint32_t>(rng() % 8);
        for (std::uint32_t i = 0; i < burst; ++i) {
          EXPECT_TRUE(sensor.notice(1, sensors::x_i32(next_value)));
          result.produced.push_back(next_value);
          ++next_value;
        }
        EXPECT_TRUE(core.drain_rings().is_ok());
        EXPECT_TRUE(core.flush());
      } else if (roll < 0.65) {
        // The pipeline drains some backlog.
        model.drain(1 + rng() % 32);
      } else if (roll < 0.85) {
        // Periodic ack (with grant when credits are on).
        if (connected) {
          ByteBuffer ack = model.make_ack(tp::MsgType::batch_ack);
          EXPECT_TRUE(core.handle_frame(ack.view()));
        }
      } else if (roll < 0.90) {
        if (connected) {
          connected = false;
          core.on_disconnect();
          model.disconnect();
        }
      } else if (roll < 0.95) {
        if (!connected) {
          connected = true;
          EXPECT_TRUE(core.on_reconnected());
        }
      } else {
        clock.advance(1'000 + rng() % 10'000);
      }
      pump_wire();
      check_window();
    }

    // Drain phase: reconnect if down, then let the model drain fully and
    // ack until everything parked or unacked has pumped out. A broken
    // replenish path (the zero-window deadlock) leaves the replay buffer
    // non-empty and fails the assertions below.
    if (!connected) {
      connected = true;
      EXPECT_TRUE(core.on_reconnected());
      pump_wire();
    }
    EXPECT_TRUE(core.flush());
    pump_wire();
    for (int i = 0; i < 1'000 && !core.replay().empty(); ++i) {
      model.drain_all();
      ByteBuffer ack = model.make_ack(tp::MsgType::batch_ack);
      EXPECT_TRUE(core.handle_frame(ack.view()));
      pump_wire();
      check_window();
      clock.advance(1'000);
    }
    result.drained_clean = core.replay().empty();
    result.admitted = model.stream();
    result.stats = core.stats();
    result.window_updates = model.counters().window_update_acks.load();
    result.drain_updates = model.counters().drain_window_updates.load();
    result.gaps = model.counters().batch_seq_gaps.load();
    return result;
  }
};

TEST_P(FlowControlProperty, StreamSurvivesWindowsFaultsAndReconnects) {
  const FlowParam& param = GetParam();
  RunResult result = run(param, param.window_records);
  EXPECT_TRUE(result.drained_clean) << "replay buffer never emptied: a "
                                       "window stayed closed (replenish "
                                       "deadlock) or a resend never came";
  EXPECT_EQ(result.stats.replay_evictions, 0u)
      << "schedule overran the replay buffer; loss assertions are void";
  // No loss, no duplication, no reordering: the admitted stream is exactly
  // the produced stream.
  ASSERT_EQ(result.admitted.size(), result.produced.size());
  EXPECT_EQ(result.admitted, result.produced);
  EXPECT_EQ(result.gaps, 0u) << "a resend never came and the table skipped the hole";
  if (param.window_records > 0) {
    EXPECT_GT(result.stats.credit_grants_received, 0u);
    EXPECT_GT(result.window_updates, 0u) << "half-window updates never reached the EXS";
    EXPECT_GT(result.drain_updates, 0u) << "drain-driven updates never reached the EXS";
    EXPECT_EQ(result.stats.credit_window_bytes, param.window_bytes);
    if (param.window_records <= 8) {
      // A window this small against 8-record bursts must have parked
      // batches — if it never did, the pacer was not actually in the path.
      EXPECT_GT(result.stats.paced_batches, 0u);
    }
  } else {
    EXPECT_EQ(result.stats.credit_grants_received, 0u);
    EXPECT_EQ(result.stats.paced_batches, 0u);
    EXPECT_EQ(result.window_updates, 0u);
    EXPECT_EQ(result.drain_updates, 0u);
  }
}

TEST_P(FlowControlProperty, SortedOutputMatchesNoCreditBaseline) {
  const FlowParam& param = GetParam();
  if (param.window_records == 0) GTEST_SKIP() << "is the baseline";
  RunResult with = run(param, param.window_records);
  RunResult without = run(param, 0);
  // Credits pace *when* batches move, never *what* arrives: the admitted
  // stream must be byte-identical to the uncontrolled run of the same
  // schedule.
  EXPECT_TRUE(with.drained_clean);
  EXPECT_TRUE(without.drained_clean);
  EXPECT_EQ(with.admitted, without.admitted);
  EXPECT_EQ(with.produced, without.produced)
      << "schedules diverged; the comparison is meaningless";
}

TEST_P(FlowControlProperty, ReplayAfterReconnectRespectsReopenedWindow) {
  const FlowParam& param = GetParam();
  if (param.window_records == 0) GTEST_SKIP() << "needs credits";
  // A dedicated deterministic scenario on top of the randomized ones:
  // build up unacked batches, drop the link, shrink the window, and watch
  // the go-back-N replay obey the smaller grant.
  test::RingMemory memory(shm::MultiRing::region_size(1, 64 * 1024));
  auto rings = shm::MultiRing::init(memory.data(), 1, 64 * 1024);
  ASSERT_TRUE(rings.is_ok());
  clk::ManualClock clock(1'000'000);
  ExsConfig config;
  config.node = 7;
  config.incarnation = 42;
  config.batch_max_age_us = 0;
  config.batch_max_records = 4;
  config.replay_buffer_batches = 256;
  std::vector<ByteBuffer> wire;
  ExsCore core(config, rings.value(), clock, [&wire](ByteBuffer payload) {
    wire.push_back(std::move(payload));
    return Status::ok();
  });
  auto ring = rings.value().claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock);

  auto deliver_ack = [&](tp::MsgType type, std::uint32_t cursor,
                         std::uint32_t window) {
    ByteBuffer out;
    xdr::Encoder enc(out);
    tp::put_type(type, enc);
    tp::CreditGrant grant;
    grant.incarnation = config.incarnation;
    grant.window_records = window;
    if (type == tp::MsgType::hello_ack) {
      tp::HelloAck ack;
      ack.incarnation = config.incarnation;
      ack.next_expected_seq = cursor;
      ack.credit = grant;
      tp::encode_hello_ack(ack, enc);
    } else {
      tp::BatchAck ack;
      ack.next_expected_seq = cursor;
      ack.credit = grant;
      tp::encode_batch_ack(ack, enc);
    }
    ASSERT_TRUE(core.handle_frame(out.view()));
  };

  ASSERT_TRUE(core.send_hello());
  wire.clear();
  deliver_ack(tp::MsgType::hello_ack, 0, 64);
  ASSERT_TRUE(core.pacing());

  // Six batches of 4 records, all sent (window 64), none acked.
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));
    ASSERT_TRUE(core.drain_rings().is_ok());
    ASSERT_TRUE(core.flush());
  }
  EXPECT_EQ(core.outstanding_records(), 24u);

  // Link drops; the session reopens with a window of 8 records.
  core.on_disconnect();
  wire.clear();
  ASSERT_TRUE(core.on_reconnected());
  deliver_ack(tp::MsgType::hello_ack, 0, 8);

  // Go-back-N replayed from seq 0, but only as far as the 8-record window
  // allows: two 4-record batches, not all six.
  EXPECT_EQ(core.outstanding_records(), 8u);
  std::size_t replayed_batches = 0;
  for (const ByteBuffer& frame : wire) {
    xdr::Decoder dec(frame.view());
    auto type = tp::peek_type(dec);
    ASSERT_TRUE(type.is_ok());
    if (type.value() == tp::MsgType::data_batch) ++replayed_batches;
  }
  EXPECT_EQ(replayed_batches, 2u);

  // Acking the replayed pair reopens room for the next pair.
  deliver_ack(tp::MsgType::batch_ack, 2, 8);
  EXPECT_EQ(core.outstanding_records(), 8u);
  // And walking the cursor forward drains the rest.
  deliver_ack(tp::MsgType::batch_ack, 4, 8);
  deliver_ack(tp::MsgType::batch_ack, 6, 8);
  EXPECT_TRUE(core.replay().empty());
}

// The drain trigger, deterministically: a window-stalled EXS whose backlog
// drains by a quarter window is re-granted with the ManualClock frozen — no
// replenish period or ack period has to pass.
TEST(FlowControlPropertyDrainTrigger, StalledSessionIsReGrantedWithoutTheClockAdvancing) {
  constexpr std::uint32_t kWindow = 16;
  test::RingMemory memory(shm::MultiRing::region_size(1, 64 * 1024));
  auto rings = shm::MultiRing::init(memory.data(), 1, 64 * 1024);
  ASSERT_TRUE(rings.is_ok());
  clk::ManualClock clock(1'000'000);
  ExsConfig config;
  config.node = 7;
  config.incarnation = 42;
  config.batch_max_age_us = 0;
  config.batch_max_records = 4;
  config.replay_buffer_batches = 256;
  ModelIsm model(kWindow, 0, clock);
  std::vector<ByteBuffer> wire;
  ExsCore core(config, rings.value(), clock, [&wire](ByteBuffer payload) {
    wire.push_back(std::move(payload));
    return Status::ok();
  });
  auto pump_wire = [&] {
    for (;;) {
      for (ByteBuffer& update : model.take_window_updates(/*connected=*/true)) {
        ASSERT_TRUE(core.handle_frame(update.view()));
      }
      if (wire.empty()) return;
      std::vector<ByteBuffer> frames = std::move(wire);
      wire.clear();
      for (ByteBuffer& frame : frames) {
        for (ByteBuffer& reply : model.on_frame(frame.view())) {
          ASSERT_TRUE(core.handle_frame(reply.view()));
        }
      }
    }
  };
  auto ring = rings.value().claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock);

  ASSERT_TRUE(core.send_hello());
  pump_wire();
  ASSERT_TRUE(core.pacing());
  // Six 4-record batches against a 16-record window: four go out (the half-
  // window update at 8 admitted re-grants what is left), then the window
  // closes with two parked.
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(batch * 4 + i)));
    ASSERT_TRUE(core.drain_rings().is_ok());
    ASSERT_TRUE(core.flush());
    pump_wire();
  }
  ASSERT_EQ(model.stream().size(), 16u);
  ASSERT_EQ(core.stats().credit_window_records, 0u) << "window-stalled";
  const std::uint64_t grants = core.stats().credit_grants_received;

  model.drain(kWindow / 4 - 1);
  pump_wire();
  EXPECT_EQ(core.stats().credit_grants_received, grants) << "below a quarter window";
  EXPECT_EQ(model.stream().size(), 16u);

  model.drain(1);
  pump_wire();
  EXPECT_EQ(core.stats().credit_grants_received, grants + 1);
  EXPECT_EQ(model.counters().drain_window_updates.load(), 1u);
  EXPECT_EQ(model.stream().size(), 20u) << "the widened grant pumped a parked batch";

  // The EXS spent that grant at once, so the backlog must shrink by another
  // quarter net of it: half a window more drained.
  model.drain(kWindow / 4);
  pump_wire();
  EXPECT_EQ(model.stream().size(), 20u);
  model.drain(kWindow / 4);
  pump_wire();
  EXPECT_EQ(model.counters().drain_window_updates.load(), 2u);
  EXPECT_EQ(model.stream().size(), 24u);
  EXPECT_FALSE(core.replay().empty()) << "the last batch is acked only by the next grant";
  EXPECT_EQ(clock.now(), 1'000'000) << "no timer was involved";
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FlowControlProperty,
    ::testing::Values(
        // Clean link, assorted windows (0 = baseline shape).
        FlowParam{1, 0, 0, 0.0, 0.0},
        FlowParam{1, 8, 0, 0.0, 0.0},
        FlowParam{2, 32, 0, 0.0, 0.0},
        FlowParam{3, 8, 4'096, 0.0, 0.0},
        // Tiny window under heavy production: lots of zero-window stalls.
        FlowParam{4, 2, 0, 0.0, 0.0},
        // Faulty link: dropped and duplicated data batches.
        FlowParam{5, 8, 0, 0.10, 0.05},
        FlowParam{6, 32, 2'048, 0.10, 0.05},
        FlowParam{7, 2, 0, 0.15, 0.10}),
    param_name);

}  // namespace
}  // namespace brisk::lis
