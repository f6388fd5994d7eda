// Robustness ("fuzz-lite") tests: every decoder in the system is fed
// random bytes, truncations of valid messages, and single-byte corruptions.
// The invariant under test is total: decoders return an error Status or a
// value — never crash, never read out of bounds (run under ASan to get the
// full benefit), never loop forever.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "clock/clock.hpp"
#include "ism/output.hpp"
#include "lis/external_sensor.hpp"
#include "net/frame.hpp"
#include "ring_memory.hpp"
#include "sensors/sensor.hpp"
#include "picl/picl_record.hpp"
#include "sensors/record_codec.hpp"
#include "sim/fault_injector.hpp"
#include "tp/batch.hpp"
#include "tp/meta_header.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"

namespace brisk {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::vector<std::uint8_t> out(len_dist(rng));
  for (auto& b : out) b = static_cast<std::uint8_t>(byte_dist(rng));
  return out;
}

ByteBuffer valid_batch_payload() {
  tp::BatchBuilder builder(3);
  sensors::Record record;
  record.sensor = 9;
  record.timestamp = 1'000;
  record.fields = {sensors::Field::i32(1), sensors::Field::str("abc"),
                   sensors::Field::ts(2'000), sensors::Field::reason(4)};
  EXPECT_TRUE(builder.add_record(record));
  EXPECT_TRUE(builder.add_record(record));
  return builder.finish();
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, RandomBytesNeverCrashDecoders) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 2'000; ++i) {
    auto bytes = random_bytes(rng, 256);
    const ByteSpan view{bytes.data(), bytes.size()};

    (void)sensors::decode_native(view);

    xdr::Decoder meta_dec(view);
    (void)tp::decode_meta(meta_dec);

    xdr::Decoder record_dec(view);
    (void)tp::decode_record(record_dec, 0);

    xdr::Decoder batch_dec(view);
    auto type = tp::peek_type(batch_dec);
    if (type.is_ok() && type.value() == tp::MsgType::data_batch) {
      (void)tp::decode_batch(batch_dec);
    }

    (void)ism::decode_output_record(view);

    net::FrameReader reader;
    reader.feed(view);
    for (int rounds = 0; rounds < 8; ++rounds) {
      auto frame = reader.next();
      if (!frame.is_ok() || !frame.value().has_value()) break;
    }
  }
}

TEST_P(FuzzSeed, TruncationsOfValidBatchAlwaysError) {
  ByteBuffer payload = valid_batch_payload();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    xdr::Decoder dec(payload.view().subspan(0, cut));
    auto type = tp::peek_type(dec);
    if (!type.is_ok()) continue;
    auto batch = tp::decode_batch(dec);
    EXPECT_FALSE(batch.is_ok()) << "truncation at " << cut << " decoded successfully";
  }
}

TEST_P(FuzzSeed, SingleByteCorruptionNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  ByteBuffer payload = valid_batch_payload();
  std::vector<std::uint8_t> bytes(payload.view().begin(), payload.view().end());
  std::uniform_int_distribution<std::size_t> pos_dist(0, bytes.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 500; ++i) {
    auto mutated = bytes;
    mutated[pos_dist(rng)] = static_cast<std::uint8_t>(byte_dist(rng));
    xdr::Decoder dec(ByteSpan{mutated.data(), mutated.size()});
    auto type = tp::peek_type(dec);
    if (!type.is_ok() || type.value() != tp::MsgType::data_batch) continue;
    auto batch = tp::decode_batch(dec);  // may succeed or fail; must not crash
    if (batch.is_ok()) {
      EXPECT_LE(batch.value().records.size(), 2u)
          << "corruption cannot invent records beyond the declared count";
    }
  }
}

TEST_P(FuzzSeed, RandomPiclLinesNeverCrashParser) {
  std::mt19937_64 rng(GetParam() * 131 + 1);
  std::uniform_int_distribution<int> char_dist(32, 126);
  std::uniform_int_distribution<std::size_t> len_dist(0, 120);
  picl::PiclOptions options{picl::TimestampMode::utc_micros, 0};
  for (int i = 0; i < 2'000; ++i) {
    std::string line(len_dist(rng), ' ');
    for (auto& c : line) c = static_cast<char>(char_dist(rng));
    (void)picl::from_picl_line(line, options);
  }
}

TEST_P(FuzzSeed, CorruptedNativeRecordPatchNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 17 + 3);
  sensors::Record record;
  record.sensor = 1;
  record.timestamp = 99;
  record.fields = {sensors::Field::str("payload"), sensors::Field::ts(5)};
  auto encoded = sensors::encode_native(record);
  ASSERT_TRUE(encoded.is_ok());
  std::vector<std::uint8_t> bytes(encoded.value().view().begin(),
                                  encoded.value().view().end());
  std::uniform_int_distribution<std::size_t> pos_dist(0, bytes.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 500; ++i) {
    auto mutated = bytes;
    mutated[pos_dist(rng)] = static_cast<std::uint8_t>(byte_dist(rng));
    (void)sensors::patch_native_timestamps({mutated.data(), mutated.size()}, 1'000);
    ByteBuffer wire;
    xdr::Encoder enc(wire);
    (void)tp::transcode_native_record({mutated.data(), mutated.size()}, enc, 0);
  }
}

// ---- session-resilience codecs (protocol v2 shape, no credit tail) ----------

TEST_P(FuzzSeed, ResilienceControlMessagesRoundTrip) {
  std::mt19937_64 rng(GetParam() * 97 + 11);
  for (int i = 0; i < 500; ++i) {
    const tp::Hello hello{static_cast<NodeId>(rng()), tp::kProtocolVersion, rng()};
    ByteBuffer hello_wire;
    xdr::Encoder hello_enc(hello_wire);
    tp::put_type(tp::MsgType::hello, hello_enc);
    tp::encode_hello(hello, hello_enc);
    xdr::Decoder hello_dec(hello_wire.view());
    ASSERT_TRUE(tp::peek_type(hello_dec).is_ok());
    auto hello_back = tp::decode_hello(hello_dec);
    ASSERT_TRUE(hello_back.is_ok());
    EXPECT_EQ(hello_back.value().node, hello.node);
    EXPECT_EQ(hello_back.value().incarnation, hello.incarnation);

    const tp::HelloAck ack{rng(), static_cast<std::uint32_t>(rng()), {}};
    ByteBuffer ack_wire;
    xdr::Encoder ack_enc(ack_wire);
    tp::put_type(tp::MsgType::hello_ack, ack_enc);
    tp::encode_hello_ack(ack, ack_enc);
    xdr::Decoder ack_dec(ack_wire.view());
    ASSERT_TRUE(tp::peek_type(ack_dec).is_ok());
    auto ack_back = tp::decode_hello_ack(ack_dec);
    ASSERT_TRUE(ack_back.is_ok());
    EXPECT_EQ(ack_back.value().incarnation, ack.incarnation);
    EXPECT_EQ(ack_back.value().next_expected_seq, ack.next_expected_seq);
    EXPECT_FALSE(ack_back.value().credit.has_value());

    const tp::BatchAck batch_ack{static_cast<std::uint32_t>(rng()), {}};
    ByteBuffer batch_wire;
    xdr::Encoder batch_enc(batch_wire);
    tp::put_type(tp::MsgType::batch_ack, batch_enc);
    tp::encode_batch_ack(batch_ack, batch_enc);
    xdr::Decoder batch_dec(batch_wire.view());
    ASSERT_TRUE(tp::peek_type(batch_dec).is_ok());
    auto batch_back = tp::decode_batch_ack(batch_dec);
    ASSERT_TRUE(batch_back.is_ok());
    EXPECT_EQ(batch_back.value().next_expected_seq, batch_ack.next_expected_seq);
    EXPECT_FALSE(batch_back.value().credit.has_value());
  }
}

TEST_P(FuzzSeed, TruncatedResilienceControlMessagesAlwaysError) {
  ByteBuffer hello_wire;
  xdr::Encoder hello_enc(hello_wire);
  tp::put_type(tp::MsgType::hello, hello_enc);
  tp::encode_hello({42, tp::kProtocolVersion, 0x1122334455667788ull}, hello_enc);
  for (std::size_t cut = 0; cut < hello_wire.size(); ++cut) {
    xdr::Decoder dec(hello_wire.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    EXPECT_FALSE(tp::decode_hello(dec).is_ok()) << "hello cut at " << cut;
  }

  ByteBuffer ack_wire;
  xdr::Encoder ack_enc(ack_wire);
  tp::put_type(tp::MsgType::hello_ack, ack_enc);
  tp::encode_hello_ack({0x99aabbccddeeff00ull, 7, {}}, ack_enc);
  for (std::size_t cut = 0; cut < ack_wire.size(); ++cut) {
    xdr::Decoder dec(ack_wire.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    EXPECT_FALSE(tp::decode_hello_ack(dec).is_ok()) << "hello_ack cut at " << cut;
  }

  ByteBuffer batch_wire;
  xdr::Encoder batch_enc(batch_wire);
  tp::put_type(tp::MsgType::batch_ack, batch_enc);
  tp::encode_batch_ack({12345, {}}, batch_enc);
  for (std::size_t cut = 0; cut < batch_wire.size(); ++cut) {
    xdr::Decoder dec(batch_wire.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    EXPECT_FALSE(tp::decode_batch_ack(dec).is_ok()) << "batch_ack cut at " << cut;
  }
}

// ---- credit-grant ack extension (protocol v3) -------------------------------

tp::CreditGrant random_grant(std::mt19937_64& rng) {
  tp::CreditGrant grant;
  grant.incarnation = rng();
  grant.window_records = static_cast<std::uint32_t>(rng());
  grant.window_bytes = rng();
  return grant;
}

ByteBuffer encode_ack_frame(tp::MsgType type, std::uint64_t incarnation,
                            std::uint32_t next_expected,
                            const std::optional<tp::CreditGrant>& credit) {
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(type, enc);
  if (type == tp::MsgType::hello_ack) {
    tp::HelloAck ack;
    ack.incarnation = incarnation;
    ack.next_expected_seq = next_expected;
    ack.credit = credit;
    tp::encode_hello_ack(ack, enc);
  } else {
    tp::BatchAck ack;
    ack.next_expected_seq = next_expected;
    ack.credit = credit;
    tp::encode_batch_ack(ack, enc);
  }
  return out;
}

TEST_P(FuzzSeed, CreditGrantAcksRoundTrip) {
  std::mt19937_64 rng(GetParam() * 193 + 29);
  for (int i = 0; i < 500; ++i) {
    const tp::CreditGrant grant = random_grant(rng);

    const ByteBuffer hello_wire = encode_ack_frame(
        tp::MsgType::hello_ack, rng(), static_cast<std::uint32_t>(rng()), grant);
    xdr::Decoder hello_dec(hello_wire.view());
    ASSERT_TRUE(tp::peek_type(hello_dec).is_ok());
    auto hello_back = tp::decode_hello_ack(hello_dec);
    ASSERT_TRUE(hello_back.is_ok());
    ASSERT_TRUE(hello_back.value().credit.has_value());
    EXPECT_EQ(hello_back.value().credit->incarnation, grant.incarnation);
    EXPECT_EQ(hello_back.value().credit->window_records, grant.window_records);
    EXPECT_EQ(hello_back.value().credit->window_bytes, grant.window_bytes);

    const ByteBuffer batch_wire = encode_ack_frame(
        tp::MsgType::batch_ack, 0, static_cast<std::uint32_t>(rng()), grant);
    xdr::Decoder batch_dec(batch_wire.view());
    ASSERT_TRUE(tp::peek_type(batch_dec).is_ok());
    auto batch_back = tp::decode_batch_ack(batch_dec);
    ASSERT_TRUE(batch_back.is_ok());
    ASSERT_TRUE(batch_back.value().credit.has_value());
    EXPECT_EQ(batch_back.value().credit->incarnation, grant.incarnation);
    EXPECT_EQ(batch_back.value().credit->window_records, grant.window_records);
    EXPECT_EQ(batch_back.value().credit->window_bytes, grant.window_bytes);
  }
}

// A cut anywhere inside the credit tail must error — a partial grant never
// silently decodes as "no grant". The one legal short read is the exact v2
// boundary, where the decoder is cleanly exhausted and credit is nullopt.
TEST_P(FuzzSeed, TruncatedCreditGrantsAlwaysErrorNeverVanish) {
  std::mt19937_64 rng(GetParam() * 211 + 17);
  const tp::CreditGrant grant = random_grant(rng);
  const std::uint64_t incarnation = rng();
  const std::uint32_t cursor = static_cast<std::uint32_t>(rng());

  struct Case {
    tp::MsgType type;
    const char* name;
  };
  for (const Case& c : {Case{tp::MsgType::hello_ack, "hello_ack"},
                        Case{tp::MsgType::batch_ack, "batch_ack"}}) {
    const ByteBuffer base =
        encode_ack_frame(c.type, incarnation, cursor, std::nullopt);
    const ByteBuffer full = encode_ack_frame(c.type, incarnation, cursor, grant);
    ASSERT_GT(full.size(), base.size());

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      xdr::Decoder dec(full.view().subspan(0, cut));
      if (!tp::peek_type(dec).is_ok()) continue;
      if (c.type == tp::MsgType::hello_ack) {
        auto back = tp::decode_hello_ack(dec);
        if (cut == base.size()) {
          ASSERT_TRUE(back.is_ok()) << c.name << " cut at v2 boundary " << cut;
          EXPECT_FALSE(back.value().credit.has_value());
        } else {
          EXPECT_FALSE(back.is_ok()) << c.name << " cut at " << cut;
        }
      } else {
        auto back = tp::decode_batch_ack(dec);
        if (cut == base.size()) {
          ASSERT_TRUE(back.is_ok()) << c.name << " cut at v2 boundary " << cut;
          EXPECT_FALSE(back.value().credit.has_value());
        } else {
          EXPECT_FALSE(back.is_ok()) << c.name << " cut at " << cut;
        }
      }
    }
  }
}

// ---- credit grants against a live ExsCore session ---------------------------
//
// The decoder rejecting malformed grants is half the story; the session must
// also survive them. These drive a real ExsCore (rings → batcher → replay →
// paced sends) and assert hostile grants neither crash it nor tear the
// session: sends keep flowing afterwards.

struct ExsSession {
  explicit ExsSession(std::uint32_t batch_max_records = 4)
      : memory(shm::MultiRing::region_size(1, 64 * 1024)), clock(1'000'000) {
    auto rings = shm::MultiRing::init(memory.data(), 1, 64 * 1024);
    EXPECT_TRUE(rings.is_ok());
    lis::ExsConfig config;
    config.node = 3;
    config.incarnation = kIncarnation;
    config.batch_max_age_us = 0;  // flush on demand
    config.batch_max_records = batch_max_records;
    config.replay_buffer_batches = 64;
    core = std::make_unique<lis::ExsCore>(config, rings.value(), clock,
                                          [this](ByteBuffer payload) {
                                            sent.push_back(std::move(payload));
                                            return Status::ok();
                                          });
    auto ring = rings.value().claim_slot();
    EXPECT_TRUE(ring.is_ok());
    sensor = std::make_unique<sensors::Sensor>(ring.value(), clock);
  }

  /// Produces `count` records and pushes them through drain → flush.
  void produce(std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      EXPECT_TRUE(sensor->notice(1, sensors::x_i32(static_cast<std::int32_t>(i))));
    }
    EXPECT_TRUE(core->drain_rings().is_ok());
    EXPECT_TRUE(core->flush());
  }

  [[nodiscard]] std::size_t data_frames_sent() const {
    std::size_t n = 0;
    for (const ByteBuffer& frame : sent) {
      xdr::Decoder dec(frame.view());
      auto type = tp::peek_type(dec);
      if (type.is_ok() && type.value() == tp::MsgType::data_batch) ++n;
    }
    return n;
  }

  static constexpr std::uint64_t kIncarnation = 77;

  test::RingMemory memory;
  clk::ManualClock clock;
  std::vector<ByteBuffer> sent;
  std::unique_ptr<lis::ExsCore> core;
  std::unique_ptr<sensors::Sensor> sensor;
};

TEST(CreditGrantSessionTest, UnknownIncarnationGrantIsIgnoredNotFatal) {
  ExsSession s;
  EXPECT_TRUE(s.core->send_hello());
  // The ack itself names our incarnation (session resumes) but the grant
  // inside it belongs to a dead one — apply nothing, tear nothing.
  tp::CreditGrant foreign;
  foreign.incarnation = ExsSession::kIncarnation + 1;
  foreign.window_records = 1;
  foreign.window_bytes = 16;
  const ByteBuffer ack = encode_ack_frame(tp::MsgType::hello_ack,
                                          ExsSession::kIncarnation, 0, foreign);
  EXPECT_TRUE(s.core->handle_frame(ack.view()));
  EXPECT_FALSE(s.core->pacing());
  EXPECT_EQ(s.core->stats().credit_grants_received, 0u);

  // The session still works: batches flow unpaced.
  s.produce(4);
  EXPECT_EQ(s.data_frames_sent(), 1u);
}

TEST(CreditGrantSessionTest, WindowShrinkingBelowInFlightParksNewSendsOnly) {
  ExsSession s;
  EXPECT_TRUE(s.core->send_hello());
  tp::CreditGrant wide;
  wide.incarnation = ExsSession::kIncarnation;
  wide.window_records = 64;
  const ByteBuffer open = encode_ack_frame(tp::MsgType::hello_ack,
                                           ExsSession::kIncarnation, 0, wide);
  ASSERT_TRUE(s.core->handle_frame(open.view()));
  ASSERT_TRUE(s.core->pacing());

  s.produce(8);  // two 4-record batches, both within the window
  EXPECT_EQ(s.data_frames_sent(), 2u);
  EXPECT_EQ(s.core->outstanding_records(), 8u);

  // The ISM acks batch 0 but shrinks the window below what is still in
  // flight. Nothing retroactive happens — in-flight stays in flight — but
  // new batches park. (The ack cursor must advance: a repeated cursor is
  // the stuck-ack signal and legitimately triggers a go-back-N resend.)
  tp::CreditGrant narrow = wide;
  narrow.window_records = 2;
  const ByteBuffer shrink = encode_ack_frame(tp::MsgType::batch_ack,
                                             ExsSession::kIncarnation, 1, narrow);
  ASSERT_TRUE(s.core->handle_frame(shrink.view()));
  EXPECT_EQ(s.core->stats().credit_window_records, 2u);
  EXPECT_EQ(s.core->outstanding_records(), 4u);

  s.produce(2);
  EXPECT_EQ(s.data_frames_sent(), 2u) << "batch must park under a full window";
  EXPECT_EQ(s.core->outstanding_records(), 4u);

  // Ack the second batch and re-open the window: the parked batch pumps out.
  tp::CreditGrant reopened = wide;
  const ByteBuffer drain = encode_ack_frame(tp::MsgType::batch_ack,
                                            ExsSession::kIncarnation, 2, reopened);
  ASSERT_TRUE(s.core->handle_frame(drain.view()));
  EXPECT_EQ(s.data_frames_sent(), 3u);
  EXPECT_EQ(s.core->outstanding_records(), 2u);
}

TEST(CreditGrantSessionTest, TruncatedGrantFramesErrorWithoutTearingSession) {
  ExsSession s;
  EXPECT_TRUE(s.core->send_hello());
  tp::CreditGrant grant;
  grant.incarnation = ExsSession::kIncarnation;
  grant.window_records = 16;
  const ByteBuffer open = encode_ack_frame(tp::MsgType::hello_ack,
                                           ExsSession::kIncarnation, 0, grant);
  ASSERT_TRUE(s.core->handle_frame(open.view()));
  ASSERT_TRUE(s.core->pacing());
  s.produce(4);
  ASSERT_EQ(s.data_frames_sent(), 1u);

  // Every truncation of a grant-bearing batch_ack (other than the clean v2
  // boundary) must surface an error status — and leave the session usable.
  const ByteBuffer base = encode_ack_frame(tp::MsgType::batch_ack,
                                           ExsSession::kIncarnation, 1,
                                           std::nullopt);
  const ByteBuffer full =
      encode_ack_frame(tp::MsgType::batch_ack, ExsSession::kIncarnation, 1, grant);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    if (cut == base.size()) continue;  // legal v2-shaped ack
    const Status st = s.core->handle_frame(full.view().subspan(0, cut));
    EXPECT_FALSE(st) << "cut at " << cut << " decoded as a valid frame";
  }
  EXPECT_TRUE(s.core->pacing()) << "pacing state must survive garbage frames";

  // An intact ack afterwards still drives the session forward.
  ASSERT_TRUE(s.core->handle_frame(full.view()));
  s.produce(4);
  EXPECT_GE(s.data_frames_sent(), 2u);
}

tp::CreditGrant grant_of(std::uint32_t window_records) {
  tp::CreditGrant grant;
  grant.incarnation = ExsSession::kIncarnation;
  grant.window_records = window_records;
  return grant;
}

TEST(CreditGrantSessionTest, BatchCapFollowsLargestGrantNotLatest) {
  ExsSession s(/*batch_max_records=*/8);
  EXPECT_TRUE(s.core->send_hello());
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::hello_ack, ExsSession::kIncarnation, 0, grant_of(64))
          .view()));
  s.produce(8);
  ASSERT_EQ(s.core->stats().batches_sent, 1u);

  // A backlog at the ISM shrinks one grant far below the batch size. The
  // batcher must keep sealing full batches: capping at the latest grant
  // would seal 2-record batches, and a replay buffer bounded in batches
  // would fill and evict under load.
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::batch_ack, ExsSession::kIncarnation, 1, grant_of(2))
          .view()));
  EXPECT_EQ(s.core->stats().credit_window_records, 2u);
  s.produce(8);
  EXPECT_EQ(s.core->stats().batches_sent, 2u) << "one 8-record batch, not four of 2";
  // Nothing is outstanding, so the oversized batch still ships whole.
  EXPECT_EQ(s.data_frames_sent(), 2u);
}

TEST(CreditGrantSessionTest, FirstGrantBelowBatchMaxStillCapsBatches) {
  ExsSession s(/*batch_max_records=*/8);
  EXPECT_TRUE(s.core->send_hello());
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::hello_ack, ExsSession::kIncarnation, 0, grant_of(2))
          .view()));
  s.produce(8);
  EXPECT_EQ(s.core->stats().batches_sent, 4u) << "the session's only grant caps batches";
  EXPECT_EQ(s.data_frames_sent(), 1u) << "the window takes one 2-record batch";
}

// A repeated ack cursor is the go-back-N loss signal — unless the grant
// widens the window: then the ISM's pipeline drained while the batch at the
// cursor still sat ahead of its ordering thread, and resending would only
// hand it a duplicate.
TEST(CreditGrantSessionTest, RepeatedCursorWithWiderGrantIsARegrantNotLoss) {
  ExsSession s;
  EXPECT_TRUE(s.core->send_hello());
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::hello_ack, ExsSession::kIncarnation, 0, grant_of(8))
          .view()));
  s.produce(4);
  ASSERT_EQ(s.data_frames_sent(), 1u);

  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::batch_ack, ExsSession::kIncarnation, 0, grant_of(16))
          .view()));
  EXPECT_EQ(s.data_frames_sent(), 1u) << "a widening re-grant must not resend";
  EXPECT_EQ(s.core->stats().batches_replayed, 0u);

  // The same cursor again with nothing new granted: now it is loss.
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::batch_ack, ExsSession::kIncarnation, 0, grant_of(16))
          .view()));
  EXPECT_EQ(s.data_frames_sent(), 2u);
  EXPECT_EQ(s.core->stats().batches_replayed, 1u);
}

TEST(CreditGrantSessionTest, RepeatedCursorWithEqualGrantStillResends) {
  ExsSession s;
  EXPECT_TRUE(s.core->send_hello());
  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::hello_ack, ExsSession::kIncarnation, 0, grant_of(8))
          .view()));
  s.produce(4);
  ASSERT_EQ(s.data_frames_sent(), 1u);

  ASSERT_TRUE(s.core->handle_frame(
      encode_ack_frame(tp::MsgType::batch_ack, ExsSession::kIncarnation, 0, grant_of(8))
          .view()));
  EXPECT_EQ(s.data_frames_sent(), 2u) << "a stuck cursor without new credit is loss";
  EXPECT_EQ(s.core->stats().batches_replayed, 1u);
}

// ---- fault-injected frame streams -------------------------------------------

void append_framed(std::vector<std::uint8_t>& stream, ByteSpan payload,
                   std::size_t body_bytes) {
  // The length prefix always declares the FULL payload size — a truncated
  // frame lies about its length, exactly like FaultySocket on the wire.
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  stream.push_back(static_cast<std::uint8_t>(len >> 24));
  stream.push_back(static_cast<std::uint8_t>(len >> 16));
  stream.push_back(static_cast<std::uint8_t>(len >> 8));
  stream.push_back(static_cast<std::uint8_t>(len));
  stream.insert(stream.end(), payload.begin(), payload.begin() + body_bytes);
}

TEST_P(FuzzSeed, FaultInjectedFrameStreamNeverCrashesDecoders) {
  sim::FaultPlan plan;
  plan.seed = GetParam();
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.2;
  plan.truncate_probability = 0.2;
  plan.spare_control_frames = false;  // maul everything, handshake included
  ASSERT_TRUE(plan.validate().is_ok());
  sim::FaultInjector injector(plan);

  // A realistic frame mix: batches interleaved with v2 control messages.
  std::vector<ByteBuffer> frames;
  for (int i = 0; i < 120; ++i) {
    ByteBuffer payload;
    xdr::Encoder enc(payload);
    switch (i % 4) {
      case 0:
        payload = valid_batch_payload();
        break;
      case 1:
        tp::put_type(tp::MsgType::hello, enc);
        tp::encode_hello({static_cast<NodeId>(i), tp::kProtocolVersion,
                          static_cast<std::uint64_t>(i) * 31},
                         enc);
        break;
      case 2: {
        tp::put_type(tp::MsgType::batch_ack, enc);
        tp::BatchAck ack;
        ack.next_expected_seq = static_cast<std::uint32_t>(i);
        if (i % 8 == 2) {  // half the acks carry a v3 credit tail
          ack.credit = tp::CreditGrant{static_cast<std::uint64_t>(i) * 31,
                                       static_cast<std::uint32_t>(i), 4096};
        }
        tp::encode_batch_ack(ack, enc);
        break;
      }
      default:
        tp::put_type(tp::MsgType::heartbeat, enc);
        break;
    }
    frames.push_back(std::move(payload));
  }

  // Assemble the byte stream the receiver would actually observe.
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ByteSpan payload = frames[i].view();
    const net::FaultDecision decision = injector.decide(i, payload);
    switch (decision.action) {
      case net::FaultAction::drop:
        break;
      case net::FaultAction::duplicate:
        append_framed(stream, payload, payload.size());
        append_framed(stream, payload, payload.size());
        break;
      case net::FaultAction::truncate:
        append_framed(stream, payload,
                      decision.truncate_to < payload.size() ? decision.truncate_to
                                                            : payload.size());
        break;
      case net::FaultAction::pass:
      case net::FaultAction::stall:  // timing-only on a byte stream
        append_framed(stream, payload, payload.size());
        break;
    }
  }

  // Feed it in randomly-sized chunks; decode whatever frames survive.
  std::mt19937_64 rng(GetParam() * 13 + 5);
  std::uniform_int_distribution<std::size_t> chunk_dist(1, 400);
  net::FrameReader reader;
  std::size_t offset = 0;
  bool stream_poisoned = false;
  while (offset < stream.size() && !stream_poisoned) {
    const std::size_t n = std::min(chunk_dist(rng), stream.size() - offset);
    reader.feed(ByteSpan{stream.data() + offset, n});
    offset += n;
    for (;;) {
      auto frame = reader.next();
      if (!frame.is_ok()) {
        stream_poisoned = true;  // a truncation desynced the framing: the
        break;                   // receiver would now drop the connection
      }
      if (!frame.value().has_value()) break;
      const ByteSpan view = frame.value()->view();
      xdr::Decoder dec(view);
      auto type = tp::peek_type(dec);
      if (!type.is_ok()) continue;
      switch (type.value()) {
        case tp::MsgType::data_batch:
          (void)tp::decode_batch(dec);
          break;
        case tp::MsgType::hello:
          (void)tp::decode_hello(dec);
          break;
        case tp::MsgType::hello_ack:
          (void)tp::decode_hello_ack(dec);
          break;
        case tp::MsgType::batch_ack:
          (void)tp::decode_batch_ack(dec);
          break;
        default:
          break;
      }
    }
  }
}

TEST_P(FuzzSeed, FaultInjectorIsDeterministicPerSeed) {
  sim::FaultPlan plan;
  plan.seed = GetParam() * 7 + 1;
  plan.drop_probability = 0.15;
  plan.duplicate_probability = 0.15;
  plan.truncate_probability = 0.15;
  plan.stall_probability = 0.1;
  plan.stall_us = 1'000;
  plan.stall_every = 16;
  ASSERT_TRUE(plan.validate().is_ok());
  sim::FaultInjector first(plan);
  sim::FaultInjector second(plan);

  std::mt19937_64 rng(GetParam());
  const ByteBuffer batch = valid_batch_payload();
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    // Alternate data batches with random control-ish payloads.
    auto noise = random_bytes(rng, 64);
    const ByteSpan payload =
        (i % 2 == 0) ? batch.view() : ByteSpan{noise.data(), noise.size()};
    const net::FaultDecision a = first.decide(i, payload);
    const net::FaultDecision b = second.decide(i, payload);
    EXPECT_EQ(static_cast<int>(a.action), static_cast<int>(b.action)) << "frame " << i;
    EXPECT_EQ(a.truncate_to, b.truncate_to);
    EXPECT_EQ(a.stall_us, b.stall_us);
  }
}

// ---- federation wire (ordered-stream hello, relay frames) -------------------

ByteBuffer valid_relay_batch_payload() {
  tp::RelayBatchBuilder builder(1000);
  sensors::Record record;
  record.node = 3;  // origin node travels per record on a relay stream
  record.sensor = 9;
  record.timestamp = 5'000;
  record.fields = {sensors::Field::i32(1), sensors::Field::str("abc"),
                   sensors::Field::conseq(4)};
  EXPECT_TRUE(builder.add_record(record));
  record.node = 4;
  record.timestamp = 5'001;
  EXPECT_TRUE(builder.add_record(record));
  builder.set_watermark(5'001);
  return builder.finish();
}

ByteBuffer valid_relay_watermark_payload() {
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::relay_watermark, enc);
  tp::encode_relay_watermark({1000, 123'456}, enc);
  return out;
}

// A cut anywhere inside the capability tail must error — a torn capability
// word never silently decodes as "no capabilities" (the parent would then
// treat an ordered relay stream as an unsorted EXS stream and break the
// merge's watermark contract). The one legal short read is the exact
// capability-free boundary.
TEST(FederationWireTest, HelloCapabilityTailTruncationNeverVanishes) {
  ByteBuffer base_wire;
  xdr::Encoder base_enc(base_wire);
  tp::put_type(tp::MsgType::hello, base_enc);
  tp::encode_hello({1000, tp::kProtocolVersion, 77, 0}, base_enc);

  ByteBuffer full_wire;
  xdr::Encoder full_enc(full_wire);
  tp::put_type(tp::MsgType::hello, full_enc);
  tp::encode_hello({1000, tp::kProtocolVersion, 77, tp::kCapabilityOrderedStream},
                   full_enc);
  ASSERT_GT(full_wire.size(), base_wire.size());

  for (std::size_t cut = 0; cut <= full_wire.size(); ++cut) {
    xdr::Decoder dec(full_wire.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    auto back = tp::decode_hello(dec);
    if (cut == base_wire.size()) {
      ASSERT_TRUE(back.is_ok()) << "capability-free boundary at " << cut;
      EXPECT_EQ(back.value().capabilities, 0u);
    } else if (cut == full_wire.size()) {
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(back.value().capabilities, tp::kCapabilityOrderedStream);
    } else {
      EXPECT_FALSE(back.is_ok()) << "hello cut at " << cut;
    }
  }
}

TEST(FederationWireTest, UnknownHelloCapabilityBitsAreRejected) {
  for (const std::uint32_t capabilities :
       {std::uint32_t{1} << 1, std::uint32_t{1} << 31,
        tp::kCapabilityOrderedStream | (std::uint32_t{1} << 5), ~std::uint32_t{0}}) {
    ByteBuffer wire;
    xdr::Encoder enc(wire);
    tp::put_type(tp::MsgType::hello, enc);
    tp::encode_hello({1000, tp::kProtocolVersion, 77, capabilities}, enc);
    xdr::Decoder dec(wire.view());
    ASSERT_TRUE(tp::peek_type(dec).is_ok());
    auto back = tp::decode_hello(dec);
    ASSERT_FALSE(back.is_ok()) << "capabilities 0x" << std::hex << capabilities;
    EXPECT_EQ(back.status().code(), Errc::malformed);
  }
}

TEST(FederationWireTest, RelayBatchTruncationsAlwaysError) {
  const ByteBuffer payload = valid_relay_batch_payload();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    xdr::Decoder dec(payload.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    EXPECT_FALSE(tp::decode_relay_batch(dec).is_ok())
        << "relay_batch cut at " << cut << " decoded successfully";
  }
  xdr::Decoder dec(payload.view());
  ASSERT_TRUE(tp::peek_type(dec).is_ok());
  auto batch = tp::decode_relay_batch(dec);
  ASSERT_TRUE(batch.is_ok());
  EXPECT_EQ(batch.value().header.relay_node, 1000u);
  EXPECT_EQ(batch.value().header.watermark, 5'001);
  ASSERT_EQ(batch.value().records.size(), 2u);
  EXPECT_EQ(batch.value().records[0].node, 3u);
  EXPECT_EQ(batch.value().records[1].node, 4u);
}

TEST(FederationWireTest, RelayWatermarkTruncationsAlwaysError) {
  const ByteBuffer payload = valid_relay_watermark_payload();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    xdr::Decoder dec(payload.view().subspan(0, cut));
    if (!tp::peek_type(dec).is_ok()) continue;
    EXPECT_FALSE(tp::decode_relay_watermark(dec).is_ok())
        << "relay_watermark cut at " << cut << " decoded successfully";
  }
  xdr::Decoder dec(payload.view());
  ASSERT_TRUE(tp::peek_type(dec).is_ok());
  auto wm = tp::decode_relay_watermark(dec);
  ASSERT_TRUE(wm.is_ok());
  EXPECT_EQ(wm.value().relay_node, 1000u);
  EXPECT_EQ(wm.value().watermark, 123'456);
}

TEST_P(FuzzSeed, RelayFramesSurviveSingleByteCorruption) {
  std::mt19937_64 rng(GetParam() * 41 + 13);
  for (const ByteBuffer& payload :
       {valid_relay_batch_payload(), valid_relay_watermark_payload()}) {
    std::vector<std::uint8_t> bytes(payload.view().begin(), payload.view().end());
    std::uniform_int_distribution<std::size_t> pos_dist(0, bytes.size() - 1);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    for (int i = 0; i < 500; ++i) {
      auto mutated = bytes;
      mutated[pos_dist(rng)] = static_cast<std::uint8_t>(byte_dist(rng));
      xdr::Decoder dec(ByteSpan{mutated.data(), mutated.size()});
      auto type = tp::peek_type(dec);
      if (!type.is_ok()) continue;
      if (type.value() == tp::MsgType::relay_batch) {
        auto batch = tp::decode_relay_batch(dec);  // may fail; must not crash
        if (batch.is_ok()) {
          EXPECT_LE(batch.value().records.size(), 2u)
              << "corruption cannot invent records beyond the declared count";
        }
      } else if (type.value() == tp::MsgType::relay_watermark) {
        (void)tp::decode_relay_watermark(dec);
      }
    }
  }
}

// Relay-forwarded frames mixed into a torn byte stream: frames that survive
// the fault injector decode or error cleanly, and a lying length prefix
// poisons only the framing layer — never the decoders.
TEST_P(FuzzSeed, TornRelayFrameStreamNeverCrashesDecoders) {
  sim::FaultPlan plan;
  plan.seed = GetParam() * 53 + 9;
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.2;
  plan.truncate_probability = 0.25;
  plan.spare_control_frames = false;
  ASSERT_TRUE(plan.validate().is_ok());
  sim::FaultInjector injector(plan);

  std::vector<ByteBuffer> frames;
  for (int i = 0; i < 120; ++i) {
    ByteBuffer payload;
    xdr::Encoder enc(payload);
    switch (i % 3) {
      case 0:
        payload = valid_relay_batch_payload();
        break;
      case 1:
        tp::put_type(tp::MsgType::relay_watermark, enc);
        tp::encode_relay_watermark({1000, static_cast<TimeMicros>(i) * 997}, enc);
        break;
      default:
        tp::put_type(tp::MsgType::hello, enc);
        tp::encode_hello({static_cast<NodeId>(1000 + i), tp::kProtocolVersion,
                          static_cast<std::uint64_t>(i) * 31,
                          tp::kCapabilityOrderedStream},
                         enc);
        break;
    }
    frames.push_back(std::move(payload));
  }

  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ByteSpan payload = frames[i].view();
    const net::FaultDecision decision = injector.decide(i, payload);
    switch (decision.action) {
      case net::FaultAction::drop:
        break;
      case net::FaultAction::duplicate:
        append_framed(stream, payload, payload.size());
        append_framed(stream, payload, payload.size());
        break;
      case net::FaultAction::truncate:
        append_framed(stream, payload,
                      decision.truncate_to < payload.size() ? decision.truncate_to
                                                            : payload.size());
        break;
      case net::FaultAction::pass:
      case net::FaultAction::stall:
        append_framed(stream, payload, payload.size());
        break;
    }
  }

  std::mt19937_64 rng(GetParam() * 19 + 3);
  std::uniform_int_distribution<std::size_t> chunk_dist(1, 400);
  net::FrameReader reader;
  std::size_t offset = 0;
  bool stream_poisoned = false;
  while (offset < stream.size() && !stream_poisoned) {
    const std::size_t n = std::min(chunk_dist(rng), stream.size() - offset);
    reader.feed(ByteSpan{stream.data() + offset, n});
    offset += n;
    for (;;) {
      auto frame = reader.next();
      if (!frame.is_ok()) {
        stream_poisoned = true;
        break;
      }
      if (!frame.value().has_value()) break;
      xdr::Decoder dec(frame.value()->view());
      auto type = tp::peek_type(dec);
      if (!type.is_ok()) continue;
      switch (type.value()) {
        case tp::MsgType::relay_batch:
          (void)tp::decode_relay_batch(dec);
          break;
        case tp::MsgType::relay_watermark:
          (void)tp::decode_relay_watermark(dec);
          break;
        case tp::MsgType::hello:
          (void)tp::decode_hello(dec);
          break;
        default:
          break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace brisk
