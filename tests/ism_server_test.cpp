// ISM server protocol-robustness tests: a raw TCP client speaks crafted
// (including malformed) transfer-protocol frames at a live Ism and verifies
// the server's dispositions — drop the connection on protocol violations,
// tolerate benign oddities, never crash.
//
// The whole suite is parameterized over the ingest configuration (poller
// backend x inline/threaded readers) so every disposition holds in all
// deployment shapes, and a determinism test checks the sorted output is
// identical whichever configuration ran it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "ism/ism.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/trace.hpp"
#include "sensors/trace_record.hpp"
#include "tp/batch.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::ism {
namespace {

/// One ingest deployment shape: which poller, how many reader threads, how
/// many ordering shards. gtest prints the parameter's raw bytes (size
/// included) into every test's listed name; the alignment keeps the struct
/// at its historical 32 bytes so those names stay stable.
struct alignas(32) IngestMode {
  net::PollerBackend poller = net::PollerBackend::select;
  std::size_t reader_threads = 0;
  std::size_t sorter_shards = 1;
};

std::string ingest_mode_name(const ::testing::TestParamInfo<IngestMode>& info) {
  std::string name = net::to_string(info.param.poller);
  name += info.param.reader_threads == 0 ? "_inline" : "_threaded";
  if (info.param.sorter_shards > 1) {
    name += "_shards" + std::to_string(info.param.sorter_shards);
  }
  return name;
}

std::vector<IngestMode> ingest_modes() {
  return {
      IngestMode{net::PollerBackend::select, 0},
      IngestMode{net::PollerBackend::select, 2},
      IngestMode{net::PollerBackend::epoll, 0},
      IngestMode{net::PollerBackend::epoll, 2},
      IngestMode{net::PollerBackend::select, 2, 2},
      IngestMode{net::PollerBackend::epoll, 0, 2},
  };
}

class IsmServerTest : public ::testing::TestWithParam<IngestMode> {
 protected:
  void SetUp() override {
    IsmConfig config;
    config.select_timeout_us = 2'000;
    config.enable_sync = false;
    config.sorter.initial_frame_us = 0;
    config.sorter.min_frame_us = 0;
    config.sorter.adaptive = false;
    config.poller = GetParam().poller;
    config.reader_threads = GetParam().reader_threads;
    config.sorter_shards = GetParam().sorter_shards;
    delivered_ = std::make_shared<DeliveredLog>();
    auto delivered = delivered_;
    auto sink = std::make_shared<CallbackSink>(
        [delivered](const sensors::Record& r) { delivered->add(r); });
    auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
    ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
    ism_ = std::move(ism).value();
    server_ = std::thread([this] { (void)ism_->run(); });
  }

  void TearDown() override {
    ism_->stop();
    server_.join();
  }

  net::TcpSocket connect() {
    auto socket = net::TcpSocket::connect("127.0.0.1", ism_->port());
    EXPECT_TRUE(socket.is_ok());
    return std::move(socket).value();
  }

  static Status send_hello(net::TcpSocket& socket, NodeId node,
                           std::uint32_t version = tp::kProtocolVersion) {
    ByteBuffer out;
    xdr::Encoder enc(out);
    tp::put_type(tp::MsgType::hello, enc);
    tp::encode_hello({node, version}, enc);
    return net::write_frame(socket, out.view());
  }

  /// True if the server closed the connection (EOF within the deadline).
  static bool connection_closed(net::TcpSocket& socket, TimeMicros timeout = 2'000'000) {
    const TimeMicros deadline = monotonic_micros() + timeout;
    (void)socket.set_nonblocking(true);
    std::uint8_t chunk[256];
    while (monotonic_micros() < deadline) {
      auto n = socket.read_some(MutableByteSpan{chunk, sizeof chunk});
      if (!n) {
        if (n.status().code() == Errc::would_block) {
          sleep_micros(5'000);
          continue;
        }
        return true;  // reset counts as closed
      }
      if (n.value() == 0) return true;
      // Server sent something (e.g. a sync poll) — keep draining.
    }
    return false;
  }

  /// Mutex-guarded record log shared with the server thread's sink.
  struct DeliveredLog {
    std::mutex mutex;
    std::vector<sensors::Record> records;
    void add(const sensors::Record& r) {
      std::lock_guard<std::mutex> lock(mutex);
      records.push_back(r);
    }
    std::size_t size() {
      std::lock_guard<std::mutex> lock(mutex);
      return records.size();
    }
    sensors::Record at(std::size_t i) {
      std::lock_guard<std::mutex> lock(mutex);
      return records.at(i);
    }
  };

  bool wait_for_delivery(std::size_t count, TimeMicros timeout = 2'000'000) {
    const TimeMicros deadline = monotonic_micros() + timeout;
    while (monotonic_micros() < deadline) {
      if (delivered_->size() >= count) return true;
      sleep_micros(2'000);
    }
    return false;
  }

  std::unique_ptr<Ism> ism_;
  std::shared_ptr<DeliveredLog> delivered_;
  std::thread server_;
};

TEST_P(IsmServerTest, WellFormedSessionDelivers) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 5));
  tp::BatchBuilder builder(5);
  sensors::Record record;
  record.sensor = 1;
  record.timestamp = 42;
  record.fields = {sensors::Field::i32(7)};
  ASSERT_TRUE(builder.add_record(record));
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket, payload.view()));
  EXPECT_TRUE(wait_for_delivery(1));
  EXPECT_EQ(delivered_->at(0).node, 5u);
}

TEST_P(IsmServerTest, BatchBeforeHelloDropsConnection) {
  auto socket = connect();
  tp::BatchBuilder builder(1);
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket, payload.view()));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, VersionMismatchDropsConnection) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 1, /*version=*/999));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, DuplicateNodeIdRejected) {
  auto first = connect();
  ASSERT_TRUE(send_hello(first, 7));
  // Wait for the HELLO_ACK: with parallel reader threads there is no
  // cross-connection ordering, so the session must be established before
  // the usurper shows up (a real EXS gates on the ack the same way).
  ASSERT_TRUE(net::read_frame(first).is_ok());
  auto second = connect();
  ASSERT_TRUE(send_hello(second, 7));
  EXPECT_TRUE(connection_closed(second));
  EXPECT_FALSE(connection_closed(first, 200'000)) << "original connection survives";
}

TEST_P(IsmServerTest, NodeIdReusableAfterDisconnect) {
  {
    auto socket = connect();
    ASSERT_TRUE(send_hello(socket, 9));
    sleep_micros(50'000);
  }  // closed
  sleep_micros(100'000);
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 9));
  EXPECT_FALSE(connection_closed(socket, 300'000)) << "id freed by the disconnect";
}

TEST_P(IsmServerTest, UnknownMessageTypeDropsConnection) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 2));
  ByteBuffer garbage;
  xdr::Encoder enc(garbage);
  enc.put_u32(99);  // not a MsgType
  ASSERT_TRUE(net::write_frame(socket, garbage.view()));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, TruncatedBatchDropsConnection) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 3));
  ByteBuffer bad;
  xdr::Encoder enc(bad);
  tp::put_type(tp::MsgType::data_batch, enc);
  enc.put_u32(3);  // node, then nothing else
  ASSERT_TRUE(net::write_frame(socket, bad.view()));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, OversizedFrameHeaderDropsConnection) {
  auto socket = connect();
  const std::uint8_t evil[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(socket.write_all(ByteSpan{evil, 4}));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, UnsolicitedTimeRespTolerated) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 4));
  ByteBuffer resp;
  xdr::Encoder enc(resp);
  tp::put_type(tp::MsgType::time_resp, enc);
  tp::encode_time_resp({12345, 67890}, enc);
  ASSERT_TRUE(net::write_frame(socket, resp.view()));
  EXPECT_FALSE(connection_closed(socket, 300'000)) << "stale responses are ignored";
}

TEST_P(IsmServerTest, ByeClosesGracefully) {
  auto socket = connect();
  ASSERT_TRUE(send_hello(socket, 6));
  ByteBuffer bye;
  xdr::Encoder enc(bye);
  tp::put_type(tp::MsgType::bye, enc);
  ASSERT_TRUE(net::write_frame(socket, bye.view()));
  EXPECT_TRUE(connection_closed(socket));
}

TEST_P(IsmServerTest, EmptyFrameDropsConnection) {
  auto socket = connect();
  ASSERT_TRUE(net::write_frame(socket, ByteSpan{}));
  EXPECT_TRUE(connection_closed(socket));
}

INSTANTIATE_TEST_SUITE_P(IngestModes, IsmServerTest, ::testing::ValuesIn(ingest_modes()),
                         ingest_mode_name);

// ---- threaded close ---------------------------------------------------------------------
//
// Regression: a reader thread may have queued events behind the frame that
// closes its connection. Inline mode never decodes past a close; threaded
// mode used to apply the queued batches, which — with quarantine 0, the
// session already expired — recreated a phantom session at cursor 0 that
// the next sweep expired a second time.
TEST(IsmServerCloseTest, ThreadedCloseDiscardsEventsQueuedBehindIt) {
  IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.reader_threads = 1;
  config.quarantine_timeout_us = 0;
  auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
  auto started = Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  std::unique_ptr<Ism> ism = std::move(started).value();
  std::thread server([&] { (void)ism->run(); });

  // HELLO, batch 0, a frame of unexpected type, then batches 1 and 2 — all
  // in one write, so the reader decodes them together.
  ByteBuffer wire;
  auto add_frame = [&wire](ByteSpan payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint8_t header[4] = {static_cast<std::uint8_t>(len >> 24),
                                    static_cast<std::uint8_t>(len >> 16),
                                    static_cast<std::uint8_t>(len >> 8),
                                    static_cast<std::uint8_t>(len)};
    wire.append(header, sizeof header);
    wire.append(payload);
  };
  ByteBuffer hello;
  xdr::Encoder hello_enc(hello);
  tp::put_type(tp::MsgType::hello, hello_enc);
  tp::encode_hello({NodeId(9), tp::kProtocolVersion, /*incarnation=*/1}, hello_enc);
  add_frame(hello.view());
  tp::BatchBuilder builder{NodeId(9)};
  auto add_batch = [&] {
    sensors::Record record;
    record.sensor = 1;
    record.timestamp = 42;
    record.fields = {sensors::Field::i32(7)};
    ASSERT_TRUE(builder.add_record(record));
    ByteBuffer payload = builder.finish();
    add_frame(payload.view());
  };
  add_batch();
  ByteBuffer garbage;
  xdr::Encoder garbage_enc(garbage);
  garbage_enc.put_u32(99);  // not a MsgType
  add_frame(garbage.view());
  add_batch();
  add_batch();

  auto client = net::TcpSocket::connect("127.0.0.1", ism->port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().write_all(wire.view()));
  // The hello_ack, then EOF once the server drops the connection.
  ASSERT_TRUE(net::read_frame(client.value()).is_ok());
  EXPECT_FALSE(net::read_frame(client.value()).is_ok());
  sleep_micros(100'000);  // many sweeps: a phantom session would expire again
  ism->stop();
  server.join();

  const IsmStats stats = ism->stats();
  EXPECT_EQ(stats.sessions_expired, 1u);
  EXPECT_EQ(stats.out_of_order_batches_dropped, 0u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(ism->session_count(), 0u);
}

// ---- outbox stall classification -------------------------------------------------------
//
// Regression for the pump-error handling bug where *any* failed outbox send
// closed the connection: Errc::buffer_full is a transient overload signal
// (the peer stopped reading and both the kernel buffer and the outbox cap
// filled), not a dead socket. An overloaded-but-alive peer must keep its
// connection through the stall grace period and, once it resumes reading,
// receive every deferred ack as an intact frame. Only
// outbox_stall_timeout_us = 0 restores the legacy reap-on-first-rejection
// behaviour — the companion test below proves the same traffic shape really
// does wedge the outbox (so the survival test is not vacuously green).

/// Client socket whose receive buffer is clamped to the kernel minimum
/// *before* connect, so the server-side kernel send buffer + outbox fill
/// after a few hundred acks instead of megabytes.
net::TcpSocket connect_tiny_rcvbuf(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int tiny = 1;  // clamped up to the kernel's floor — still a few KiB
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return net::TcpSocket{net::FdHandle{fd}};
}

/// ISM tuned so a non-reading peer wedges its outbox within ~1 s: tiny
/// server-side SO_SNDBUF, tiny outbox cap, acks every millisecond.
IsmConfig stall_config(TimeMicros stall_timeout_us) {
  IsmConfig config;
  config.select_timeout_us = 1'000;
  config.enable_sync = false;
  config.sorter.initial_frame_us = 0;
  config.sorter.min_frame_us = 0;
  config.sorter.adaptive = false;
  config.ack_period_us = 1'000;
  config.sndbuf_bytes = 4'096;  // kernel clamps up to its floor
  config.outbox_bytes = 512;
  config.outbox_stall_timeout_us = stall_timeout_us;
  return config;
}

TEST(IsmLoopWaitTest, InlineLoopWakesWhenTheSorterHasARecordDue) {
  IsmConfig config;
  config.select_timeout_us = 200'000;
  config.enable_sync = false;
  config.sorter.initial_frame_us = 5'000;
  config.sorter.min_frame_us = 5'000;
  config.sorter.adaptive = false;
  std::atomic<TimeMicros> delivered_at{0};
  auto sink = std::make_shared<CallbackSink>([&delivered_at](const sensors::Record&) {
    delivered_at.store(monotonic_micros());
  });
  auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  std::thread server([&] { (void)ism.value()->run(); });

  auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
  ASSERT_TRUE(socket.is_ok());
  // Without TCP_NODELAY the batch could sit in Nagle's buffer until its
  // record is already due on arrival, and the test would prove nothing.
  ASSERT_TRUE(socket.value().set_nodelay(true));
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({NodeId(9), tp::kProtocolVersion}, enc);
  ASSERT_TRUE(net::write_frame(socket.value(), hello.view()));
  ASSERT_TRUE(net::read_frame(socket.value()).is_ok()) << "hello_ack";

  tp::BatchBuilder builder{NodeId(9)};
  sensors::Record record;
  record.sensor = 1;
  record.timestamp = clk::SystemClock::instance().now();
  record.fields = {sensors::Field::i32(1)};
  ASSERT_TRUE(builder.add_record(record));
  ByteBuffer batch = builder.finish();
  const TimeMicros sent_at = monotonic_micros();
  ASSERT_TRUE(net::write_frame(socket.value(), batch.view()));
  while (delivered_at.load() == 0 && monotonic_micros() - sent_at < 2'000'000) {
    sleep_micros(1'000);
  }
  ism.value()->stop();
  server.join();
  ASSERT_NE(delivered_at.load(), 0) << "record never delivered";
  // Due 5 ms after arrival; a loop that waits out its 200 ms select
  // timeout after the arrival wakeup delivers it ~200 ms late.
  EXPECT_LT(delivered_at.load() - sent_at, 100'000);
}

TEST(IsmOutboxStallTest, OverloadedPeerSurvivesGracePeriodAndFramesNeverTear) {
  auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
  auto ism = Ism::start(stall_config(/*stall_timeout_us=*/60'000'000),
                        clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  std::thread server([&] { (void)ism.value()->run(); });

  net::TcpSocket client = connect_tiny_rcvbuf(ism.value()->port());
  ASSERT_TRUE(client.valid());
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({NodeId(7), tp::kProtocolVersion}, enc);
  ASSERT_TRUE(net::write_frame(client, hello.view()));
  ASSERT_TRUE(net::read_frame(client).is_ok()) << "hello_ack";

  // Stop reading: millisecond acks fill the kernel buffers, then the 512-byte
  // outbox, and every further sweep sees Errc::buffer_full. Within the 60 s
  // grace the server must classify that as transient and keep the session.
  sleep_micros(2'000'000);
  EXPECT_EQ(ism.value()->connected_nodes(), 1u)
      << "buffer_full during the grace period must not reap the connection";

  // Resume reading: each deferred ack must arrive as one intact frame (a
  // torn frame would desync the length-prefixed stream and fail the parse).
  int intact_acks = 0;
  for (int i = 0; i < 40; ++i) {
    auto frame = net::read_frame(client);
    ASSERT_TRUE(frame.is_ok()) << "torn or corrupt frame after stall: "
                               << frame.status().to_string();
    xdr::Decoder dec(frame.value().view());
    auto type = tp::peek_type(dec);
    ASSERT_TRUE(type.is_ok());
    ASSERT_EQ(type.value(), tp::MsgType::batch_ack);
    ++intact_acks;
  }
  EXPECT_EQ(intact_acks, 40);
  EXPECT_EQ(ism.value()->connected_nodes(), 1u);

  ism.value()->stop();
  server.join();
}

TEST(IsmOutboxStallTest, ZeroGraceReapsWedgedPeer) {
  // Same traffic shape, legacy classification: the first buffer_full is
  // fatal. This closing proves the survival test above really stalled.
  auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
  auto ism = Ism::start(stall_config(/*stall_timeout_us=*/0),
                        clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  std::thread server([&] { (void)ism.value()->run(); });

  net::TcpSocket client = connect_tiny_rcvbuf(ism.value()->port());
  ASSERT_TRUE(client.valid());
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({NodeId(9), tp::kProtocolVersion}, enc);
  ASSERT_TRUE(net::write_frame(client, hello.view()));
  ASSERT_TRUE(net::read_frame(client).is_ok()) << "hello_ack";

  // Never read again; the wedged outbox must reap the session promptly.
  const TimeMicros deadline = monotonic_micros() + 8'000'000;
  while (ism.value()->connected_nodes() > 0 && monotonic_micros() < deadline) {
    sleep_micros(10'000);
  }
  EXPECT_EQ(ism.value()->connected_nodes(), 0u)
      << "outbox_stall_timeout_us=0 must reap on the first buffer_full";

  ism.value()->stop();
  server.join();
}

// ---- receiver-driven credit window updates ---------------------------------------------
//
// A credited (v3) session gets a BATCH_ACK as soon as half its window has
// been admitted since its last ack, not at the next ack period. The sweep
// is pushed out of the picture (10 s ack period, no replenish cadence), so
// every ack the client sees below is a window update.

/// An ISM whose sorter holds every record for `hold_us` — by default until
/// drain, so a node's backlog is exactly the records admitted from it.
struct WindowUpdateIsm {
  WindowUpdateIsm(std::uint32_t credit_records, const IngestMode& mode,
                  TimeMicros hold_us = 120'000'000, TimeMicros replenish_us = 0) {
    IsmConfig config;
    config.select_timeout_us = 2'000;
    config.enable_sync = false;
    config.sorter.adaptive = false;
    config.sorter.initial_frame_us = hold_us;
    config.sorter.max_frame_us = hold_us;
    config.poller = mode.poller;
    config.reader_threads = mode.reader_threads;
    config.sorter_shards = mode.sorter_shards;
    config.ack_period_us = 10'000'000;
    config.credit_window_records = credit_records;
    config.credit_replenish_us = replenish_us;
    auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
    auto started = Ism::start(config, clk::SystemClock::instance(), sink);
    EXPECT_TRUE(started.is_ok()) << started.status().to_string();
    ism = std::move(started).value();
    server = std::thread([this] { (void)ism->run(); });
  }
  ~WindowUpdateIsm() {
    ism->stop();
    server.join();
  }
  WindowUpdateIsm(const WindowUpdateIsm&) = delete;
  WindowUpdateIsm& operator=(const WindowUpdateIsm&) = delete;

  /// Connects as `node` speaking `version` and consumes the HELLO_ACK.
  net::TcpSocket join(NodeId node, std::uint32_t version) {
    auto socket = net::TcpSocket::connect("127.0.0.1", ism->port());
    EXPECT_TRUE(socket.is_ok());
    ByteBuffer hello;
    xdr::Encoder enc(hello);
    tp::put_type(tp::MsgType::hello, enc);
    tp::encode_hello({node, version, /*incarnation=*/1}, enc);
    EXPECT_TRUE(net::write_frame(socket.value(), hello.view()));
    EXPECT_TRUE(net::read_frame(socket.value()).is_ok()) << "hello_ack";
    return std::move(socket).value();
  }

  std::unique_ptr<Ism> ism;
  std::thread server;
};

void send_records(net::TcpSocket& socket, tp::BatchBuilder& builder, int count) {
  const TimeMicros now = clk::SystemClock::instance().now();
  for (int i = 0; i < count; ++i) {
    sensors::Record record;
    record.sensor = 1;
    record.timestamp = now + i;
    record.fields = {sensors::Field::i32(i)};
    ASSERT_TRUE(builder.add_record(record));
  }
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket, payload.view()));
}

/// The next BATCH_ACK if one arrives within `timeout`.
std::optional<tp::BatchAck> ack_within(net::TcpSocket& socket, TimeMicros timeout) {
  pollfd pfd{socket.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(timeout / 1'000)) <= 0) return std::nullopt;
  auto frame = net::read_frame(socket);
  EXPECT_TRUE(frame.is_ok());
  if (!frame) return std::nullopt;
  xdr::Decoder dec(frame.value().view());
  auto type = tp::peek_type(dec);
  EXPECT_TRUE(type.is_ok() && type.value() == tp::MsgType::batch_ack);
  auto ack = tp::decode_batch_ack(dec);
  EXPECT_TRUE(ack.is_ok());
  if (!ack) return std::nullopt;
  return ack.value();
}

TEST(IsmWindowUpdateTest, CreditedSessionIsAckedOnceHalfItsWindowIsAdmitted) {
  for (const IngestMode& mode :
       {IngestMode{net::PollerBackend::select, 0}, IngestMode{net::PollerBackend::epoll, 2, 2}}) {
    SCOPED_TRACE(std::string(net::to_string(mode.poller)) + " readers=" +
                 std::to_string(mode.reader_threads));
    WindowUpdateIsm server(/*credit_records=*/8, mode);
    net::TcpSocket client = server.join(5, tp::kCreditProtocolVersion);
    tp::BatchBuilder builder{NodeId(5)};

    send_records(client, builder, 4);  // half the window
    auto ack = ack_within(client, 2'000'000);
    ASSERT_TRUE(ack.has_value()) << "half a window admitted must ack at once";
    EXPECT_EQ(ack->next_expected_seq, 1u);
    ASSERT_TRUE(ack->credit.has_value());
    EXPECT_EQ(ack->credit->window_records, 4u) << "window minus the 4-record backlog";

    send_records(client, builder, 3);  // below half since the last ack
    EXPECT_FALSE(ack_within(client, 300'000).has_value());

    send_records(client, builder, 1);
    ack = ack_within(client, 2'000'000);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->next_expected_seq, 3u);
    ASSERT_TRUE(ack->credit.has_value());
    EXPECT_EQ(ack->credit->window_records, 0u);
    EXPECT_EQ(server.ism->stats().window_update_acks, 2u);
  }
}

TEST(IsmWindowUpdateTest, V2SessionAndCreditsOffGetNoWindowUpdates) {
  const IngestMode mode{net::PollerBackend::select, 0};
  {
    WindowUpdateIsm server(/*credit_records=*/8, mode);
    net::TcpSocket client = server.join(6, tp::kMinProtocolVersion);
    tp::BatchBuilder builder{NodeId(6)};
    send_records(client, builder, 8);
    EXPECT_FALSE(ack_within(client, 300'000).has_value()) << "v2 peers keep the ack period";
    EXPECT_EQ(server.ism->stats().window_update_acks, 0u);
  }
  {
    WindowUpdateIsm server(/*credit_records=*/0, mode);
    net::TcpSocket client = server.join(7, tp::kCreditProtocolVersion);
    tp::BatchBuilder builder{NodeId(7)};
    send_records(client, builder, 8);
    EXPECT_FALSE(ack_within(client, 300'000).has_value()) << "credits off keeps the ack period";
    EXPECT_EQ(server.ism->stats().window_update_acks, 0u);
  }
}

// The pipeline exit drives the window update: once a stalled session's
// records drain, its grant widens at once — not at the replenish cadence or
// the ack period, both pushed out to 10 s here.
TEST(IsmWindowUpdateTest, StalledSessionIsReGrantedOnceThePipelineDrains) {
  constexpr TimeMicros kHold = 200'000;  // the sorter's fixed T
  constexpr TimeMicros kPrompt = 200'000;
  for (const IngestMode& mode :
       {IngestMode{net::PollerBackend::select, 0}, IngestMode{net::PollerBackend::epoll, 2, 2}}) {
    SCOPED_TRACE(std::string(net::to_string(mode.poller)) + " readers=" +
                 std::to_string(mode.reader_threads));
    WindowUpdateIsm server(/*credit_records=*/8, mode, kHold, /*replenish_us=*/10'000'000);
    net::TcpSocket client = server.join(5, tp::kCreditProtocolVersion);
    tp::BatchBuilder builder{NodeId(5)};

    const TimeMicros sent_at = monotonic_micros();
    send_records(client, builder, 8);  // the whole window
    auto ack = ack_within(client, 2'000'000);
    ASSERT_TRUE(ack.has_value()) << "the half-window update";
    ASSERT_TRUE(ack->credit.has_value());
    ASSERT_EQ(ack->credit->window_records, 0u) << "the sorter still holds the window";

    ack = ack_within(client, kHold + kPrompt);
    ASSERT_TRUE(ack.has_value()) << "no window update after the pipeline drained";
    EXPECT_LE(monotonic_micros() - sent_at, kHold + kPrompt);
    EXPECT_EQ(ack->next_expected_seq, 1u);
    ASSERT_TRUE(ack->credit.has_value());
    EXPECT_GT(ack->credit->window_records, 0u) << "the grant must widen";
    EXPECT_GT(server.ism->stats().drain_window_updates, 0u);
    EXPECT_EQ(server.ism->stats().window_update_acks, 1u);
  }
}

// An ack period below the select timeout paces acks on its own: the loop's
// wait folds in each session's ack deadline instead of sleeping the whole
// select timeout between acks.
TEST(IsmAckCadenceTest, AckPeriodBelowTheSelectTimeoutWakesTheLoop) {
  IsmConfig config;
  config.select_timeout_us = 1'000'000;
  config.enable_sync = false;
  config.ack_period_us = 50'000;
  auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
  auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  std::thread server([&] { (void)ism.value()->run(); });

  auto client = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
  ASSERT_TRUE(client.is_ok());
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({NodeId(4), tp::kProtocolVersion}, enc);
  ASSERT_TRUE(net::write_frame(client.value(), hello.view()));
  ASSERT_TRUE(net::read_frame(client.value()).is_ok()) << "hello_ack";
  // No heartbeats, no batches: nothing but the ack deadline wakes the loop.
  std::vector<TimeMicros> arrivals;
  for (int i = 0; i < 5; ++i) {
    if (!ack_within(client.value(), 1'500'000)) break;
    arrivals.push_back(monotonic_micros());
  }
  ism.value()->stop();
  server.join();

  ASSERT_EQ(arrivals.size(), 5u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i] - arrivals[i - 1], 200'000) << "ack " << i;
  }
}

// Regression: the ack period must run from the end of the ack's write. When
// it ran from the start, a write that stalled past the period was followed
// at once by another ack naming the same cursor — the batches the EXS sent
// on the first ack's grant were still in flight — and the EXS read the
// repeat as loss and resent its whole window.
TEST(IsmAckCadenceTest, StalledAckWriteDoesNotPullTheNextAckForward) {
  constexpr TimeMicros kPeriod = 40'000;
  constexpr TimeMicros kStall = 60'000;
  IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.ack_period_us = kPeriod;
  auto sink = std::make_shared<CallbackSink>([](const sensors::Record&) {});
  auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
  // Every other BATCH_ACK stalls its write; note when each ack was offered.
  std::mutex mutex;
  std::vector<std::pair<TimeMicros, bool>> offered;  // (time, stalled)
  ism.value()->set_fault_policy([&](std::uint64_t, ByteSpan payload) {
    net::FaultDecision decision;
    xdr::Decoder dec(payload);
    auto type = tp::peek_type(dec);
    if (!type || type.value() != tp::MsgType::batch_ack) return decision;
    std::lock_guard<std::mutex> lock(mutex);
    const bool stall = offered.size() % 2 == 0;
    offered.emplace_back(monotonic_micros(), stall);
    if (stall) {
      decision.action = net::FaultAction::stall;
      decision.stall_us = kStall;
    }
    return decision;
  });
  std::thread server([&] { (void)ism.value()->run(); });

  auto client = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
  ASSERT_TRUE(client.is_ok());
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({NodeId(4), tp::kProtocolVersion}, enc);
  ASSERT_TRUE(net::write_frame(client.value(), hello.view()));
  ASSERT_TRUE(net::read_frame(client.value()).is_ok()) << "hello_ack";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(net::read_frame(client.value()).is_ok()) << "batch_ack " << i;
  }
  ism.value()->stop();
  server.join();

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_GE(offered.size(), 8u);
  for (std::size_t i = 0; i + 1 < offered.size(); ++i) {
    if (!offered[i].second) continue;
    EXPECT_GE(offered[i + 1].first - offered[i].first, kStall + kPeriod / 2)
        << "ack " << i + 1 << " followed a stalled write without a full period";
  }
}

// Acceptance: the sorted + CRE-ordered output stream must be byte-identical
// whichever poller backend, reader-thread count, and ordering-shard count
// ran it — the k-way merge over per-node-disjoint shard streams reproduces
// the monolithic sorter's (timestamp, node) order exactly. Uses a frame
// window wide enough to hold everything until drain, so ordering is decided
// purely by record timestamps, never by arrival interleaving.
//
// Self-instrumentation runs during every config: the ISM's own metrics
// records ride the ordering pipeline alongside the data stream and are
// filtered out of the comparison — their presence must never perturb the
// sorted data order.
TEST(IsmIngestDeterminismTest, SortedOutputIdenticalAcrossConfigs) {
  std::vector<IngestMode> modes;
  for (net::PollerBackend poller : {net::PollerBackend::select, net::PollerBackend::epoll}) {
    for (std::size_t readers : {std::size_t{0}, std::size_t{2}}) {
      for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        modes.push_back(IngestMode{poller, readers, shards});
      }
    }
  }
  constexpr int kNodes = 3;
  constexpr int kRecordsPerNode = 40;
  // Timestamps sit near the current wall clock: the sorter releases a
  // record once `now >= timestamp + frame`, so a wide frame over recent
  // timestamps holds everything until the explicit drain — emission order
  // is then decided purely by timestamps, never by arrival interleaving.
  const TimeMicros base = clk::SystemClock::instance().now();

  std::vector<std::vector<std::pair<TimeMicros, NodeId>>> outputs;
  for (const IngestMode& mode : modes) {
    IsmConfig config;
    config.select_timeout_us = 2'000;
    config.enable_sync = false;
    config.sorter.adaptive = false;
    config.sorter.initial_frame_us = 120'000'000;  // hold everything until drain
    config.sorter.max_frame_us = 120'000'000;
    config.poller = mode.poller;
    config.reader_threads = mode.reader_threads;
    config.sorter_shards = mode.sorter_shards;
    config.metrics_interval_us = 5'000;  // self-instrumentation on

    auto order = std::make_shared<std::vector<std::pair<TimeMicros, NodeId>>>();
    auto metrics_seen = std::make_shared<std::size_t>(0);
    auto mutex = std::make_shared<std::mutex>();
    auto sink = std::make_shared<CallbackSink>(
        [order, metrics_seen, mutex](const sensors::Record& r) {
          std::lock_guard<std::mutex> lock(*mutex);
          if (sensors::is_metrics_record(r)) {
            ++*metrics_seen;
            return;
          }
          order->emplace_back(r.timestamp, r.node);
        });
    auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
    ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
    std::thread server([&] { (void)ism.value()->run(); });

    // Establish every session first (gated on the HELLO_ACK): the sorter
    // only holds records while other live nodes might still contribute
    // earlier timestamps, so no node may come and go before the rest join.
    std::vector<net::TcpSocket> clients;
    for (int n = 1; n <= kNodes; ++n) {
      auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
      ASSERT_TRUE(socket.is_ok());
      clients.push_back(std::move(socket).value());
      net::TcpSocket& client = clients.back();
      ByteBuffer hello;
      xdr::Encoder hello_enc(hello);
      tp::put_type(tp::MsgType::hello, hello_enc);
      tp::encode_hello({NodeId(n), tp::kProtocolVersion}, hello_enc);
      ASSERT_TRUE(net::write_frame(client, hello.view()));
      ASSERT_TRUE(net::read_frame(client).is_ok()) << "hello_ack";
    }
    // Each node sends records whose timestamps interleave with the other
    // nodes' (node n owns timestamps n, n+kNodes, n+2*kNodes, ...).
    for (int n = 1; n <= kNodes; ++n) {
      net::TcpSocket& client = clients[std::size_t(n) - 1];
      tp::BatchBuilder builder{NodeId(n)};
      for (int i = 0; i < kRecordsPerNode; ++i) {
        sensors::Record record;
        record.sensor = 1;
        record.timestamp = base + TimeMicros(n) + TimeMicros(i) * kNodes;
        record.fields = {sensors::Field::i32(i)};
        // A causal pair spanning nodes (and so, when sharded, shards): node
        // 1's last record is the reason, node 2's last the consequence —
        // the global CRE pass must order them identically in every config.
        if (i == kRecordsPerNode - 1 && n == 1) {
          record.fields.push_back(sensors::Field::reason(77));
        }
        if (i == kRecordsPerNode - 1 && n == 2) {
          record.fields.push_back(sensors::Field::conseq(77));
        }
        ASSERT_TRUE(builder.add_record(record));
      }
      ByteBuffer payload = builder.finish();
      ASSERT_TRUE(net::write_frame(client, payload.view()));
      ByteBuffer bye;
      xdr::Encoder bye_enc(bye);
      tp::put_type(tp::MsgType::bye, bye_enc);
      ASSERT_TRUE(net::write_frame(client, bye.view()));
    }
    // The server closing each connection proves it consumed everything the
    // client sent before the bye (per-connection FIFO ordering).
    for (net::TcpSocket& client : clients) {
      const TimeMicros deadline = monotonic_micros() + 5'000'000;
      (void)client.set_nonblocking(true);
      bool closed = false;
      std::uint8_t chunk[256];
      while (!closed && monotonic_micros() < deadline) {
        auto n = client.read_some(MutableByteSpan{chunk, sizeof chunk});
        if (!n) {
          if (n.status().code() == Errc::would_block) {
            sleep_micros(2'000);
            continue;
          }
          closed = true;
        } else if (n.value() == 0) {
          closed = true;
        }
      }
      ASSERT_TRUE(closed) << "server must close the session after bye";
    }
    ism.value()->stop();
    server.join();
    ASSERT_TRUE(ism.value()->drain());
    std::lock_guard<std::mutex> lock(*mutex);
    EXPECT_GE(*metrics_seen, 1u)
        << "every config emits at least one metrics record (drain snapshots)";
    outputs.push_back(*order);
  }

  ASSERT_EQ(outputs[0].size(), std::size_t(kNodes) * kRecordsPerNode);
  for (std::size_t i = 1; i < outputs[0].size(); ++i) {
    EXPECT_LT(outputs[0][i - 1].first, outputs[0][i].first) << "output is timestamp-sorted";
  }
  for (std::size_t m = 1; m < outputs.size(); ++m) {
    EXPECT_EQ(outputs[m], outputs[0])
        << "config " << m << " produced a different record stream";
  }
}

// Acceptance (flow control): credit grants are control-plane only — they
// ride ack frames and throttle the sender, so switching them on must not
// perturb the sorted data stream in any reader/shard topology. Grid:
// credits {off, window 8} × reader threads {1, 4} × ordering shards {1, 4},
// all compared byte-for-byte against each other.
TEST(IsmIngestDeterminismTest, CreditGrantsLeaveSortedOutputByteIdentical) {
  struct CreditMode {
    std::uint32_t credit_records = 0;
    std::size_t readers = 1;
    std::size_t shards = 1;
  };
  std::vector<CreditMode> modes;
  for (std::uint32_t credits : {0u, 8u}) {
    for (std::size_t readers : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        modes.push_back(CreditMode{credits, readers, shards});
      }
    }
  }
  constexpr int kNodes = 3;
  constexpr int kRecordsPerNode = 32;
  const TimeMicros base = clk::SystemClock::instance().now();

  std::vector<std::vector<std::pair<TimeMicros, NodeId>>> outputs;
  for (const CreditMode& mode : modes) {
    IsmConfig config;
    config.select_timeout_us = 2'000;
    config.enable_sync = false;
    config.sorter.adaptive = false;
    config.sorter.initial_frame_us = 120'000'000;  // hold everything until drain
    config.sorter.max_frame_us = 120'000'000;
    config.reader_threads = mode.readers;
    config.sorter_shards = mode.shards;
    config.credit_window_records = mode.credit_records;
    config.credit_replenish_us = 5'000;  // re-grant aggressively mid-run

    auto order = std::make_shared<std::vector<std::pair<TimeMicros, NodeId>>>();
    auto mutex = std::make_shared<std::mutex>();
    auto sink = std::make_shared<CallbackSink>(
        [order, mutex](const sensors::Record& r) {
          std::lock_guard<std::mutex> lock(*mutex);
          if (sensors::is_metrics_record(r)) return;
          order->emplace_back(r.timestamp, r.node);
        });
    auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
    ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
    std::thread server([&] { (void)ism.value()->run(); });

    std::vector<net::TcpSocket> clients;
    for (int n = 1; n <= kNodes; ++n) {
      auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
      ASSERT_TRUE(socket.is_ok());
      clients.push_back(std::move(socket).value());
      net::TcpSocket& client = clients.back();
      ByteBuffer hello;
      xdr::Encoder hello_enc(hello);
      tp::put_type(tp::MsgType::hello, hello_enc);
      tp::encode_hello({NodeId(n), tp::kProtocolVersion}, hello_enc);
      ASSERT_TRUE(net::write_frame(client, hello.view()));
      ASSERT_TRUE(net::read_frame(client).is_ok()) << "hello_ack";
    }
    for (int n = 1; n <= kNodes; ++n) {
      net::TcpSocket& client = clients[std::size_t(n) - 1];
      tp::BatchBuilder builder{NodeId(n)};
      for (int i = 0; i < kRecordsPerNode; ++i) {
        sensors::Record record;
        record.sensor = 1;
        record.timestamp = base + TimeMicros(n) + TimeMicros(i) * kNodes;
        record.fields = {sensors::Field::i32(i)};
        ASSERT_TRUE(builder.add_record(record));
      }
      ByteBuffer payload = builder.finish();
      ASSERT_TRUE(net::write_frame(client, payload.view()));
      ByteBuffer bye;
      xdr::Encoder bye_enc(bye);
      tp::put_type(tp::MsgType::bye, bye_enc);
      ASSERT_TRUE(net::write_frame(client, bye.view()));
    }
    for (net::TcpSocket& client : clients) {
      const TimeMicros deadline = monotonic_micros() + 5'000'000;
      (void)client.set_nonblocking(true);
      bool closed = false;
      std::uint8_t chunk[256];
      while (!closed && monotonic_micros() < deadline) {
        auto n = client.read_some(MutableByteSpan{chunk, sizeof chunk});
        if (!n) {
          if (n.status().code() == Errc::would_block) {
            sleep_micros(2'000);
            continue;
          }
          closed = true;
        } else if (n.value() == 0) {
          closed = true;
        }
      }
      ASSERT_TRUE(closed) << "server must close the session after bye";
    }
    ism.value()->stop();
    server.join();
    ASSERT_TRUE(ism.value()->drain());

    const IsmStats stats = ism.value()->stats();
    if (mode.credit_records > 0) {
      EXPECT_GT(stats.credit_grants_sent, 0u)
          << "v3 peers must receive grants when credits are configured";
    } else {
      EXPECT_EQ(stats.credit_grants_sent, 0u)
          << "credits off must keep acks v2-shaped";
    }

    std::lock_guard<std::mutex> lock(*mutex);
    outputs.push_back(*order);
  }

  ASSERT_EQ(outputs[0].size(), std::size_t(kNodes) * kRecordsPerNode);
  for (std::size_t i = 1; i < outputs[0].size(); ++i) {
    EXPECT_LT(outputs[0][i - 1].first, outputs[0][i].first) << "output is timestamp-sorted";
  }
  for (std::size_t m = 1; m < outputs.size(); ++m) {
    EXPECT_EQ(outputs[m], outputs[0])
        << "credit/reader/shard config " << m << " produced a different record stream";
  }
}

// Acceptance: tracing must be invisible to the data stream. The ISM strips
// annotations at sink delivery, so the delivered data records — full
// decoded form, not just the (timestamp, node) order — are identical with
// tracing off, tracing on inline, and tracing on across four shards. The
// traced runs additionally emit span-export records for every annotation.
TEST(IsmIngestDeterminismTest, TracingLeavesSortedOutputByteIdentical) {
  struct TraceMode {
    bool traced = false;
    std::size_t shards = 1;
  };
  const std::vector<TraceMode> modes = {{false, 1}, {true, 1}, {true, 4}};
  constexpr int kNodes = 2;
  constexpr int kRecordsPerNode = 30;
  const TimeMicros base = clk::SystemClock::instance().now();

  std::vector<std::vector<sensors::Record>> data_streams;
  std::vector<std::size_t> trace_counts;
  for (const TraceMode& mode : modes) {
    IsmConfig config;
    config.select_timeout_us = 2'000;
    config.enable_sync = false;
    config.sorter.adaptive = false;
    config.sorter.initial_frame_us = 120'000'000;
    config.sorter.max_frame_us = 120'000'000;
    config.sorter_shards = mode.shards;

    auto data = std::make_shared<std::vector<sensors::Record>>();
    auto traces = std::make_shared<std::size_t>(0);
    auto mutex = std::make_shared<std::mutex>();
    auto sink = std::make_shared<CallbackSink>(
        [data, traces, mutex](const sensors::Record& r) {
          std::lock_guard<std::mutex> lock(*mutex);
          if (sensors::is_trace_record(r)) {
            ++*traces;
            return;
          }
          if (r.sensor >= sensors::kReservedSensorIdBase) return;
          data->push_back(r);
        });
    auto ism = Ism::start(config, clk::SystemClock::instance(), sink);
    ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();
    std::thread server([&] { (void)ism.value()->run(); });

    std::vector<net::TcpSocket> clients;
    for (int n = 1; n <= kNodes; ++n) {
      auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
      ASSERT_TRUE(socket.is_ok());
      clients.push_back(std::move(socket).value());
      ByteBuffer hello;
      xdr::Encoder hello_enc(hello);
      tp::put_type(tp::MsgType::hello, hello_enc);
      tp::encode_hello({NodeId(n), tp::kProtocolVersion}, hello_enc);
      ASSERT_TRUE(net::write_frame(clients.back(), hello.view()));
      ASSERT_TRUE(net::read_frame(clients.back()).is_ok()) << "hello_ack";
    }
    for (int n = 1; n <= kNodes; ++n) {
      net::TcpSocket& client = clients[std::size_t(n) - 1];
      tp::BatchBuilder builder{NodeId(n)};
      for (int i = 0; i < kRecordsPerNode; ++i) {
        sensors::Record record;
        record.sensor = 1;
        record.sequence = SequenceNo(i);
        record.timestamp = base + TimeMicros(n) + TimeMicros(i) * kNodes;
        record.fields = {sensors::Field::i32(i)};
        // The same records every run; the traced runs annotate the sampled
        // half exactly as an EXS with --trace-sample-rate 0.5 would.
        if (mode.traced && sensors::trace_sampled(NodeId(n), 1, SequenceNo(i), 0.5)) {
          sensors::TraceAnnotation annotation;
          annotation.trace_id = sensors::make_trace_id(NodeId(n), 1, SequenceNo(i));
          annotation.stamp(sensors::TraceStage::ring_enqueue, record.timestamp);
          record.trace = annotation;
        }
        ASSERT_TRUE(builder.add_record(record));
      }
      ByteBuffer payload = builder.finish();
      ASSERT_TRUE(net::write_frame(client, payload.view()));
      ByteBuffer bye;
      xdr::Encoder bye_enc(bye);
      tp::put_type(tp::MsgType::bye, bye_enc);
      ASSERT_TRUE(net::write_frame(client, bye.view()));
    }
    for (net::TcpSocket& client : clients) {
      const TimeMicros deadline = monotonic_micros() + 5'000'000;
      (void)client.set_nonblocking(true);
      bool closed = false;
      std::uint8_t chunk[256];
      while (!closed && monotonic_micros() < deadline) {
        auto n = client.read_some(MutableByteSpan{chunk, sizeof chunk});
        if (!n) {
          if (n.status().code() == Errc::would_block) {
            sleep_micros(2'000);
            continue;
          }
          closed = true;
        } else if (n.value() == 0) {
          closed = true;
        }
      }
      ASSERT_TRUE(closed) << "server must close the session after bye";
    }
    ism.value()->stop();
    server.join();
    ASSERT_TRUE(ism.value()->drain());
    std::lock_guard<std::mutex> lock(*mutex);
    data_streams.push_back(*data);
    trace_counts.push_back(*traces);
  }

  ASSERT_EQ(data_streams[0].size(), std::size_t(kNodes) * kRecordsPerNode);
  EXPECT_EQ(trace_counts[0], 0u);
  std::size_t expected_traces = 0;
  for (int n = 1; n <= kNodes; ++n) {
    for (int i = 0; i < kRecordsPerNode; ++i) {
      if (sensors::trace_sampled(NodeId(n), 1, SequenceNo(i), 0.5)) ++expected_traces;
    }
  }
  ASSERT_GT(expected_traces, 0u);
  for (std::size_t m = 1; m < data_streams.size(); ++m) {
    EXPECT_EQ(data_streams[m], data_streams[0])
        << "traced config " << m << " perturbed the data stream";
    EXPECT_EQ(trace_counts[m], expected_traces)
        << "every annotated record must produce one span-export record";
  }
}

}  // namespace
}  // namespace brisk::ism
