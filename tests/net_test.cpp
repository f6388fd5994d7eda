// Networking tests: TCP listener/socket round trips and the frame codec
// (blocking and incremental under arbitrary fragmentation). Poller backends
// are covered by poller_test.cpp, parameterized over select and epoll.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/select.h>
#include <sys/socket.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/time_util.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace brisk::net {
namespace {

// ---- sockets ---------------------------------------------------------------------

TEST(TcpSocketTest, ListenConnectRoundTrip) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  EXPECT_GT(listener.value().port(), 0);

  auto client = TcpSocket::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto server = listener.value().accept();
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  const std::uint8_t message[] = {'p', 'i', 'n', 'g'};
  ASSERT_TRUE(client.value().write_all(ByteSpan{message, 4}));
  std::uint8_t received[4];
  auto n = server.value().read_some(MutableByteSpan{received, 4});
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(std::memcmp(received, message, 4), 0);
}

TEST(TcpSocketTest, LocalhostAliasResolves) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());
  EXPECT_TRUE(TcpSocket::connect("localhost", listener.value().port()).is_ok());
}

TEST(TcpSocketTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port, then close the listener so nothing listens.
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().port();
  }
  EXPECT_FALSE(TcpSocket::connect("127.0.0.1", dead_port).is_ok());
}

TEST(TcpSocketTest, BadAddressRejected) {
  EXPECT_EQ(TcpSocket::connect("not-an-ip", 80).status().code(), Errc::invalid_argument);
}

TEST(TcpSocketTest, ReadAfterPeerCloseReturnsZero) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  pair.value().first.close();
  std::uint8_t buf[8];
  auto n = pair.value().second.read_some(MutableByteSpan{buf, 8});
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(TcpSocketTest, NonblockingReadWouldBlock) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(pair.value().second.set_nonblocking(true));
  std::uint8_t buf[8];
  auto n = pair.value().second.read_some(MutableByteSpan{buf, 8});
  EXPECT_EQ(n.status().code(), Errc::would_block);
}

TEST(TcpSocketTest, WriteToClosedPeerReportsClosed) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  pair.value().second.close();
  std::vector<std::uint8_t> big(1 << 20, 0x42);
  // First writes may land in the kernel buffer; eventually EPIPE.
  Status st = Status::ok();
  for (int i = 0; i < 64 && st.is_ok(); ++i) {
    st = pair.value().first.write_all(ByteSpan{big.data(), big.size()});
  }
  EXPECT_EQ(st.code(), Errc::closed);
}

// write_all waits for writability with poll(2): select(2) cannot represent a
// descriptor at or above FD_SETSIZE, which a busy daemon readily reaches.
TEST(TcpSocketTest, WriteAllWaitsOnDescriptorBeyondFdSetSize) {
  struct rlimit lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  // Well past FD_SETSIZE: FD_SET on this fd writes outside the fd_set.
  constexpr int kHighFd = FD_SETSIZE + 476;
  const rlim_t needed = kHighFd + 16;
  if (lim.rlim_cur < needed) {
    struct rlimit raised = lim;
    raised.rlim_cur = raised.rlim_max < needed ? raised.rlim_max : needed;
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0 || raised.rlim_cur < needed) {
      GTEST_SKIP() << "RLIMIT_NOFILE too low to exercise fds beyond FD_SETSIZE";
    }
  }
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());
  auto client = TcpSocket::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept();
  ASSERT_TRUE(server.is_ok());
  TcpSocket high(FdHandle(::fcntl(client.value().fd(), F_DUPFD, kHighFd)));
  ASSERT_GE(high.fd(), kHighFd);
  ASSERT_TRUE(high.set_nonblocking(true));

  // Far more than the socket buffers hold: write_all must wait for the
  // peer, which starts draining after 50 ms.
  const std::vector<std::uint8_t> payload(8 << 20, 0x5a);
  std::size_t received = 0;
  std::thread peer([&] {
    sleep_micros(50'000);
    std::vector<std::uint8_t> chunk(64 << 10);
    while (received < payload.size()) {
      auto n = server.value().read_some(MutableByteSpan{chunk.data(), chunk.size()});
      if (!n || n.value() == 0) break;
      received += n.value();
    }
  });
  const Status st = high.write_all(ByteSpan{payload.data(), payload.size()});
  peer.join();
  EXPECT_TRUE(st) << st.to_string();
  EXPECT_EQ(received, payload.size());
}

TEST(FdHandleTest, MoveSemantics) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  TcpSocket a = std::move(pair.value().first);
  EXPECT_TRUE(a.valid());
  TcpSocket b = std::move(a);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from is checked
}

// ---- frames -----------------------------------------------------------------------

TEST(FrameTest, WriteReadRoundTrip) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(write_frame(pair.value().first, ByteSpan{payload, 5}));
  auto frame = read_frame(pair.value().second);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  ASSERT_EQ(frame.value().size(), 5u);
  EXPECT_EQ(frame.value().view()[4], 5);
}

TEST(FrameTest, EmptyFrameAllowed) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(write_frame(pair.value().first, ByteSpan{}));
  auto frame = read_frame(pair.value().second);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_EQ(frame.value().size(), 0u);
}

TEST(FrameTest, MultipleFramesInOrder) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(write_frame(pair.value().first, ByteSpan{&i, 1}));
  }
  for (std::uint8_t i = 0; i < 10; ++i) {
    auto frame = read_frame(pair.value().second);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(frame.value().view()[0], i);
  }
}

TEST(FrameTest, EofMidHeaderReportsClosed) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  const std::uint8_t partial[] = {0, 0};
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{partial, 2}));
  pair.value().first.close();
  EXPECT_EQ(read_frame(pair.value().second).status().code(), Errc::closed);
}

TEST(FrameTest, OversizedFrameRejected) {
  EXPECT_EQ(kMaxFrameBytes, 16u << 20);
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  std::vector<std::uint8_t> big(kMaxFrameBytes + 1);
  EXPECT_EQ(write_frame(pair.value().first, ByteSpan{big.data(), big.size()}).code(),
            Errc::invalid_argument);
}

TEST(FrameReaderTest, ReassemblesByteByByte) {
  // Build two frames and feed them one byte at a time.
  ByteBuffer wire;
  {
    const std::uint8_t a[] = {0, 0, 0, 3, 'a', 'b', 'c'};
    const std::uint8_t b[] = {0, 0, 0, 1, 'z'};
    wire.append(a, sizeof a);
    wire.append(b, sizeof b);
  }
  FrameReader reader;
  std::vector<std::string> frames;
  for (std::uint8_t byte : wire.view()) {
    reader.feed(ByteSpan{&byte, 1});
    for (;;) {
      auto frame = reader.next();
      ASSERT_TRUE(frame.is_ok());
      if (!frame.value().has_value()) break;
      frames.emplace_back(reinterpret_cast<const char*>(frame.value()->data()),
                          frame.value()->size());
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "abc");
  EXPECT_EQ(frames[1], "z");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, HandlesFrameSplitAcrossFeeds) {
  FrameReader reader;
  const std::uint8_t part1[] = {0, 0, 0, 4, 'w', 'x'};
  const std::uint8_t part2[] = {'y', 'z', 0, 0, 0, 0};  // rest + an empty frame
  reader.feed(ByteSpan{part1, sizeof part1});
  auto frame = reader.next();
  ASSERT_TRUE(frame.is_ok());
  EXPECT_FALSE(frame.value().has_value()) << "incomplete frame must wait";
  reader.feed(ByteSpan{part2, sizeof part2});
  frame = reader.next();
  ASSERT_TRUE(frame.is_ok());
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(frame.value()->size(), 4u);
  frame = reader.next();
  ASSERT_TRUE(frame.is_ok());
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(frame.value()->size(), 0u);
}

TEST(FrameReaderTest, RejectsOversizedDeclaredLength) {
  FrameReader reader;
  const std::uint8_t evil[] = {0xff, 0xff, 0xff, 0xff};
  reader.feed(ByteSpan{evil, 4});
  EXPECT_EQ(reader.next().status().code(), Errc::malformed);
}

// ---- FrameSendBuffer -------------------------------------------------------------

/// Shrinks the kernel send buffer as far as the OS allows, so a handful of
/// kilobytes saturates it and write_some returns short counts.
void shrink_send_buffer(TcpSocket& socket) {
  const int tiny = 1;  // the kernel clamps this up to its minimum
  ASSERT_EQ(::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny), 0);
}

// Regression for the ISM short-write desync: with a saturated kernel send
// buffer, frames pumped through the outbox must reach the peer intact and
// in order — never a declared length followed by a partial body.
TEST(FrameSendBufferTest, ShortWritesNeverTearFrames) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  TcpSocket& writer = pair.value().first;
  TcpSocket& reader_sock = pair.value().second;
  shrink_send_buffer(writer);
  ASSERT_TRUE(writer.set_nonblocking(true));
  ASSERT_TRUE(reader_sock.set_nonblocking(true));

  constexpr int kFrames = 32;
  constexpr std::size_t kFrameBytes = 16 * 1024;  // each frame >> SO_SNDBUF
  std::vector<std::vector<std::uint8_t>> sent;
  for (int f = 0; f < kFrames; ++f) {
    std::vector<std::uint8_t> payload(kFrameBytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>((f * 31 + i) & 0xff);
    }
    sent.push_back(std::move(payload));
  }

  FrameSendBuffer outbox(64u << 20);
  FrameReader frame_reader;
  std::vector<ByteBuffer> received;
  std::size_t next_enqueue = 0;
  std::uint8_t chunk[2048];  // slow reader: small sips force many short writes
  const TimeMicros deadline = monotonic_micros() + 10'000'000;
  while (received.size() < kFrames) {
    ASSERT_LT(monotonic_micros(), deadline) << "transfer stalled";
    if (next_enqueue < sent.size()) {
      ASSERT_TRUE(outbox.enqueue_frame(
          ByteSpan{sent[next_enqueue].data(), sent[next_enqueue].size()}));
      ++next_enqueue;
    }
    ASSERT_TRUE(outbox.pump(writer));
    auto n = reader_sock.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (n.is_ok() && n.value() > 0) {
      frame_reader.feed(ByteSpan{chunk, n.value()});
      for (;;) {
        auto frame = frame_reader.next();
        ASSERT_TRUE(frame.is_ok());
        if (!frame.value().has_value()) break;
        received.push_back(std::move(*frame.value()));
      }
    }
  }
  ASSERT_EQ(received.size(), std::size_t{kFrames});
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_EQ(received[f].size(), sent[f].size()) << "frame " << f;
    EXPECT_EQ(std::memcmp(received[f].data(), sent[f].data(), sent[f].size()), 0)
        << "frame " << f << " corrupted in flight";
  }
  EXPECT_TRUE(outbox.empty());
}

TEST(FrameSendBufferTest, PendingBytesSurviveWouldBlock) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  TcpSocket& writer = pair.value().first;
  TcpSocket& reader_sock = pair.value().second;
  shrink_send_buffer(writer);
  ASSERT_TRUE(writer.set_nonblocking(true));

  std::vector<std::uint8_t> payload(1u << 20, 0xAB);
  FrameSendBuffer outbox;
  ASSERT_TRUE(outbox.enqueue_frame(ByteSpan{payload.data(), payload.size()}));
  // The peer reads nothing: pumping must park the remainder, not fail.
  ASSERT_TRUE(outbox.pump(writer));
  EXPECT_GT(outbox.pending_bytes(), 0u) << "kernel buffer cannot hold 1 MiB";

  // Drain the peer and keep pumping: everything eventually flushes.
  ASSERT_TRUE(reader_sock.set_nonblocking(true));
  std::uint8_t chunk[16 * 1024];
  std::size_t drained = 0;
  const TimeMicros deadline = monotonic_micros() + 10'000'000;
  while ((!outbox.empty() || drained < payload.size() + 4) &&
         monotonic_micros() < deadline) {
    ASSERT_TRUE(outbox.pump(writer));
    auto n = reader_sock.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (n.is_ok()) drained += n.value();
  }
  EXPECT_TRUE(outbox.empty());
  EXPECT_EQ(drained, payload.size() + 4);
}

TEST(FrameSendBufferTest, CapReportsBufferFull) {
  FrameSendBuffer outbox(1024);
  std::vector<std::uint8_t> payload(600, 0x11);
  ASSERT_TRUE(outbox.enqueue_frame(ByteSpan{payload.data(), payload.size()}));
  EXPECT_EQ(outbox.enqueue_frame(ByteSpan{payload.data(), payload.size()}).code(),
            Errc::buffer_full)
      << "second frame would exceed the cap";
  EXPECT_EQ(outbox.pending_bytes(), 604u) << "rejected frame leaves no residue";
}

TEST(FrameSendBufferTest, OversizedFrameRejected) {
  FrameSendBuffer outbox(64u << 20);
  std::vector<std::uint8_t> huge(kMaxFrameBytes + 1, 0);
  EXPECT_EQ(outbox.enqueue_frame(ByteSpan{huge.data(), huge.size()}).code(),
            Errc::invalid_argument);
}

// The outbox-based FaultySocket path must keep its fault semantics: pass
// delivers intact, truncate still produces a deliberately torn frame.
TEST(FrameSendBufferTest, FaultySocketOutboxPassAndTruncate) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  TcpSocket& writer = pair.value().first;
  TcpSocket& reader_sock = pair.value().second;
  ASSERT_TRUE(writer.set_nonblocking(true));

  FaultySocket faulty([](std::uint64_t frame_index, ByteSpan) {
    if (frame_index == 1) return FaultDecision{FaultAction::truncate, 2, 0};
    return FaultDecision{};
  });
  FrameSendBuffer outbox;
  const std::uint8_t first[] = {'o', 'k', 'a', 'y'};
  const std::uint8_t second[] = {'t', 'o', 'r', 'n'};
  ASSERT_TRUE(faulty.write_frame(writer, outbox, ByteSpan{first, 4}));
  ASSERT_TRUE(faulty.write_frame(writer, outbox, ByteSpan{second, 4}));
  while (!outbox.empty()) ASSERT_TRUE(outbox.pump(writer));
  EXPECT_EQ(faulty.stats().truncated, 1u);

  auto intact = read_frame(reader_sock);
  ASSERT_TRUE(intact.is_ok());
  ASSERT_EQ(intact.value().size(), 4u);
  EXPECT_EQ(std::memcmp(intact.value().data(), first, 4), 0);
  // The torn frame: header declares 4 bytes, only 2 follow, then EOF.
  writer.close();
  std::uint8_t tail[64];
  std::size_t got = 0;
  for (;;) {
    auto n = reader_sock.read_some(MutableByteSpan{tail + got, sizeof tail - got});
    if (!n.is_ok() || n.value() == 0) break;
    got += n.value();
  }
  EXPECT_EQ(got, 6u) << "length prefix + truncated body only";
}

}  // namespace
}  // namespace brisk::net
