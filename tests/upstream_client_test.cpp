// tp::UpstreamClient against a loopback listener: the socket half every TP
// client (the EXS, a relay's egress) shares — the bounded blocking flush,
// the reconnect schedule and its attempt budget, and want-writable
// toggling.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "net/socket.hpp"
#include "tp/upstream_client.hpp"
#include "tp/upstream_link.hpp"

namespace brisk::tp {
namespace {

constexpr std::size_t kFrameBytes = 60 * 1024;

/// A client plus its link, wired the way the daemons wire them: the link's
/// frames go out through the client, and transport loss never reaches it.
struct Harness {
  explicit Harness(const ClientConfig& config)
      : link(make_link_config(), clk::SystemClock::instance(),
             [this](ByteBuffer payload) {
               (void)client.send(payload.view());
               return Status::ok();
             }),
        client(config, link) {}

  static LinkConfig make_link_config() {
    LinkConfig config;
    config.node = 1;
    config.incarnation = 7;
    return config;
  }

  UpstreamLink link;
  UpstreamClient client;
};

ClientConfig loopback_config(std::uint16_t port) {
  ClientConfig config;
  config.port = port;
  config.heartbeat_period_us = 0;  // only the frames a test sends
  config.reconnect.backoff_base_us = 1'000;
  config.reconnect.backoff_cap_us = 1'000;
  config.reconnect.jitter = 0.0;
  return config;
}

TEST(UpstreamClientTest, BlockingFlushGivesUpAtSendStallTimeoutAndReconnects) {
  auto listener = net::TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  ClientConfig config = loopback_config(listener.value().port());
  config.outbox_bytes = 2 * kFrameBytes;
  config.send_stall_timeout_us = 100'000;
  Harness h(config);
  ASSERT_TRUE(h.client.connect());
  auto peer = listener.value().accept();  // accepted, never read
  ASSERT_TRUE(peer.is_ok()) << peer.status().to_string();

  // Fill the kernel buffers, then the outbox; the send that finds the
  // outbox at its cap blocks flushing until the stall timeout.
  const std::vector<std::uint8_t> frame(kFrameBytes, 0x5a);
  Status st = Status::ok();
  TimeMicros failed_after = 0;
  for (int i = 0; i < 4'000 && st; ++i) {
    const TimeMicros start = monotonic_micros();
    st = h.client.send(ByteSpan{frame.data(), frame.size()});
    failed_after = monotonic_micros() - start;
  }
  ASSERT_FALSE(st) << "the peer never filled up";
  EXPECT_EQ(st.code(), Errc::timeout) << st.to_string();
  EXPECT_GE(failed_after, config.send_stall_timeout_us);
  EXPECT_FALSE(h.client.connected());
  EXPECT_EQ(h.client.pending_bytes(), 0u);  // deferred frames die with the link

  // The give-up armed an immediate reconnect.
  ASSERT_TRUE(h.client.service());
  EXPECT_TRUE(h.client.connected());
  EXPECT_EQ(h.link.stats().reconnects, 1u);
}

TEST(UpstreamClientTest, MaxAttemptsEndsTheSchedule) {
  auto listener = net::TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  ClientConfig config = loopback_config(listener.value().port());
  config.reconnect.max_attempts = 3;
  Harness h(config);
  ASSERT_TRUE(h.client.connect());
  {
    auto peer = listener.value().accept();
    ASSERT_TRUE(peer.is_ok()) << peer.status().to_string();
    listener = net::TcpListener{};  // every reconnect is refused from here on
  }  // the peer closes: the client reads EOF

  int services = 0;
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  Status st = Status::ok();
  while (st && monotonic_micros() < deadline) {
    (void)h.client.poller().poll_once(500);
    st = h.client.service();
    ++services;
  }
  ASSERT_FALSE(st) << "the client kept retrying past max_attempts";
  EXPECT_FALSE(h.link.saw_bye());
  EXPECT_FALSE(h.client.connected());
  EXPECT_EQ(h.link.stats().reconnects, 0u);
  // EOF + 3 refused attempts, each at least one backoff apart.
  EXPECT_GE(services, 4);
  EXPECT_FALSE(h.client.service()) << "a finished client stays finished";
}

TEST(UpstreamClientTest, ReconnectDelayDoublesFromBaseToCap) {
  ReconnectConfig config;
  config.backoff_base_us = 1'000;
  config.backoff_cap_us = 8'000;
  config.jitter = 0.0;
  ReconnectSchedule schedule(config, 1);
  schedule.arm(0);
  EXPECT_TRUE(schedule.due(0));
  const TimeMicros expected[] = {1'000, 2'000, 4'000, 8'000, 8'000, 8'000};
  TimeMicros now = 0;
  for (TimeMicros delay : expected) {
    ASSERT_TRUE(schedule.record_failure(now));
    EXPECT_EQ(schedule.next_attempt_at() - now, delay);
    EXPECT_FALSE(schedule.due(now + delay - 1));
    EXPECT_TRUE(schedule.due(now + delay));
    now += delay;
  }
}

TEST(UpstreamClientTest, ReconnectJitterStaysWithinItsFraction) {
  ReconnectConfig config;
  config.backoff_base_us = 1'000;
  config.backoff_cap_us = 64'000;
  config.jitter = 0.25;
  ReconnectSchedule schedule(config, 42);
  schedule.arm(0);
  TimeMicros delay = config.backoff_base_us;
  TimeMicros jitter_seen = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (attempt % 10 == 0) {
      schedule.arm(0);  // back to the base delay
      delay = config.backoff_base_us;
    }
    ASSERT_TRUE(schedule.record_failure(0));
    const TimeMicros extra = schedule.next_attempt_at() - delay;
    EXPECT_GE(extra, 0) << "attempt " << attempt;
    EXPECT_LE(extra, static_cast<TimeMicros>(config.jitter * static_cast<double>(delay)))
        << "attempt " << attempt;
    jitter_seen = std::max(jitter_seen, extra);
    delay = std::min(delay * 2, config.backoff_cap_us);
  }
  EXPECT_GT(jitter_seen, 0) << "jitter never applied";
}

TEST(UpstreamClientTest, WritableSubscriptionTurnsOffOnceOutboxDrains) {
  auto listener = net::TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  Harness h(loopback_config(listener.value().port()));
  ASSERT_TRUE(h.client.connect());
  auto peer = listener.value().accept();
  ASSERT_TRUE(peer.is_ok()) << peer.status().to_string();
  EXPECT_FALSE(h.client.want_writable());

  // The peer is not reading yet: frames pile up past the kernel buffers
  // and the client subscribes to writable readiness.
  const std::vector<std::uint8_t> frame(kFrameBytes, 0x33);
  for (int i = 0; i < 4'000 && h.client.pending_bytes() == 0; ++i) {
    ASSERT_TRUE(h.client.send(ByteSpan{frame.data(), frame.size()}));
  }
  ASSERT_GT(h.client.pending_bytes(), 0u);
  EXPECT_TRUE(h.client.want_writable());

  // The peer drains; each wakeup's service() flushes the outbox, and the
  // subscription drops back to readable-only once it is empty.
  ASSERT_TRUE(peer.value().set_nonblocking(true));
  std::vector<std::uint8_t> sink(256 * 1024);
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while ((h.client.pending_bytes() > 0 || h.client.want_writable()) &&
         monotonic_micros() < deadline) {
    while (peer.value().read_some(MutableByteSpan{sink.data(), sink.size()})) {
    }
    (void)h.client.poller().poll_once(1'000);
    ASSERT_TRUE(h.client.service());
  }
  EXPECT_EQ(h.client.pending_bytes(), 0u);
  EXPECT_FALSE(h.client.want_writable());
  EXPECT_TRUE(h.client.connected());
}

}  // namespace
}  // namespace brisk::tp
