// Poller backend parity suite: every readiness-dispatch scenario runs
// against both SelectPoller and EpollPoller so the backends cannot drift
// apart. Includes the >FD_SETSIZE smoke test that motivates the epoll
// backend: select() cannot watch descriptors at or beyond FD_SETSIZE, epoll
// dispatches them fine.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/time_util.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/wakeup.hpp"

namespace brisk::net {
namespace {

class PollerTest : public ::testing::TestWithParam<PollerBackend> {
 protected:
  [[nodiscard]] std::unique_ptr<Poller> make() const { return make_poller(GetParam()); }
};

TEST_P(PollerTest, ReportsBackendName) {
  auto loop = make();
  EXPECT_STREQ(loop->backend_name(), to_string(GetParam()));
}

TEST_P(PollerTest, DispatchesReadableFd) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  int fired = 0;
  ASSERT_TRUE(loop->watch(pair.value().second.fd(), [&](int, Readiness) { ++fired; }));

  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  auto handled = loop->poll_once(100'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 1);
  EXPECT_EQ(fired, 1);
}

TEST_P(PollerTest, ReadableCallbackSeesReadableMask) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  Readiness seen = Readiness::none;
  ASSERT_TRUE(loop->watch(pair.value().second.fd(), Readiness::readable,
                          [&](int, Readiness ready) { seen = ready; }));
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_TRUE(any(seen & Readiness::readable));
  EXPECT_FALSE(any(seen & Readiness::writable)) << "mask must honour the declared interest";
}

TEST_P(PollerTest, WritableInterestFiresOnIdleSocket) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  Readiness seen = Readiness::none;
  // A fresh socket with an empty send buffer is immediately writable.
  ASSERT_TRUE(loop->watch(pair.value().second.fd(), Readiness::writable,
                          [&](int, Readiness ready) { seen = ready; }));
  auto handled = loop->poll_once(100'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 1);
  EXPECT_TRUE(any(seen & Readiness::writable));
}

TEST_P(PollerTest, WatchUpsertsInterest) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  const int fd = pair.value().second.fd();
  int write_fired = 0;
  ASSERT_TRUE(loop->watch(fd, Readiness::writable, [&](int, Readiness) { ++write_fired; }));
  // Re-watching the same fd replaces interest and callback in place.
  int read_fired = 0;
  ASSERT_TRUE(loop->watch(fd, Readiness::readable, [&](int, Readiness) { ++read_fired; }));
  EXPECT_EQ(loop->watched_count(), 1u);
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(write_fired, 0);
  EXPECT_EQ(read_fired, 1);
}

TEST_P(PollerTest, TimeoutFiresIdleOnly) {
  auto loop = make();
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  ASSERT_TRUE(loop->watch(pair.value().second.fd(), [](int, Readiness) { FAIL() << "nothing readable"; }));
  int idles = 0;
  loop->set_idle([&] { ++idles; });
  const TimeMicros start = monotonic_micros();
  auto handled = loop->poll_once(20'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 0);
  EXPECT_EQ(idles, 1);
  EXPECT_GE(monotonic_micros() - start, 15'000) << "backend must have waited";
}

TEST_P(PollerTest, UnwatchStopsDispatch) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  int fired = 0;
  ASSERT_TRUE(loop->watch(pair.value().second.fd(), [&](int, Readiness) { ++fired; }));
  ASSERT_TRUE(loop->unwatch(pair.value().second.fd()));
  EXPECT_EQ(loop->watched_count(), 0u);
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  auto handled = loop->poll_once(1'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(fired, 0);
}

TEST_P(PollerTest, CallbackMayUnwatchSelf) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  const int fd = pair.value().second.fd();
  ASSERT_TRUE(loop->watch(fd, [&](int ready_fd, Readiness) { ASSERT_TRUE(loop->unwatch(ready_fd)); }));
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(10'000).is_ok());
  EXPECT_EQ(loop->watched_count(), 0u);
}

TEST_P(PollerTest, CallbackMayUnwatchSibling) {
  auto pair1 = socket_pair();
  auto pair2 = socket_pair();
  ASSERT_TRUE(pair1.is_ok());
  ASSERT_TRUE(pair2.is_ok());
  auto loop = make();
  const int fd1 = pair1.value().second.fd();
  const int fd2 = pair2.value().second.fd();
  int sibling_fired = 0;
  // Both fds become readable in the same cycle; whichever callback runs
  // first unwatches the other. The dispatcher must tolerate that.
  ASSERT_TRUE(loop->watch(fd1, [&](int, Readiness) { (void)loop->unwatch(fd2); }));
  ASSERT_TRUE(loop->watch(fd2, [&](int, Readiness) {
    ++sibling_fired;
    (void)loop->unwatch(fd1);
  }));
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair1.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(pair2.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(loop->watched_count(), 1u) << "exactly one unwatch must have stuck";
  EXPECT_LE(sibling_fired, 1);
}

TEST_P(PollerTest, StopEndsRun) {
  auto loop = make();
  int idles = 0;
  loop->set_idle([&] {
    if (++idles == 3) loop->stop();
  });
  ASSERT_TRUE(loop->run(1'000));
  EXPECT_EQ(idles, 3);
  EXPECT_TRUE(loop->stopped());
}

TEST_P(PollerTest, RejectsInvalidWatch) {
  auto loop = make();
  EXPECT_EQ(loop->watch(-1, [](int, Readiness) {}).code(), Errc::invalid_argument);
  EXPECT_EQ(loop->watch(10, nullptr).code(), Errc::invalid_argument);
  EXPECT_EQ(loop->unwatch(10).code(), Errc::not_found);
}

TEST_P(PollerTest, MultipleFdsAllDispatch) {
  auto pair1 = socket_pair();
  auto pair2 = socket_pair();
  ASSERT_TRUE(pair1.is_ok());
  ASSERT_TRUE(pair2.is_ok());
  auto loop = make();
  int fired = 0;
  ASSERT_TRUE(loop->watch(pair1.value().second.fd(), [&](int, Readiness) { ++fired; }));
  ASSERT_TRUE(loop->watch(pair2.value().second.fd(), [&](int, Readiness) { ++fired; }));
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair1.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(pair2.value().first.write_all(ByteSpan{&byte, 1}));
  auto handled = loop->poll_once(100'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 2);
  EXPECT_EQ(fired, 2);
}

TEST_P(PollerTest, WakeupPipeSignalsPoller) {
  auto wakeup = WakeupPipe::create();
  ASSERT_TRUE(wakeup.is_ok());
  auto loop = make();
  int fired = 0;
  ASSERT_TRUE(loop->watch(wakeup.value().fd(), [&](int, Readiness) {
    ++fired;
    wakeup.value().drain();
  }));
  wakeup.value().signal();
  wakeup.value().signal();  // coalesces: one readable event, drained once
  auto handled = loop->poll_once(100'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(fired, 1);
  // After the drain the pipe is quiet again.
  handled = loop->poll_once(1'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 0);
}

// The divergence test: descriptors at or beyond FD_SETSIZE (1024) are out
// of reach for select() but fine for epoll. This is the capacity ceiling
// that makes the backend pluggable in the first place.
TEST_P(PollerTest, DescriptorBeyondSelectRange) {
  struct rlimit lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  const rlim_t needed = FD_SETSIZE + 16;
  if (lim.rlim_cur < needed) {
    struct rlimit raised = lim;
    raised.rlim_cur = raised.rlim_max < needed ? raised.rlim_max : needed;
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0 || raised.rlim_cur < needed) {
      GTEST_SKIP() << "RLIMIT_NOFILE too low to exercise fds beyond FD_SETSIZE";
    }
  }
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  const int high_fd = ::fcntl(pair.value().second.fd(), F_DUPFD, FD_SETSIZE);
  ASSERT_GE(high_fd, FD_SETSIZE);

  auto loop = make();
  int fired = 0;
  Status watched = loop->watch(high_fd, [&](int, Readiness) { ++fired; });
  if (GetParam() == PollerBackend::select) {
    EXPECT_EQ(watched.code(), Errc::invalid_argument)
        << "select cannot represent fds >= FD_SETSIZE and must say so";
  } else {
    ASSERT_TRUE(watched) << watched.to_string();
    const std::uint8_t byte = 1;
    ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
    auto handled = loop->poll_once(100'000);
    ASSERT_TRUE(handled.is_ok());
    EXPECT_EQ(fired, 1) << "epoll must dispatch descriptors beyond FD_SETSIZE";
    ASSERT_TRUE(loop->unwatch(high_fd));
  }
  ::close(high_fd);
}

// Rapid watch/unwatch cycles must leave no stale dispatch behind: only the
// registration alive at poll time may fire.
TEST_P(PollerTest, WatchUnwatchChurnDispatchesLatestOnly) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  const int fd = pair.value().second.fd();
  int stale = 0;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(loop->watch(fd, [&](int, Readiness) { ++stale; }));
    ASSERT_TRUE(loop->unwatch(fd));
  }
  int fresh = 0;
  ASSERT_TRUE(loop->watch(fd, [&](int, Readiness) { ++fresh; }));
  EXPECT_EQ(loop->watched_count(), 1u);
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(stale, 0) << "an unwatched registration must never dispatch";
  EXPECT_EQ(fresh, 1);
  // A second churn burst with polls interleaved: still only the live
  // registration dispatches.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(loop->watch(fd, [&](int, Readiness) { ++stale; }));
    ASSERT_TRUE(loop->poll_once(0).is_ok());
    ASSERT_TRUE(loop->unwatch(fd));
    ASSERT_TRUE(loop->poll_once(0).is_ok());
  }
  ASSERT_TRUE(loop->watch(fd, [&](int, Readiness) { ++fresh; }));
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(fresh, 2);
}

// Combined interest reports both sides in one callback, and downgrading the
// interest stops the dropped side from firing. Also checks level-triggered
// parity: unread data must keep reporting readable on subsequent polls.
TEST_P(PollerTest, ReadableWritableInterplay) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  const int fd = pair.value().second.fd();
  Readiness seen = Readiness::none;
  ASSERT_TRUE(loop->watch(fd, Readiness::readable | Readiness::writable,
                          [&](int, Readiness ready) { seen = ready; }));
  // Idle socket: writable only.
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_TRUE(any(seen & Readiness::writable));
  EXPECT_FALSE(any(seen & Readiness::readable));
  // With a byte pending both sides are ready; one dispatch carries both.
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  seen = Readiness::none;
  auto handled = loop->poll_once(100'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 1);
  EXPECT_TRUE(any(seen & Readiness::readable));
  EXPECT_TRUE(any(seen & Readiness::writable));
  // Downgrade to readable-only; the byte is still unread, so the backend
  // must keep reporting readable (level-triggered), never writable.
  ASSERT_TRUE(loop->watch(fd, Readiness::readable, [&](int, Readiness ready) { seen = ready; }));
  seen = Readiness::none;
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_TRUE(any(seen & Readiness::readable));
  EXPECT_FALSE(any(seen & Readiness::writable));
  // Drain the byte: quiet again.
  std::uint8_t sink = 0;
  ASSERT_TRUE(pair.value().second.read_some(MutableByteSpan{&sink, 1}).is_ok());
  handled = loop->poll_once(1'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(handled.value(), 0);
}

// A peer hangup must wake a watcher that subscribed to writable only —
// the shape of the readiness-driven outbox pump, where a connection with a
// full send buffer watches writable and the peer dies. All backends route
// HUP/ERR through the declared interest.
TEST_P(PollerTest, HupWakesWriteOnlyWatcher) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  TcpSocket writer = std::move(pair.value().second);
  ASSERT_TRUE(writer.set_nonblocking(true));
  // Shrink the send buffer and fill it so the socket is NOT writable.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  std::vector<std::uint8_t> chunk(64 * 1024, 0xab);
  while (true) {
    auto wrote = writer.write_some(ByteSpan{chunk.data(), chunk.size()});
    if (!wrote.is_ok() || wrote.value() == 0) break;
  }
  int fired = 0;
  ASSERT_TRUE(loop->watch(writer.fd(), Readiness::writable, [&](int, Readiness ready) {
    ++fired;
    EXPECT_TRUE(any(ready & Readiness::writable));
  }));
  // Buffer full, peer alive: no writable event.
  auto handled = loop->poll_once(20'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(fired, 0) << "socket with a full send buffer must not report writable";
  // Peer closes with unread data: the kernel raises HUP/ERR and the
  // write-only watcher must wake so the owner can reap the connection.
  pair.value().first.close();
  handled = loop->poll_once(1'000'000);
  ASSERT_TRUE(handled.is_ok());
  EXPECT_EQ(fired, 1) << "hangup must wake a write-only watcher";
}

// The fixed dispatch path pins the callback through a stable handle, so a
// callback replacing ITSELF mid-dispatch (re-watch with new interest) must
// not die with the registration it came from.
TEST_P(PollerTest, CallbackMayRewatchSelf) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  auto loop = make();
  const int fd = pair.value().second.fd();
  int old_fired = 0;
  int new_fired = 0;
  ASSERT_TRUE(loop->watch(fd, [&, fd](int, Readiness) {
    ++old_fired;
    // Replaces this very callback while it runs.
    ASSERT_TRUE(loop->watch(fd, [&](int, Readiness) { ++new_fired; }));
  }));
  const std::uint8_t byte = 1;
  ASSERT_TRUE(pair.value().first.write_all(ByteSpan{&byte, 1}));
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(old_fired, 1);
  // The byte is still unread: the replacement callback fires now.
  ASSERT_TRUE(loop->poll_once(100'000).is_ok());
  EXPECT_EQ(old_fired, 1);
  EXPECT_EQ(new_fired, 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, PollerTest,
                         ::testing::Values(PollerBackend::select, PollerBackend::epoll),
                         [](const ::testing::TestParamInfo<PollerBackend>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(PollerFactoryTest, ParseBackendNames) {
  auto select_backend = parse_poller_backend("select");
  ASSERT_TRUE(select_backend.is_ok());
  EXPECT_EQ(select_backend.value(), PollerBackend::select);
  auto epoll_backend = parse_poller_backend("epoll");
  ASSERT_TRUE(epoll_backend.is_ok());
  EXPECT_EQ(epoll_backend.value(), PollerBackend::epoll);
  EXPECT_EQ(parse_poller_backend("uring").status().code(), Errc::invalid_argument);
  EXPECT_EQ(parse_poller_backend("kqueue").status().code(), Errc::invalid_argument);
}

// Regression for the unwatch ordering bug: EPOLL_CTL_DEL used to run AFTER
// the bookkeeping erase, so a genuine ctl failure returned an error with
// entries_ already mutated and the kernel still watching. Reproduce a real
// ctl failure by closing the watched socket and re-pointing its fd number
// at a regular file: epoll_ctl rejects regular files with EPERM (checked
// before the not-registered lookup), which is not in the tolerated
// EBADF/ENOENT set.
TEST(EpollPollerTest, UnwatchFailureLeavesEntryRegistered) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.is_ok());
  EpollPoller loop;
  const int fd = pair.value().second.fd();
  ASSERT_TRUE(loop.watch(fd, [](int, Readiness) {}));
  ASSERT_EQ(loop.watched_count(), 1u);

  const int file_fd = ::open("/dev/null", O_RDONLY);
  // /dev/null polls fine; use an actual regular file.
  ::close(file_fd);
  char tmpl[] = "/tmp/brisk_poller_unwatch_XXXXXX";
  const int reg_fd = ::mkstemp(tmpl);
  ASSERT_GE(reg_fd, 0);
  ::unlink(tmpl);
  // Close the socket out from under the poller and land the regular file on
  // the same descriptor number.
  pair.value().second.close();
  ASSERT_EQ(::dup2(reg_fd, fd), fd);
  ::close(reg_fd);

  Status st = loop.unwatch(fd);
  EXPECT_EQ(st.code(), Errc::io_error) << st.to_string();
  EXPECT_EQ(loop.watched_count(), 1u)
      << "failed unwatch must leave the poller's bookkeeping untouched";

  // Once the offending fd is gone the same unwatch succeeds (EBADF is a
  // tolerated shape of "already deregistered") and the entry goes with it.
  ::close(fd);
  EXPECT_TRUE(loop.unwatch(fd));
  EXPECT_EQ(loop.watched_count(), 0u);
}

}  // namespace
}  // namespace brisk::net
