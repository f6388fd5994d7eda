#include "net/poller.hpp"

#include <sys/epoll.h>
#include <sys/select.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/time_util.hpp"

namespace brisk::net {

Status Poller::run(TimeMicros cycle_timeout) {
  // Deliberately no reset of stop_ here: a stop() that raced ahead of this
  // thread entering run() must win, or the caller's join() deadlocks.
  while (!stopped()) {
    auto result = poll_once(cycle_timeout);
    if (!result) return result.status();
  }
  return Status::ok();
}

// ---- SelectPoller -----------------------------------------------------------

Status SelectPoller::watch(int fd, Readiness interest, Callback callback) {
  if (fd < 0 || fd >= FD_SETSIZE) return Status(Errc::invalid_argument, "fd out of select range");
  if (!callback) return Status(Errc::invalid_argument, "null callback");
  if (!any(interest)) return Status(Errc::invalid_argument, "empty readiness interest");
  entries_[fd] = Entry{interest, std::make_shared<Callback>(std::move(callback))};
  return Status::ok();
}

Status SelectPoller::unwatch(int fd) {
  if (entries_.erase(fd) == 0) return Status(Errc::not_found, "fd not watched");
  return Status::ok();
}

Result<int> SelectPoller::poll_once(TimeMicros timeout) {
  if (timeout < 0) timeout = 0;
  const TimeMicros deadline = monotonic_micros() + timeout;
  fd_set read_set;
  fd_set write_set;
  int ready;
  for (;;) {
    // Rebuilt every attempt: select leaves the sets undefined on failure.
    FD_ZERO(&read_set);
    FD_ZERO(&write_set);
    int max_fd = -1;
    for (const auto& [fd, entry] : entries_) {
      if (any(entry.interest & Readiness::readable)) FD_SET(fd, &read_set);
      if (any(entry.interest & Readiness::writable)) FD_SET(fd, &write_set);
      if (fd > max_fd) max_fd = fd;
    }
    timeval tv{};
    tv.tv_sec = timeout / 1'000'000;
    tv.tv_usec = timeout % 1'000'000;
    ready = ::select(max_fd + 1, &read_set, &write_set, nullptr, &tv);
    if (ready >= 0) break;
    if (errno != EINTR)
      return Status(Errc::io_error, std::string("select: ") + std::strerror(errno));
    // A stray signal must not turn a timed wait into an early return:
    // re-wait for whatever slice of the timeout remains.
    timeout = deadline - monotonic_micros();
    if (timeout <= 0) {
      ready = 0;
      break;
    }
  }

  int handled = 0;
  if (ready > 0) {
    // Snapshot fds first: callbacks may watch/unwatch.
    std::vector<std::pair<int, Readiness>> ready_fds;
    ready_fds.reserve(static_cast<std::size_t>(ready));
    for (const auto& [fd, entry] : entries_) {
      Readiness mask = Readiness::none;
      if (FD_ISSET(fd, &read_set)) mask = mask | Readiness::readable;
      if (FD_ISSET(fd, &write_set)) mask = mask | Readiness::writable;
      if (any(mask)) ready_fds.emplace_back(fd, mask);
    }
    for (const auto& [fd, mask] : ready_fds) {
      auto it = entries_.find(fd);
      if (it == entries_.end()) continue;  // unwatched by a prior callback
      // Pin the shared handle: the callback may unwatch its own fd (e.g. on
      // a lost connection), which would otherwise destroy it mid-call. The
      // refcount bump replaces the old per-dispatch std::function copy.
      auto cb = it->second.callback;
      (*cb)(fd, mask);
      ++handled;
    }
  }
  if (idle_) idle_();
  return handled;
}

// ---- EpollPoller ------------------------------------------------------------

namespace {

std::uint32_t to_epoll_events(Readiness interest) noexcept {
  std::uint32_t events = 0;
  if (any(interest & Readiness::readable)) events |= EPOLLIN;
  if (any(interest & Readiness::writable)) events |= EPOLLOUT;
  return events;
}

Readiness from_epoll_events(std::uint32_t events, Readiness interest) noexcept {
  Readiness mask = Readiness::none;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) mask = mask | Readiness::readable;
  if ((events & EPOLLOUT) != 0) mask = mask | Readiness::writable;
  // EPOLLHUP/EPOLLERR fire regardless of interest; report them through the
  // side the caller asked for so a write-only watcher still wakes up.
  if (!any(mask & interest)) mask = interest;
  return mask & interest;
}

}  // namespace

EpollPoller::EpollPoller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

EpollPoller::~EpollPoller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EpollPoller::watch(int fd, Readiness interest, Callback callback) {
  if (fd < 0) return Status(Errc::invalid_argument, "negative fd");
  if (!callback) return Status(Errc::invalid_argument, "null callback");
  if (!any(interest)) return Status(Errc::invalid_argument, "empty readiness interest");
  if (epoll_fd_ < 0) return Status(Errc::io_error, "epoll instance unavailable");

  epoll_event event{};
  event.events = to_epoll_events(interest);
  event.data.fd = fd;
  const bool known = entries_.count(fd) != 0;
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &event) != 0) {
    return Status(Errc::io_error, std::string("epoll_ctl: ") + std::strerror(errno));
  }
  entries_[fd] = Entry{interest, std::make_shared<Callback>(std::move(callback))};
  return Status::ok();
}

Status EpollPoller::unwatch(int fd) {
  auto it = entries_.find(fd);
  if (it == entries_.end()) return Status(Errc::not_found, "fd not watched");
  // Kernel first, bookkeeping second: a genuine ctl failure must leave the
  // entry registered so our view and the kernel's stay consistent. The fd
  // may already be closed (kernel auto-deregisters); EBADF/ENOENT are the
  // expected shapes of that and still count as a successful unwatch.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0 && errno != EBADF &&
      errno != ENOENT) {
    return Status(Errc::io_error, std::string("epoll_ctl del: ") + std::strerror(errno));
  }
  entries_.erase(it);
  return Status::ok();
}

Result<int> EpollPoller::poll_once(TimeMicros timeout) {
  if (epoll_fd_ < 0) return Status(Errc::io_error, "epoll instance unavailable");
  if (timeout < 0) timeout = 0;
  // epoll_wait has millisecond granularity; round sub-millisecond timeouts
  // up so a positive timeout never degenerates into a busy spin.
  int timeout_ms = static_cast<int>(timeout / 1'000);
  if (timeout > 0 && timeout_ms == 0) timeout_ms = 1;

  const TimeMicros deadline = monotonic_micros() + timeout;
  epoll_event events[256];
  int ready;
  for (;;) {
    ready = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
    if (ready >= 0) break;
    if (errno != EINTR)
      return Status(Errc::io_error, std::string("epoll_wait: ") + std::strerror(errno));
    // Same EINTR discipline as SelectPoller: re-wait for the remainder.
    const TimeMicros remaining = deadline - monotonic_micros();
    if (remaining <= 0) {
      ready = 0;
      break;
    }
    timeout_ms = static_cast<int>(remaining / 1'000);
    if (timeout_ms == 0) timeout_ms = 1;
  }

  int handled = 0;
  for (int i = 0; i < ready; ++i) {
    const int fd = events[i].data.fd;
    auto it = entries_.find(fd);
    if (it == entries_.end()) continue;  // unwatched by a prior callback
    const Readiness mask = from_epoll_events(events[i].events, it->second.interest);
    if (!any(mask)) continue;
    // Same pin-then-call discipline as SelectPoller (see above).
    auto cb = it->second.callback;
    (*cb)(fd, mask);
    ++handled;
  }
  if (idle_) idle_();
  return handled;
}

// ---- factory ---------------------------------------------------------------

Result<PollerBackend> parse_poller_backend(std::string_view name) {
  if (name == "select") return PollerBackend::select;
  if (name == "epoll") return PollerBackend::epoll;
  return Status(Errc::invalid_argument,
                "unknown poller backend '" + std::string(name) + "' (select|epoll)");
}

const char* to_string(PollerBackend backend) noexcept {
  return backend == PollerBackend::epoll ? "epoll" : "select";
}

std::unique_ptr<Poller> make_poller(PollerBackend backend) {
  if (backend == PollerBackend::epoll) return std::make_unique<EpollPoller>();
  return std::make_unique<SelectPoller>();
}

}  // namespace brisk::net
