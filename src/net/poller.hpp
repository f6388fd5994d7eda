// Backend-neutral readiness polling.
//
// The paper is explicit that its latency floor comes from "waiting select
// system calls, which can delay an event record for up to 40 ms" — the EXS
// and ISM both sit in a readiness wait with a timeout. Poller reproduces
// exactly that structure behind a backend-neutral interface so deployments
// can choose:
//  * SelectPoller — the paper-faithful select(2) backend (default). Keeps
//    the 1024-fd FD_SETSIZE cap and the linear rescan, which is what the
//    latency experiments model.
//  * EpollPoller — a level-triggered epoll(7) backend with no fd cap and
//    O(ready) dispatch, the backend for "hundreds of EXS nodes" at one ISM.
// Both backends dispatch the same way (snapshot ready fds, invoke the
// callbacks through a stable shared handle so a callback may unwatch any
// fd, including its own), so the daemons behave identically regardless of
// backend.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace brisk::net {

/// Readiness interest/result mask. `readable` matches the historical
/// event-loop behaviour; `writable` lets senders wait out a full socket
/// buffer instead of spinning.
enum class Readiness : std::uint32_t {
  none = 0,
  readable = 1u << 0,
  writable = 1u << 1,
};

constexpr Readiness operator|(Readiness a, Readiness b) noexcept {
  return static_cast<Readiness>(static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b));
}
constexpr Readiness operator&(Readiness a, Readiness b) noexcept {
  return static_cast<Readiness>(static_cast<std::uint32_t>(a) & static_cast<std::uint32_t>(b));
}
constexpr bool any(Readiness mask) noexcept { return mask != Readiness::none; }

/// One poll cycle over a set of registered fds. Not thread-safe; one poller
/// per daemon thread (stop() alone may be called from another thread).
class Poller {
 public:
  using Callback = std::function<void(int fd, Readiness ready)>;
  using IdleCallback = std::function<void()>;

  virtual ~Poller() = default;

  /// Watches `fd` for the readiness in `interest`; `callback` fires once
  /// per ready cycle with the subset that is actually ready. Watching an
  /// already-watched fd replaces its interest and callback.
  virtual Status watch(int fd, Readiness interest, Callback callback) = 0;
  /// Readable-only convenience (the common daemon case).
  Status watch(int fd, Callback callback) {
    return watch(fd, Readiness::readable, std::move(callback));
  }
  virtual Status unwatch(int fd) = 0;

  /// Called after every poll return (ready or timeout). This is where
  /// EXS/ISM do their periodic work: flushing aged batches, running clock
  /// sync rounds, releasing sorted records.
  void set_idle(IdleCallback callback) { idle_ = std::move(callback); }

  /// Runs one wait with the given timeout. Returns the number of ready fd
  /// events handled (0 on pure timeout).
  virtual Result<int> poll_once(TimeMicros timeout) = 0;

  /// Runs until `stop()` is called (from a callback, or from another thread
  /// — the flag is atomic and checked once per poll cycle).
  Status run(TimeMicros cycle_timeout);
  void stop() noexcept { stop_.store(true, std::memory_order_release); }
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  [[nodiscard]] virtual std::size_t watched_count() const noexcept = 0;
  [[nodiscard]] virtual const char* backend_name() const noexcept = 0;

 protected:
  IdleCallback idle_;
  std::atomic<bool> stop_{false};
};

/// The paper-faithful select(2) backend: FD_SETSIZE cap, linear rescans.
class SelectPoller final : public Poller {
 public:
  using Poller::watch;
  Status watch(int fd, Readiness interest, Callback callback) override;
  Status unwatch(int fd) override;
  Result<int> poll_once(TimeMicros timeout) override;
  [[nodiscard]] std::size_t watched_count() const noexcept override {
    return entries_.size();
  }
  [[nodiscard]] const char* backend_name() const noexcept override { return "select"; }

 private:
  struct Entry {
    Readiness interest = Readiness::readable;
    // Held behind a shared handle so dispatch can pin the callback alive
    // across a self-unwatch without copying the std::function per event.
    std::shared_ptr<Callback> callback;
  };
  std::map<int, Entry> entries_;
};

/// Level-triggered epoll(7) backend: no fd cap, O(ready) dispatch.
class EpollPoller final : public Poller {
 public:
  EpollPoller();
  ~EpollPoller() override;
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  using Poller::watch;
  Status watch(int fd, Readiness interest, Callback callback) override;
  Status unwatch(int fd) override;
  Result<int> poll_once(TimeMicros timeout) override;
  [[nodiscard]] std::size_t watched_count() const noexcept override {
    return entries_.size();
  }
  [[nodiscard]] const char* backend_name() const noexcept override { return "epoll"; }

 private:
  struct Entry {
    Readiness interest = Readiness::readable;
    std::shared_ptr<Callback> callback;  // stable dispatch handle (see SelectPoller)
  };
  int epoll_fd_ = -1;
  std::map<int, Entry> entries_;
};

enum class PollerBackend { select, epoll };

/// Parses a --poller / knob value ("select" or "epoll").
Result<PollerBackend> parse_poller_backend(std::string_view name);
const char* to_string(PollerBackend backend) noexcept;

std::unique_ptr<Poller> make_poller(PollerBackend backend);

}  // namespace brisk::net
