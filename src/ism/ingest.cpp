#include "ism/ingest.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"

namespace brisk::ism {

Result<std::unique_ptr<ReaderThread>> ReaderThread::start(const ReaderConfig& config) {
  auto to_reader = net::WakeupPipe::create();
  if (!to_reader) return to_reader.status();
  auto to_ordering = net::WakeupPipe::create();
  if (!to_ordering) return to_ordering.status();
  return std::unique_ptr<ReaderThread>(
      new ReaderThread(config, std::move(to_reader).value(), std::move(to_ordering).value()));
}

ReaderThread::ReaderThread(const ReaderConfig& config, net::WakeupPipe to_reader,
                           net::WakeupPipe to_ordering)
    : config_(config),
      poller_(net::make_poller(config.poller)),
      to_reader_(std::move(to_reader)),
      to_ordering_(std::move(to_ordering)) {
  // The command pipe is the one fd the reader always watches; its callback
  // just drains the pipe — apply_commands() runs every cycle regardless.
  (void)poller_->watch(to_reader_.fd(), [this](int, net::Readiness) { to_reader_.drain(); });
  thread_ = std::thread([this] { run(); });
}

ReaderThread::~ReaderThread() { stop_and_join(); }

void ReaderThread::add_connection(int fd, std::shared_ptr<IngestLane> lane) {
  {
    std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(Command{Command::Kind::add, fd, std::move(lane)});
  }
  to_reader_.signal();
}

void ReaderThread::resume(int fd) {
  {
    std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(Command{Command::Kind::resume, fd, nullptr});
  }
  to_reader_.signal();
}

void ReaderThread::remove_connection(int fd) {
  {
    std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(Command{Command::Kind::remove, fd, nullptr});
  }
  to_reader_.signal();
}

void ReaderThread::stop_and_join() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  to_reader_.signal();
  thread_.join();
}

void ReaderThread::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    apply_commands();
    pushed_events_ = false;
    (void)poller_->poll_once(config_.poll_timeout_us);
    // One wakeup per cycle, however many fds produced events: the ordering
    // thread drains every lane when it wakes.
    if (pushed_events_) to_ordering_.signal();
  }
}

void ReaderThread::apply_commands() {
  std::vector<Command> pending;
  {
    std::lock_guard<std::mutex> lock(command_mutex_);
    pending.swap(commands_);
  }
  for (auto& command : pending) {
    if (command.kind == Command::Kind::add) {
      ConnState state;
      state.lane = std::move(command.lane);
      conns_.emplace(command.fd, std::move(state));
      (void)poller_->watch(command.fd, [this](int fd, net::Readiness) { on_readable(fd); });
    } else if (command.kind == Command::Kind::remove) {
      auto it = conns_.find(command.fd);
      if (it == conns_.end() || it->second.closed || it->second.released) continue;
      ConnState& conn = it->second;
      conn.released = true;
      if (!conn.stalled) (void)poller_->unwatch(command.fd);
      IngestEvent event;
      event.kind = IngestEvent::Kind::released;
      event.fd = command.fd;
      event.wire_bytes = conn.decoder.take_unattributed_bytes();
      // Through emit(), behind any backlog: `released` is the last event
      // this reader ever produces for the fd, so consuming it guarantees
      // nothing of this connection's stream is still in flight here.
      emit(conn, std::move(event));
      if (pushed_events_) to_ordering_.signal();
      erase_if_done(command.fd);
    } else {  // resume
      auto it = conns_.find(command.fd);
      if (it == conns_.end() || !it->second.stalled) continue;
      ConnState& conn = it->second;
      conn.stalled = false;
      if (!flush_backlog(conn)) {
        stall(conn, command.fd);
        continue;
      }
      conn.lane->stalled.store(false, std::memory_order_release);
      if (pushed_events_) to_ordering_.signal();
      if (conn.closed || conn.released) {
        erase_if_done(command.fd);
      } else {
        (void)poller_->watch(command.fd, [this](int fd, net::Readiness) { on_readable(fd); });
        // The stall may have left complete frames in the decoder, which
        // no readiness event announces.
        on_readable(command.fd);
      }
    }
  }
}

void ReaderThread::on_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ConnState& conn = it->second;
  while (!conn.stalled) {  // resume() restarts us
    std::optional<IngestEvent> event = conn.decoder.next(fd);
    if (!event) return;
    if (event->kind == IngestEvent::Kind::closed) {
      finish(conn, fd, std::move(*event));
      return;
    }
    emit(conn, std::move(*event));
  }
}

std::optional<IngestEvent> IngestDecoder::next(int fd) {
  for (;;) {
    auto frame = frames_.next();
    if (!frame || frame.value().has_value()) {
      IngestEvent event;
      event.fd = fd;
      event.wire_bytes = take_unattributed_bytes();
      if (!frame) {
        event.kind = IngestEvent::Kind::closed;
        event.error = frame.status();
        return event;
      }
      ByteBuffer payload = std::move(*frame.value());
      xdr::Decoder decoder{ByteSpan(payload.data(), payload.size())};
      auto type = tp::peek_type(decoder);
      if (type && type.value() == tp::MsgType::data_batch) {
        auto batch = tp::decode_batch(decoder);
        if (batch) {
          event.kind = IngestEvent::Kind::batch;
          event.batch = std::move(batch).value();
        } else {
          event.kind = IngestEvent::Kind::closed;
          event.error = batch.status();
        }
      } else {
        // Undecodable type words included: the ordering thread counts and
        // ignores unknown frames, so pass them through untouched.
        event.kind = IngestEvent::Kind::frame;
        event.payload = std::move(payload);
      }
      return event;
    }
    if (socket_drained_) {
      socket_drained_ = false;
      return std::nullopt;
    }
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      unattributed_bytes_ += static_cast<std::size_t>(n);
      frames_.feed(ByteSpan(chunk, static_cast<std::size_t>(n)));
      socket_drained_ = static_cast<std::size_t>(n) < sizeof chunk;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return std::nullopt;
    if (n < 0 && errno == EINTR) continue;
    IngestEvent event;
    event.kind = IngestEvent::Kind::closed;
    event.fd = fd;
    event.wire_bytes = take_unattributed_bytes();
    if (n < 0) event.error = Status(Errc::io_error, std::string("read: ") + std::strerror(errno));
    return event;  // n == 0: orderly EOF, error stays ok
  }
}

void ReaderThread::emit(ConnState& conn, IngestEvent event) {
  const int fd = event.fd;
  // Lane first, backlog only when full — and never reorder around backlog.
  if (conn.backlog.empty() && conn.lane->queue.try_push(std::move(event))) {
    pushed_events_ = true;
    return;
  }
  conn.backlog.push_back(std::move(event));
  if (!conn.stalled) stall(conn, fd);
}

bool ReaderThread::flush_backlog(ConnState& conn) {
  while (!conn.backlog.empty()) {
    if (!conn.lane->queue.try_push(std::move(conn.backlog.front()))) return false;
    conn.backlog.pop_front();
    pushed_events_ = true;
  }
  return true;
}

void ReaderThread::stall(ConnState& conn, int fd) {
  conn.stalled = true;
  conn.lane->stalled.store(true, std::memory_order_release);
  if (!conn.closed) (void)poller_->unwatch(fd);
  // The wakeup makes the ordering thread drain this lane promptly even if
  // no other events are flowing, so the stall can clear.
  to_ordering_.signal();
}

void ReaderThread::finish(ConnState& conn, int fd, IngestEvent closed) {
  if (conn.closed) return;
  conn.closed = true;
  (void)poller_->unwatch(fd);
  emit(conn, std::move(closed));
  erase_if_done(fd);
}

void ReaderThread::erase_if_done(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Keep the state while backlog remains so the closed/released event still
  // reaches the lane; resume() retries flush_backlog until it drains.
  if ((it->second.closed || it->second.released) && it->second.backlog.empty()) {
    conns_.erase(it);
  }
}

ReaderImbalance plan_reader_migration(const std::vector<double>& rates,
                                      const std::vector<std::size_t>& connections,
                                      double ratio, double min_rate) noexcept {
  ReaderImbalance plan;
  if (rates.size() < 2 || connections.size() != rates.size()) return plan;
  std::size_t busiest = 0;
  std::size_t idlest = 0;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (rates[i] > rates[busiest]) busiest = i;
    if (rates[i] < rates[idlest]) idlest = i;
  }
  if (busiest == idlest) return plan;
  if (rates[busiest] < min_rate) return plan;
  if (rates[busiest] <= ratio * rates[idlest]) return plan;
  if (connections[busiest] < 2) return plan;
  plan.imbalanced = true;
  plan.from = busiest;
  plan.to = idlest;
  return plan;
}

int pick_connection_to_move(const std::vector<std::pair<int, double>>& candidates,
                            double rate_gap) noexcept {
  const double target = rate_gap / 2.0;
  int best_fd = -1;
  double best_distance = 0.0;
  for (const auto& [fd, rate] : candidates) {
    if (rate <= 0.0) continue;
    const double distance = rate > target ? rate - target : target - rate;
    if (best_fd < 0 || distance < best_distance ||
        (distance == best_distance && fd < best_fd)) {
      best_fd = fd;
      best_distance = distance;
    }
  }
  return best_fd;
}

std::size_t least_loaded_reader(const std::vector<double>& rates,
                                const std::vector<std::size_t>& connections) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (rates[i] < rates[best] ||
        (rates[i] == rates[best] && i < connections.size() &&
         best < connections.size() && connections[i] < connections[best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace brisk::ism
