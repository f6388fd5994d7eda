#include "net/faulty_socket.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/frame.hpp"

namespace brisk::net {
namespace {

void put_be32(std::uint8_t* out, std::uint32_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

}  // namespace

Status FaultySocket::write_frame(TcpSocket& socket, ByteSpan payload) {
  const std::uint64_t index = stats_.frames++;
  if (!policy_) return net::write_frame(socket, payload);

  const FaultDecision decision = policy_(index, payload);
  switch (decision.action) {
    case FaultAction::pass:
      return net::write_frame(socket, payload);
    case FaultAction::drop:
      ++stats_.dropped;
      return Status::ok();
    case FaultAction::stall: {
      ++stats_.stalled;
      stats_.stalled_us_total += decision.stall_us;
      if (decision.stall_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(decision.stall_us));
      }
      return net::write_frame(socket, payload);
    }
    case FaultAction::truncate: {
      // Declare the full length, deliver only part of the body: what the
      // peer sees when the sender dies mid-write. Its FrameReader will wait
      // for bytes that never come (or misparse what follows), so the
      // connection is poisoned from here on — intentionally.
      ++stats_.truncated;
      std::uint8_t header[4];
      put_be32(header, static_cast<std::uint32_t>(payload.size()));
      Status st = socket.write_all(ByteSpan{header, 4});
      if (!st) return st;
      const std::size_t keep = std::min(decision.truncate_to, payload.size());
      if (keep > 0) return socket.write_all(payload.subspan(0, keep));
      return Status::ok();
    }
    case FaultAction::duplicate: {
      ++stats_.duplicated;
      Status st = net::write_frame(socket, payload);
      if (!st) return st;
      return net::write_frame(socket, payload);
    }
  }
  return Status(Errc::invalid_argument, "unknown fault action");
}

Status FaultySocket::write_frame(TcpSocket& socket, FrameSendBuffer& outbox,
                                 ByteSpan payload) {
  const std::uint64_t index = stats_.frames++;
  Status st = Status::ok();
  if (!policy_) {
    st = outbox.enqueue_frame(payload);
  } else {
    const FaultDecision decision = policy_(index, payload);
    switch (decision.action) {
      case FaultAction::pass:
        st = outbox.enqueue_frame(payload);
        break;
      case FaultAction::drop:
        ++stats_.dropped;
        break;
      case FaultAction::stall:
        ++stats_.stalled;
        stats_.stalled_us_total += decision.stall_us;
        if (decision.stall_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(decision.stall_us));
        }
        st = outbox.enqueue_frame(payload);
        break;
      case FaultAction::truncate: {
        // Same torn frame as the blocking path: full declared length, partial
        // body — the peer's stream is poisoned from here on, intentionally.
        ++stats_.truncated;
        std::uint8_t header[4];
        put_be32(header, static_cast<std::uint32_t>(payload.size()));
        st = outbox.enqueue_raw(ByteSpan{header, 4});
        const std::size_t keep = std::min(decision.truncate_to, payload.size());
        if (st && keep > 0) st = outbox.enqueue_raw(payload.subspan(0, keep));
        break;
      }
      case FaultAction::duplicate:
        ++stats_.duplicated;
        st = outbox.enqueue_frame(payload);
        if (st) st = outbox.enqueue_frame(payload);
        break;
    }
  }
  if (!st) return st;
  return outbox.pump(socket);
}

std::string to_string(const FaultStats& stats) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "faults injected: %llu/%llu frames dropped, %llu stalled, %llu truncated, "
                "%llu duplicated",
                static_cast<unsigned long long>(stats.dropped),
                static_cast<unsigned long long>(stats.frames),
                static_cast<unsigned long long>(stats.stalled),
                static_cast<unsigned long long>(stats.truncated),
                static_cast<unsigned long long>(stats.duplicated));
  return buf;
}

}  // namespace brisk::net
