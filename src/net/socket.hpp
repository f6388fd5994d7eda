// Thin RAII wrappers over TCP stream sockets.
//
// The paper's transfer protocol runs "over a TCP stream socket"; everything
// here is loopback/LAN TCP with optional non-blocking mode for use under
// the select()-based event loop.
#pragma once

#include <cstdint>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace brisk::net {

/// Owned file descriptor with move-only semantics.
class FdHandle {
 public:
  FdHandle() noexcept = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle();
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept;
  FdHandle& operator=(FdHandle&& other) noexcept;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept;
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(FdHandle fd) noexcept : fd_(std::move(fd)) {}

  /// Blocking connect to host:port (IPv4 dotted quad or "localhost").
  static Result<TcpSocket> connect(const std::string& host, std::uint16_t port);

  Status set_nonblocking(bool enabled);
  Status set_nodelay(bool enabled);

  /// write(2): returns bytes written (may be short in non-blocking mode),
  /// Errc::would_block, or an error.
  Result<std::size_t> write_some(ByteSpan bytes);
  /// Writes the whole span. On a non-blocking socket, waits (poll) for
  /// writability between partial writes; gives up with Errc::timeout after
  /// `timeout_us` of no progress (a peer that stopped reading must not
  /// wedge the caller forever).
  Status write_all(ByteSpan bytes, TimeMicros timeout_us = 10'000'000);
  /// read(2): returns bytes read, 0 on orderly peer close, Errc::would_block.
  Result<std::size_t> read_some(MutableByteSpan out);

  void close() noexcept { fd_.reset(); }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }

 private:
  FdHandle fd_;
};

class TcpListener {
 public:
  TcpListener() = default;

  /// Binds to 127.0.0.1:`port` (0 = ephemeral) and listens.
  static Result<TcpListener> listen(std::uint16_t port, int backlog = 16);

  /// Accepts one connection (blocking unless the listener is non-blocking).
  Result<TcpSocket> accept();

  Status set_nonblocking(bool enabled);
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }

 private:
  TcpListener(FdHandle fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}

  FdHandle fd_;
  std::uint16_t port_ = 0;
};

/// Connected socketpair (for in-process tests of stream code paths).
Result<std::pair<TcpSocket, TcpSocket>> socket_pair();

}  // namespace brisk::net
