#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace brisk::net {
namespace {

Status errno_status(const char* what) {
  return Status(Errc::io_error, std::string(what) + ": " + std::strerror(errno));
}

Status fd_set_nonblocking(int fd, bool enabled) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  flags = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) != 0) return errno_status("fcntl(F_SETFL)");
  return Status::ok();
}

}  // namespace

FdHandle::~FdHandle() { reset(); }

FdHandle::FdHandle(FdHandle&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    reset(std::exchange(other.fd_, -1));
  }
  return *this;
}

int FdHandle::release() noexcept { return std::exchange(fd_, -1); }

void FdHandle::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<TcpSocket> TcpSocket::connect(const std::string& host, std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status(Errc::invalid_argument, "bad IPv4 address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return errno_status("connect");
  }
  return TcpSocket(std::move(fd));
}

Status TcpSocket::set_nonblocking(bool enabled) { return fd_set_nonblocking(fd_.get(), enabled); }

Status TcpSocket::set_nodelay(bool enabled) {
  int flag = enabled ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof flag) != 0) {
    return errno_status("setsockopt(TCP_NODELAY)");
  }
  return Status::ok();
}

Result<std::size_t> TcpSocket::write_some(ByteSpan bytes) {
  for (;;) {
    const ssize_t n = ::send(fd_.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status(Errc::would_block);
    if (errno == EPIPE || errno == ECONNRESET) return Status(Errc::closed, "peer closed");
    return errno_status("send");
  }
}

Status TcpSocket::write_all(ByteSpan bytes, TimeMicros timeout_us) {
  std::size_t sent = 0;
  TimeMicros waited = 0;
  while (sent < bytes.size()) {
    auto n = write_some(bytes.subspan(sent));
    if (!n) {
      if (n.status().code() != Errc::would_block) return n.status();
      // Kernel buffer full: wait for writability instead of spinning.
      if (waited >= timeout_us) {
        return Status(Errc::timeout, "peer not draining; write_all gave up");
      }
      // poll(2), not select(2): FD_SET is undefined for fds >= FD_SETSIZE.
      pollfd pfd{fd_.get(), POLLOUT, 0};
      const TimeMicros slice = 100'000 < timeout_us - waited ? 100'000 : timeout_us - waited;
      const int ready = ::poll(&pfd, 1, static_cast<int>((slice + 999) / 1'000));
      if (ready < 0 && errno != EINTR) return errno_status("poll(write)");
      if (ready == 0) waited += slice;
      continue;
    }
    sent += n.value();
    waited = 0;  // progress resets the stall clock
  }
  return Status::ok();
}

Result<std::size_t> TcpSocket::read_some(MutableByteSpan out) {
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), out.data(), out.size(), 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return std::size_t{0};  // orderly close
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status(Errc::would_block);
    if (errno == ECONNRESET) return Status(Errc::closed, "connection reset");
    return errno_status("recv");
  }
}

Result<TcpListener> TcpListener::listen(std::uint16_t port, int backlog) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  int reuse = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return errno_status("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return errno_status("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_status("getsockname");
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<TcpSocket> TcpListener::accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) return TcpSocket(FdHandle(client));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status(Errc::would_block);
    return errno_status("accept");
  }
}

Status TcpListener::set_nonblocking(bool enabled) { return fd_set_nonblocking(fd_.get(), enabled); }

Result<std::pair<TcpSocket, TcpSocket>> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return errno_status("socketpair");
  return std::make_pair(TcpSocket(FdHandle(fds[0])), TcpSocket(FdHandle(fds[1])));
}

}  // namespace brisk::net
