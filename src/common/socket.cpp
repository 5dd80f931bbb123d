#include "common/socket.hpp"

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

// macOS has no MSG_NOSIGNAL; ignore_sigpipe() covers the EPIPE path there.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace mtperf {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(std::string_view data) noexcept {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

long Socket::recv_some(char* buf, std::size_t len) noexcept {
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket ListenSocket::listen_tcp(std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket");
  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) !=
      0) {
    fail_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    fail_errno("bind");
  }
  if (::listen(sock.fd(), backlog) != 0) fail_errno("listen");
  ListenSocket out;
  out.sock_ = std::move(sock);
  return out;
}

std::uint16_t ListenSocket::port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(sock_.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    fail_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket ListenSocket::accept_conn() noexcept {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd < 0 && errno == EINTR) continue;
    return Socket(fd);
  }
}

Socket connect_tcp(std::uint16_t port, const std::string& host) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error("connect_tcp: invalid IPv4 address '" + host + "'");
  }
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    fail_errno("connect");
  }
  // The protocol is one small line per request/response; batching them in
  // the kernel behind Nagle only adds latency.
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

void ignore_sigpipe() noexcept {
  struct sigaction current {};
  if (::sigaction(SIGPIPE, nullptr, &current) != 0) return;
  if (current.sa_handler != SIG_DFL) return;
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  ::sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, nullptr);
}

}  // namespace mtperf

#else  // non-POSIX stubs: link, but throw on use.

namespace mtperf {

namespace {
[[noreturn]] void unsupported() {
  throw Error("TCP sockets are not supported on this platform");
}
}  // namespace

Socket::~Socket() {}
Socket& Socket::operator=(Socket&& other) noexcept {
  fd_ = other.fd_;
  other.fd_ = -1;
  return *this;
}
bool Socket::send_all(std::string_view) noexcept { return false; }
long Socket::recv_some(char*, std::size_t) noexcept { return -1; }
void Socket::shutdown() noexcept {}
void Socket::close() noexcept { fd_ = -1; }
ListenSocket ListenSocket::listen_tcp(std::uint16_t, int) { unsupported(); }
std::uint16_t ListenSocket::port() const { unsupported(); }
Socket ListenSocket::accept_conn() noexcept { return Socket(); }
Socket connect_tcp(std::uint16_t, const std::string&) { unsupported(); }
void ignore_sigpipe() noexcept {}

}  // namespace mtperf

#endif

namespace mtperf {

void LineReader::take(std::string& line, const std::string& s,
                      std::size_t from, std::size_t to) {
  if (too_long_) return;
  if (max_line_ != 0 && line.size() + (to - from) > max_line_) {
    too_long_ = true;
    line.clear();
    return;
  }
  line.append(s, from, to - from);
}

bool LineReader::next_line(std::string& line) {
  line.clear();
  too_long_ = false;
  for (;;) {
    // Scan the buffered tail for a newline.
    const std::size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      take(line, buffer_, pos_, nl);
      pos_ = nl + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    take(line, buffer_, pos_, buffer_.size());
    buffer_.clear();
    pos_ = 0;

    char chunk[4096];
    const long n = socket_->recv_some(chunk, sizeof chunk);
    if (n <= 0) {
      // EOF/error: surface a final unterminated line if one is pending.
      return !line.empty() || too_long_;
    }
    buffer_.assign(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mtperf
