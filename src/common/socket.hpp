// Thin POSIX TCP helpers for the serving pipeline: an RAII socket, a
// loopback listener, a buffered line reader, and a client connector.
//
// Scope is deliberately narrow — blocking sockets, IPv4 loopback, and the
// line-delimited framing the serve protocol already uses on stdio.  Writes
// use MSG_NOSIGNAL so a peer that hangs up surfaces as a false return, not
// a SIGPIPE.  On non-POSIX platforms every entry point throws
// mtperf::Error so the library still links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mtperf {

/// Move-only owner of one socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Write the whole buffer (looping over partial writes).  False when the
  /// peer is gone; the caller drops the connection.
  bool send_all(std::string_view data) noexcept;

  /// Read up to `len` bytes.  >0 = bytes read, 0 = orderly EOF, <0 =
  /// error (EINTR is retried internally).
  long recv_some(char* buf, std::size_t len) noexcept;

  /// Wake any thread blocked in recv_some on this socket (SHUT_RDWR).
  void shutdown() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A listening IPv4 TCP socket bound to loopback.
class ListenSocket {
 public:
  ListenSocket() = default;

  /// Bind 127.0.0.1:`port` (0 = kernel-assigned; read back via port())
  /// with SO_REUSEADDR and start listening.  Throws mtperf::Error on any
  /// failure.
  static ListenSocket listen_tcp(std::uint16_t port, int backlog = 128);

  bool valid() const noexcept { return sock_.valid(); }

  /// The bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const;

  /// Block for the next connection.  An invalid Socket means the listener
  /// was shut down — the accept loop exits.
  Socket accept_conn() noexcept;

  /// Wake a blocked accept_conn and stop listening.
  void shutdown() noexcept { sock_.shutdown(); }
  void close() noexcept { sock_.close(); }

 private:
  Socket sock_;
};

/// Connect to 127.0.0.1:`port` (or a dotted-quad `host`).  Throws
/// mtperf::Error when the connection fails.
Socket connect_tcp(std::uint16_t port, const std::string& host = "127.0.0.1");

/// Process-wide: ignore SIGPIPE so a write to a hung-up peer — a client
/// socket that disconnected mid-response, or the stdio transport's stdout
/// pipe — fails with EPIPE instead of killing the process.  MSG_NOSIGNAL
/// already covers send_all on Linux, but not every platform has the flag
/// and not every write goes through a socket.  Only installs SIG_IGN when
/// the disposition is still SIG_DFL, so an application handler is never
/// overridden.  Idempotent; no-op on non-POSIX platforms.
void ignore_sigpipe() noexcept;

/// Buffered '\n'-delimited reader over a Socket, reusing one internal
/// buffer across lines (no per-line allocation once warm).  Strips the
/// trailing '\n' and an optional '\r'.
///
/// A reader given a `max_line` keeps at most that many bytes of a line:
/// a longer line is read and discarded through its '\n', and comes back
/// empty with too_long() set, so a peer that never sends a newline cannot
/// grow the buffer without bound.  0 (the default) means no limit.
class LineReader {
 public:
  explicit LineReader(Socket& socket, std::size_t max_line = 0)
      : socket_(&socket), max_line_(max_line) {}

  /// Read the next line into `line` (contents replaced, capacity reused).
  /// False on EOF/error with no buffered line left.
  bool next_line(std::string& line);

  /// The line the last next_line() returned ran past max_line and was
  /// discarded.
  bool too_long() const noexcept { return too_long_; }

 private:
  /// Append s[from, to) to `line`, or drop it once the line is too long.
  void take(std::string& line, const std::string& s, std::size_t from,
            std::size_t to);

  Socket* socket_;
  std::size_t max_line_;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool too_long_ = false;
};

}  // namespace mtperf
