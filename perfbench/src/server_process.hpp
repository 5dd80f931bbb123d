// mtperf_serve as a child process: spawn on the socket transport, wait for
// the readiness line, talk to it over a control connection, read its CPU
// time and peak memory from /proc, and shut it down.  The spawn and pipe
// code follows bench/loadgen_serve's; it is copied so that bench stays as
// it is.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/socket.hpp"
#include "service/json.hpp"

namespace perfbench {

class ServerProcess {
 public:
  /// Spawn `argv` (argv[0] is the binary) and block until it prints its
  /// {"listening":{"port":N}} line.  Throws mtperf::Error on failure.
  explicit ServerProcess(const std::vector<std::string>& argv);
  /// Kills and reaps the child if shutdown() did not run.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Send one control line ({"cmd":"metrics"}) and parse the reply.
  mtperf::service::Json control(const std::string& line);

  /// Send `lines` over the control connection in chunks of `chunk`,
  /// reading every reply before the next chunk.  Returns the replies that
  /// were not result lines (errors, shed, or missing).
  std::size_t roundtrip(const std::vector<std::string>& lines,
                        std::size_t chunk);

  /// User + system CPU seconds the server has used so far.
  double cpu_seconds() const;
  /// Peak resident set size so far (VmHWM), in MiB.
  double peak_rss_mb() const;

  /// Ask the server to stop, read its final metrics line, and reap it.
  /// True when it exited with status 0.
  bool shutdown();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  mtperf::Socket control_;
  std::optional<mtperf::LineReader> control_reader_;
};

}  // namespace perfbench
