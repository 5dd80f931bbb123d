#include "server_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace perfbench {

using mtperf::service::Json;

namespace {

/// Read one '\n'-terminated line from a pipe, byte by byte (only the
/// readiness and final metrics lines travel this way).
bool read_pipe_line(int fd, std::string& line) {
  line.clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::vector<std::string>& argv) {
  int out_pipe[2];
  MTPERF_REQUIRE(::pipe(out_pipe) == 0, "perfbench: pipe() failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  MTPERF_REQUIRE(pid >= 0, "perfbench: fork() failed");
  if (pid == 0) {
    // The server must not outlive the benchmark, even when the benchmark
    // is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(127);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    std::perror("perfbench: execv");
    std::_Exit(127);
  }
  ::close(out_pipe[1]);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];
  std::string line;
  MTPERF_REQUIRE(read_pipe_line(stdout_fd_, line),
                 "perfbench: server did not announce readiness");
  port_ = static_cast<std::uint16_t>(
      Json::parse(line).at("listening").at("port").as_number());
  control_ = mtperf::connect_tcp(port_);
  control_reader_.emplace(control_);
}

ServerProcess::~ServerProcess() {
  control_.close();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

Json ServerProcess::control(const std::string& line) {
  MTPERF_REQUIRE(control_.send_all(line), "perfbench: control send failed");
  std::string reply;
  MTPERF_REQUIRE(control_reader_->next_line(reply),
                 "perfbench: control connection closed");
  return Json::parse(reply);
}

std::size_t ServerProcess::roundtrip(const std::vector<std::string>& lines,
                                     std::size_t chunk) {
  std::size_t failed = 0;
  std::string reply;
  for (std::size_t i = 0; i < lines.size(); i += chunk) {
    const std::size_t end = std::min(lines.size(), i + chunk);
    std::string batch;
    for (std::size_t j = i; j < end; ++j) batch += lines[j];
    MTPERF_REQUIRE(control_.send_all(batch), "perfbench: prefill send failed");
    for (std::size_t j = i; j < end; ++j) {
      if (!control_reader_->next_line(reply)) {
        return failed + (lines.size() - j);
      }
      if (reply.rfind("{\"bottleneck\":", 0) != 0) ++failed;
    }
  }
  return failed;
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after its ')'.
  const std::size_t close = stat.rfind(')');
  MTPERF_REQUIRE(close != std::string::npos, "perfbench: bad /proc stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int f = 3; f <= 13; ++f) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  throw mtperf::Error("perfbench: no VmHWM in /proc status");
}

bool ServerProcess::shutdown() {
  if (pid_ <= 0) return false;
  control("{\"cmd\":\"shutdown\"}\n");
  std::string final_metrics;
  read_pipe_line(stdout_fd_, final_metrics);
  control_.close();
  int status = 0;
  const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
  pid_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
