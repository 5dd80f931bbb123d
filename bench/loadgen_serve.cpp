// loadgen_serve — saturation load generator for the mtperf_serve pipeline.
//
// Spawns the server binary itself (both transports), drives it with a
// structure-compatible scenario corpus, and reports the three numbers the
// serving pipeline is judged on:
//
//   1. baseline   — closed-loop solves/s of the single-threaded stdio
//                   loop on a cold corpus (every request a distinct
//                   fingerprint of one network structure);
//   2. socket     — closed-loop pipelined solves/s of the socket server
//                   on the same kind of cold corpus, where micro-batching
//                   packs the structure-compatible misses into lane-major
//                   lockstep blocks (this, not thread fan-out, is where
//                   the speedup comes from on small machines);
//   3. saturation — open-loop cold requests at 2x the measured socket
//                   capacity, with as many warm requests interleaved on
//                   top: the server must shed cold work with fast
//                   {"error":"overloaded"} rejections while the warm
//                   requests keep a bounded p99.  Warm hits are answered
//                   before admission, so only the cold stream counts
//                   against the capacity the queue is sized for.
//
// Results land in bench_out/BENCH_serve.json (solves/s, speedup,
// latency percentiles, shedding counters, batch occupancy, and an honest
// hardware_threads record).  Exits non-zero on any crash, on zero
// shedding under 2x cold load, or on a warm p99 over budget — the CI gate.
//
//   $ ./bench/loadgen_serve --server-bin ./tools/mtperf_serve
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/socket.hpp"
#include "service/json.hpp"

namespace {

using namespace mtperf;
using service::Json;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- corpus ----------------------------------------------------------------
//
// One fixed 12-station network (a VINS-like three-tier fleet); each request
// jitters the per-station demands deterministically by index, so every
// index is a distinct fingerprint of the same batch structure key —
// exactly the shape the lane-major kernel packs into lockstep blocks.

// Sized so the solve dominates per-request overhead: 12 stations with
// wide multiserver tiers (the marginal-probability recursion is the
// expensive part) to N=1500 costs ~2 ms scalar — roughly 10x the
// parse/serialize/transport cost of a request.
constexpr unsigned kMaxPopulation = 1500;
constexpr const char* kStations[] = {
    "load/cpu", "load/disk", "load/net-tx", "load/net-rx",
    "app/cpu",  "app/disk",  "app/net-tx",  "app/net-rx",
    "db/cpu",   "db/disk",   "db/net-tx",   "db/net-rx",
};
constexpr double kBaseDemand[] = {0.004, 0.010, 0.002, 0.002, 0.012, 0.008,
                                  0.003, 0.003, 0.020, 0.034, 0.004, 0.004};
constexpr std::size_t kStationCount = 12;
/// The three CPU tiers are wide multiserver stations (as in the VINS
/// what-if fleet of micro_batch); everything else is single-server.
constexpr int kServersOf(std::size_t k) { return k % 4 == 0 ? 128 : 1; }

/// Deterministic jitter in [0, 1): the fractional part of i * golden ratio.
double jitter(std::uint64_t i) {
  const double x = static_cast<double>(i) * 0.6180339887498949;
  return x - std::floor(x);
}

/// One request line.  `variant` selects the demand vector (same variant =
/// same fingerprint = warm repeat); `id` tags the response.
std::string make_request(std::uint64_t id, std::uint64_t variant) {
  std::string line;
  line.reserve(512);
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"id\":%llu,\"label\":\"lg-%llu\",",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(variant));
  line += buf;
  line += "\"think\":2.0,\"stations\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"servers\":%d}",
                  k == 0 ? "" : ",", kStations[k], kServersOf(k));
    line += buf;
  }
  line += "],\"demands\":{\"type\":\"constant\",\"values\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    const double d = kBaseDemand[k] * (1.0 + 0.25 * jitter(variant * 13 + k));
    std::snprintf(buf, sizeof buf, "%s%.9f", k == 0 ? "" : ",", d);
    line += buf;
  }
  std::snprintf(buf, sizeof buf,
                "]},\"solver\":\"mvasd\",\"max_population\":%u}\n",
                kMaxPopulation);
  line += buf;
  return line;
}

/// One multiclass request line (--multiclass): the same 12-station fleet as
/// single-server queueing stations, carrying a three-class browse/search/
/// buy mix solved with schweitzer-multiclass.  Every variant jitters the
/// per-class demands and the axis depth, so a cold corpus is many distinct
/// fingerprints of one class-structure key — the shape evaluate_batch packs
/// into multiclass lockstep blocks.
std::string make_mc_request(std::uint64_t id, std::uint64_t variant) {
  std::string line;
  line.reserve(1536);
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"id\":%llu,\"label\":\"lgmc-%llu\",",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(variant));
  line += buf;
  line += "\"stations\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"servers\":1}",
                  k == 0 ? "" : ",", kStations[k]);
    line += buf;
  }
  line += "],\"classes\":[";
  constexpr const char* kClassNames[] = {"browse", "search", "buy"};
  constexpr double kClassThink[] = {2.0, 4.0, 1.0};
  constexpr double kClassScale[] = {1.0, 0.6, 1.8};
  const unsigned kClassPop[] = {
      8, 6, 40 + static_cast<unsigned>(variant % 4) * 8};
  for (std::size_t c = 0; c < 3; ++c) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"population\":%u,\"think\":%.1f,"
                  "\"demands\":[",
                  c == 0 ? "" : ",", kClassNames[c], kClassPop[c],
                  kClassThink[c]);
    line += buf;
    for (std::size_t k = 0; k < kStationCount; ++k) {
      const double d = kBaseDemand[k] * kClassScale[c] *
                       (1.0 + 0.25 * jitter(variant * 31 + c * 17 + k));
      std::snprintf(buf, sizeof buf, "%s%.9f", k == 0 ? "" : ",", d);
      line += buf;
    }
    line += "]}";
  }
  line += "],\"solver\":\"schweitzer-multiclass\"}\n";
  return line;
}

#if defined(__unix__) || defined(__APPLE__)

// --- child process ---------------------------------------------------------

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write end of the child's stdin
  int stdout_fd = -1;  ///< read end of the child's stdout

  void close_stdin() {
    if (stdin_fd >= 0) ::close(stdin_fd);
    stdin_fd = -1;
  }

  /// Reap the child; true when it exited cleanly with status 0.
  bool reap() {
    close_stdin();
    if (stdout_fd >= 0) ::close(stdout_fd);
    stdout_fd = -1;
    if (pid < 0) return false;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return false;
    pid = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

Child spawn(const std::vector<std::string>& argv) {
  int in_pipe[2], out_pipe[2];
  MTPERF_REQUIRE(::pipe(in_pipe) == 0 && ::pipe(out_pipe) == 0,
                 "loadgen: pipe() failed");
  const pid_t pid = ::fork();
  MTPERF_REQUIRE(pid >= 0, "loadgen: fork() failed");
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    std::perror("loadgen: execv");
    std::_Exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  Child child;
  child.pid = pid;
  child.stdin_fd = in_pipe[1];
  child.stdout_fd = out_pipe[0];
  return child;
}

/// Read one '\n'-terminated line from a pipe fd (blocking, byte-wise —
/// only used for the low-volume ready/metrics lines on the child stdout).
bool read_pipe_line(int fd, std::string& line) {
  line.clear();
  char c;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
  }
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// --- phases ----------------------------------------------------------------

struct Options {
  std::string server_bin = "./tools/mtperf_serve";
  std::size_t requests = 192;        ///< cold corpus size per phase
  std::size_t connections = 4;       ///< socket client connections
  std::size_t window = 48;           ///< pipelined in-flight per connection
  std::size_t batch_size = 48;       ///< server micro-batch size
  long batch_deadline_us = 2000;
  std::size_t queue_capacity = 256;  ///< small, so 2x load visibly sheds
  double saturation_seconds = 3.0;
  double p99_budget_ms = 500.0;
  double min_speedup = 3.0;
  /// --multiclass: drive the three-class schweitzer-multiclass corpus
  /// through the multiclass lockstep batch path instead of the
  /// single-class mvasd corpus.  Results go to BENCH_serve_multiclass.json.
  bool multiclass = false;
  /// Corpus builder for the selected workload.
  std::string (*make)(std::uint64_t, std::uint64_t) = make_request;
};

struct PhaseResult {
  std::size_t results = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  double solves_per_sec = 0.0;
};

/// Phase 1: the single-threaded stdio loop, closed over a pipe.  A writer
/// thread feeds the cold corpus; the main thread counts response lines.
PhaseResult run_stdio_baseline(const Options& opt) {
  Child child = spawn({opt.server_bin, "--stdio", "--threads", "1",
                       "--cache-capacity", "1024"});
  std::vector<std::string> corpus;
  corpus.reserve(opt.requests);
  for (std::size_t i = 0; i < opt.requests; ++i) {
    corpus.push_back(opt.make(i, 1000000 + i));
  }
  const auto start = Clock::now();
  std::thread writer([&] {
    for (const auto& line : corpus) {
      if (!write_all(child.stdin_fd, line)) break;
    }
    child.close_stdin();
  });
  PhaseResult phase;
  std::string line;
  while (read_pipe_line(child.stdout_fd, line)) {
    if (line.find("\"throughput\"") != std::string::npos) {
      ++phase.results;
      if (phase.results == opt.requests) break;  // metrics line follows
    } else if (line.find("\"error\"") != std::string::npos) {
      ++phase.errors;
    }
  }
  phase.seconds = ms_between(start, Clock::now()) / 1000.0;
  writer.join();
  while (read_pipe_line(child.stdout_fd, line)) {
  }  // drain trailing metrics
  MTPERF_REQUIRE(child.reap(), "stdio server exited abnormally");
  phase.solves_per_sec =
      phase.seconds > 0 ? static_cast<double>(phase.results) / phase.seconds
                        : 0.0;
  return phase;
}

/// One socket client connection and its latency log.
struct Conn {
  Socket sock;
  std::thread reader;
  // Atomics: the capacity-phase sender paces its pipeline window on the
  // reader's counts.
  std::atomic<std::size_t> results{0};
  std::atomic<std::size_t> overloaded{0};
  std::atomic<std::size_t> errors{0};
  std::vector<double> warm_latency_ms;
  std::vector<double> cold_latency_ms;
};

/// Drain responses on `conn` until `expected` lines arrive (or EOF),
/// recording latency against `send_time` (indexed by response id) and
/// classifying by `warm` flag.
void reader_loop(Conn& conn, std::size_t expected,
                 const std::vector<Clock::time_point>& send_time,
                 const std::vector<std::uint8_t>& warm) {
  LineReader reader(conn.sock);
  std::string line;
  std::size_t seen = 0;
  while (seen < expected && reader.next_line(line)) {
    ++seen;
    // Lightweight classification: a full Json::parse per response would
    // compete with the server for CPU on small machines and distort the
    // capacity measurement.  The wire format is ours, so scanning for the
    // two keys that matter is safe.
    const std::size_t id_pos = line.find("\"id\":");
    const std::uint64_t id =
        id_pos != std::string::npos
            ? std::strtoull(line.c_str() + id_pos + 5, nullptr, 10)
            : send_time.size();
    if (line.find("\"error\"") != std::string::npos) {
      if (line.find("overloaded") != std::string::npos) {
        ++conn.overloaded;
      } else {
        ++conn.errors;
      }
      continue;
    }
    ++conn.results;
    if (id < send_time.size()) {
      const double ms = ms_between(send_time[id], Clock::now());
      (warm[id] ? conn.warm_latency_ms : conn.cold_latency_ms).push_back(ms);
    }
  }
}

double latency_pct(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool min_speedup_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--server-bin") {
      opt.server_bin = next();
    } else if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(std::atol(next().c_str()));
    } else if (arg == "--connections") {
      opt.connections = static_cast<std::size_t>(std::atol(next().c_str()));
    } else if (arg == "--saturation-seconds") {
      opt.saturation_seconds = std::atof(next().c_str());
    } else if (arg == "--p99-budget-ms") {
      opt.p99_budget_ms = std::atof(next().c_str());
    } else if (arg == "--min-speedup") {
      opt.min_speedup = std::atof(next().c_str());
      min_speedup_set = true;
    } else if (arg == "--multiclass") {
      opt.multiclass = true;
    } else if (arg == "--queue-capacity") {
      opt.queue_capacity = static_cast<std::size_t>(std::atol(next().c_str()));
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.multiclass) {
    opt.make = make_mc_request;
    // Multiclass solves are lighter than the N=1500 multiserver corpus, so
    // per-request overhead takes a bigger slice and the batching speedup
    // floor is calibrated lower (still strictly above no-batching).
    if (!min_speedup_set) opt.min_speedup = 1.5;
  }

  try {
    // --- phase 1: stdio baseline ------------------------------------------
    std::printf("phase 1: stdio baseline (%zu cold %s requests, 1 thread)\n",
                opt.requests, opt.multiclass ? "multiclass" : "single-class");
    const PhaseResult baseline = run_stdio_baseline(opt);
    std::printf("  %zu solves in %.3f s  ->  %.1f solves/s\n",
                baseline.results, baseline.seconds, baseline.solves_per_sec);
    MTPERF_REQUIRE(baseline.results == opt.requests,
                   "stdio baseline lost responses");

    // --- spawn the socket server ------------------------------------------
    Child child = spawn({opt.server_bin, "--port", "0", "--threads", "1",
                         "--cache-capacity", "1024", "--batch-size",
                         std::to_string(opt.batch_size), "--batch-deadline-us",
                         std::to_string(opt.batch_deadline_us),
                         "--queue-capacity",
                         std::to_string(opt.queue_capacity)});
    std::string line;
    MTPERF_REQUIRE(read_pipe_line(child.stdout_fd, line),
                   "server did not announce readiness");
    const Json ready = Json::parse(line);
    const auto port = static_cast<std::uint16_t>(
        ready.at("listening").at("port").as_number());
    std::printf("phase 2: socket capacity (port %u, %zu connections, "
                "window %zu, batch %zu)\n",
                port, opt.connections, opt.window, opt.batch_size);

    // --- phase 2: closed-loop pipelined capacity --------------------------
    // Fresh cold corpus (new server process, so every variant is a miss);
    // each connection keeps `window` requests in flight.
    const std::size_t total = opt.requests;
    std::vector<Clock::time_point> send_time(total);
    std::vector<std::uint8_t> warm(total, 0);
    std::vector<std::string> corpus;
    corpus.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      corpus.push_back(opt.make(i, 2000000 + i));
    }
    std::vector<Conn> conns(opt.connections);
    for (auto& c : conns) c.sock = connect_tcp(port);
    const auto cap_start = Clock::now();
    {
      std::vector<std::thread> senders;
      for (std::size_t c = 0; c < opt.connections; ++c) {
        Conn& conn = conns[c];
        // Round-robin shard of the corpus for this connection.
        std::vector<std::size_t> mine;
        for (std::size_t i = c; i < total; i += opt.connections) {
          mine.push_back(i);
        }
        conn.reader = std::thread([&conn, mine, &send_time, &warm] {
          reader_loop(conn, mine.size(), send_time, warm);
        });
        senders.emplace_back([&conn, mine, &corpus, &send_time, window =
                              opt.window] {
          // Closed-loop pipelining without reading: the reader thread
          // drains; we just pace sends so at most `window` are unanswered.
          for (std::size_t k = 0; k < mine.size(); ++k) {
            while (k >= conn.results + conn.overloaded + conn.errors + window) {
              std::this_thread::yield();
            }
            send_time[mine[k]] = Clock::now();
            if (!conn.sock.send_all(corpus[mine[k]])) break;
          }
        });
      }
      for (auto& t : senders) t.join();
      for (auto& c : conns) c.reader.join();
    }
    PhaseResult socket_phase;
    for (auto& c : conns) {
      socket_phase.results += c.results;
      socket_phase.errors += c.errors + c.overloaded;
    }
    socket_phase.seconds = ms_between(cap_start, Clock::now()) / 1000.0;
    socket_phase.solves_per_sec =
        socket_phase.seconds > 0
            ? static_cast<double>(socket_phase.results) / socket_phase.seconds
            : 0.0;
    const double speedup =
        baseline.solves_per_sec > 0
            ? socket_phase.solves_per_sec / baseline.solves_per_sec
            : 0.0;
    std::printf("  %zu solves in %.3f s  ->  %.1f solves/s  (%.2fx stdio)\n",
                socket_phase.results, socket_phase.seconds,
                socket_phase.solves_per_sec, speedup);
    MTPERF_REQUIRE(socket_phase.results == total,
                   "socket capacity phase lost responses");

    // --- phase 3: open-loop saturation, cold at 2x capacity ---------------
    // The server answers warm hits on the connection's reader, before
    // admission, so they never reach the queue: the cold stream alone
    // must offer 2x capacity for the admitted path to be overloaded.
    const double cold_rps = 2.0 * socket_phase.solves_per_sec;
    const double offered_rps = 2.0 * cold_rps;
    const std::size_t offered_total = static_cast<std::size_t>(
        offered_rps * opt.saturation_seconds);
    std::printf("phase 3: saturation (open loop, %.0f cold req/s = 2x "
                "capacity, plus %.0f warm req/s interleaved, %.1f s)\n",
                cold_rps, offered_rps - cold_rps, opt.saturation_seconds);
    std::vector<Clock::time_point> sat_send(offered_total);
    std::vector<std::uint8_t> sat_warm(offered_total, 0);
    std::vector<std::string> sat_corpus;
    sat_corpus.reserve(offered_total);
    for (std::size_t i = 0; i < offered_total; ++i) {
      // Even ids re-request phase-2 variants (warm cache hits after the
      // first round); odd ids are brand-new fingerprints (cold solves).
      const bool is_warm = i % 2 == 0;
      sat_warm[i] = is_warm ? 1 : 0;
      const std::uint64_t variant =
          is_warm ? 2000000 + (i / 2) % total : 3000000 + i;
      sat_corpus.push_back(opt.make(i, variant));
    }
    std::vector<Conn> sat_conns(opt.connections);
    for (auto& c : sat_conns) c.sock = connect_tcp(port);
    std::vector<std::size_t> expected(opt.connections, 0);
    for (std::size_t i = 0; i < offered_total; ++i) {
      ++expected[i % opt.connections];
    }
    for (std::size_t c = 0; c < opt.connections; ++c) {
      Conn& conn = sat_conns[c];
      conn.reader = std::thread([&conn, n = expected[c], &sat_send,
                                 &sat_warm] {
        reader_loop(conn, n, sat_send, sat_warm);
      });
    }
    const auto sat_start = Clock::now();
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / offered_rps));
    for (std::size_t i = 0; i < offered_total; ++i) {
      std::this_thread::sleep_until(sat_start + interval * i);
      Conn& conn = sat_conns[i % opt.connections];
      sat_send[i] = Clock::now();
      conn.sock.send_all(sat_corpus[i]);
    }
    // Let in-flight work drain, then stop readers by closing sockets.
    std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    for (auto& c : sat_conns) c.sock.shutdown();
    for (auto& c : sat_conns) c.reader.join();

    std::size_t sat_accepted = 0, sat_rejected = 0, sat_errors = 0;
    std::vector<double> warm_ms, cold_ms;
    for (auto& c : sat_conns) {
      sat_accepted += c.results;
      sat_rejected += c.overloaded;
      sat_errors += c.errors;
      warm_ms.insert(warm_ms.end(), c.warm_latency_ms.begin(),
                     c.warm_latency_ms.end());
      cold_ms.insert(cold_ms.end(), c.cold_latency_ms.begin(),
                     c.cold_latency_ms.end());
    }
    std::sort(warm_ms.begin(), warm_ms.end());
    std::sort(cold_ms.begin(), cold_ms.end());
    const double warm_p50 = latency_pct(warm_ms, 0.50);
    const double warm_p99 = latency_pct(warm_ms, 0.99);
    const double warm_p999 = latency_pct(warm_ms, 0.999);
    std::printf("  offered %zu: accepted %zu, shed %zu, errors %zu\n",
                offered_total, sat_accepted, sat_rejected, sat_errors);
    std::printf("  warm latency ms: p50 %.2f  p99 %.2f  p99.9 %.2f  "
                "(%zu samples; budget p99 <= %.0f)\n",
                warm_p50, warm_p99, warm_p999, warm_ms.size(),
                opt.p99_budget_ms);

    // --- shutdown + final metrics -----------------------------------------
    Json final_metrics;
    {
      Socket ctl = connect_tcp(port);
      ctl.send_all("{\"cmd\":\"shutdown\"}\n");
      LineReader reader(ctl);
      reader.next_line(line);  // {"shutdown":true}
    }
    if (read_pipe_line(child.stdout_fd, line)) {
      try {
        final_metrics = Json::parse(line);
      } catch (const std::exception&) {
      }
    }
    MTPERF_REQUIRE(child.reap(), "socket server exited abnormally");

    // --- verdict + BENCH_serve.json ---------------------------------------
    const bool shed_ok = sat_rejected > 0;
    const bool p99_ok = warm_p99 <= opt.p99_budget_ms && !warm_ms.empty();
    const bool speedup_ok = speedup >= opt.min_speedup;
    std::printf("verdict: shedding %s, warm p99 %s, speedup %s "
                "(%.2fx vs %.1fx floor)\n",
                shed_ok ? "OK" : "FAIL", p99_ok ? "OK" : "FAIL",
                speedup_ok ? "OK" : "FAIL", speedup, opt.min_speedup);

    Json::Object out;
    out["benchmark"] = std::string(opt.multiclass
                                       ? "serve_pipeline_saturation_multiclass"
                                       : "serve_pipeline_saturation");
    out["workload"] =
        std::string(opt.multiclass ? "multiclass" : "single-class");
    out["hardware_threads"] = static_cast<unsigned long long>(
        std::thread::hardware_concurrency());
    Json::Object stdio_json;
    stdio_json["requests"] = static_cast<unsigned long long>(baseline.results);
    stdio_json["seconds"] = baseline.seconds;
    stdio_json["solves_per_sec"] = baseline.solves_per_sec;
    out["stdio_baseline"] = Json(std::move(stdio_json));
    Json::Object socket_json;
    socket_json["requests"] =
        static_cast<unsigned long long>(socket_phase.results);
    socket_json["seconds"] = socket_phase.seconds;
    socket_json["solves_per_sec"] = socket_phase.solves_per_sec;
    socket_json["speedup_vs_stdio"] = speedup;
    socket_json["connections"] =
        static_cast<unsigned long long>(opt.connections);
    socket_json["batch_size"] = static_cast<unsigned long long>(opt.batch_size);
    out["socket_capacity"] = Json(std::move(socket_json));
    Json::Object sat_json;
    sat_json["offered_rps"] = offered_rps;
    sat_json["cold_offered_rps"] = cold_rps;
    sat_json["offered"] = static_cast<unsigned long long>(offered_total);
    sat_json["accepted"] = static_cast<unsigned long long>(sat_accepted);
    sat_json["rejected_overloaded"] =
        static_cast<unsigned long long>(sat_rejected);
    sat_json["errors"] = static_cast<unsigned long long>(sat_errors);
    sat_json["warm_p50_ms"] = warm_p50;
    sat_json["warm_p99_ms"] = warm_p99;
    sat_json["warm_p999_ms"] = warm_p999;
    sat_json["cold_p99_ms"] = latency_pct(cold_ms, 0.99);
    sat_json["queue_capacity"] =
        static_cast<unsigned long long>(opt.queue_capacity);
    out["saturation"] = Json(std::move(sat_json));
    if (!final_metrics.is_null()) out["final_metrics"] = final_metrics;
    // The honest caveat (PR 5 precedent): on few-core machines the socket
    // speedup comes from lockstep batching, not thread-level parallelism.
    out["caveat"] = std::string(
        "speedup vs single-threaded stdio reflects lane-major micro-batching;"
        " recorded on the hardware_threads above");

    const std::string path =
        bench::out_dir() +
        (opt.multiclass ? "/BENCH_serve_multiclass.json" : "/BENCH_serve.json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    MTPERF_REQUIRE(f != nullptr, "cannot write the BENCH_serve json");
    const std::string dumped = Json(std::move(out)).dump();
    std::fwrite(dumped.data(), 1, dumped.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());

    return shed_ok && p99_ok && speedup_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen error: %s\n", e.what());
    return 1;
  }
}

#else  // non-POSIX

int main() {
  std::fprintf(stderr, "loadgen_serve requires a POSIX platform\n");
  return 1;
}

#endif
