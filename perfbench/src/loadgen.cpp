// perfbench_loadgen — the serve-path benchmark's load generator.
//
// Starts mtperf_serve on the socket transport with one fixed flag set,
// drives one workload (see workloads.hpp) for a measured window from this
// single process, checks the answers, and prints every metric by name
// with its unit.  The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the same seed is run twice — once untraced, once with
// client-side spans around Socket::send_all and LineReader::next_line —
// and the traced run's request lines are then replayed in process through
// service::parse_request, service::fingerprint, Engine::evaluate_batch,
// core::solve_batch, core::DemandGrid and service::append_evaluation to
// give the per-layer metrics.  Spans are kept in memory and written to
// --out-dir when the run ends.
//
//   perfbench_loadgen --server-bin PATH --workload NAME --seed N
//                     --seconds S --trace 0|1 --out-dir DIR [--commit SHA]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "core/demand_model.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "measure.hpp"
#include "server_process.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = mtperf::core;
using mtperf::service::Json;

// Setup repeats per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Seconds allowed for the in-flight tail after the window before the
// remaining requests count as lost.
constexpr double kDrainSeconds = 20.0;
// Correctness sample: about one request in kSampleEvery, at most kSampleCap.
constexpr std::uint64_t kSampleEvery = 50;
constexpr std::size_t kSampleCap = 120;
// The measured window is cut into this many equal sub-windows; throughput
// and CPU per request are medians over the half of them with the least
// hypervisor steal, so outside interference moves the result less.
constexpr int kSubWindows = 10;
// Wall-clock budget of the in-process replay (it stops between batches).
constexpr double kReplayBudgetSeconds = 6.0;
// Hits re-evaluated one at a time for engine.hit_us / prefix_hit_us.
constexpr std::size_t kHitProbes = 256;
// Threads this process runs while load flows: main + one per connection.
constexpr std::size_t kGeneratorThreads = 1 + kConnections;

struct Args {
  std::string server_bin;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

bool sampled(std::uint64_t seed, std::uint64_t id) {
  mtperf::SplitMix64 sm(seed ^ (id * 0x9E3779B97F4A7C15ull) ^ 0x5A5A5A5Aull);
  return sm.next() % kSampleEvery == 0;
}

// --- one measured window ---------------------------------------------------

/// What the generator observed for one request.
struct Sample {
  bool sent = false;
  std::int64_t due_ns = 0;  ///< open loop: scheduled; closed: send start
  std::int64_t send_start_ns = 0;
  std::int64_t send_end_ns = 0;
  std::int64_t read_start_ns = 0;  ///< start of the next_line that returned it
  std::int64_t recv_ns = 0;
  std::uint32_t bytes_in = 0;
  std::uint32_t bytes_out = 0;
  Outcome outcome = Outcome::kPending;
  bool hit = false;
};

struct Reception {
  std::uint64_t id;
  Outcome outcome;
};

/// One load connection and what its thread saw.
struct Conn {
  mtperf::Socket sock;
  std::vector<Reception> received;
  std::vector<std::pair<std::uint64_t, std::string>> kept;  ///< sample lines
  std::size_t unmatched = 0;
  std::atomic<bool> done{false};
};

struct Window {
  std::vector<Sample> samples;  ///< indexed by request id
  Ledger ledger;
  std::vector<std::pair<std::uint64_t, std::string>> kept;
  std::int64_t start_ns = 0;
  double seconds = 0;
  std::vector<double> cpu_at;  ///< server CPU seconds at sub-window bounds
  /// Machine-wide {steal, total} CPU ticks at the same bounds.
  std::vector<std::pair<double, double>> steal_at;
  double peak_rss_mb = 0;
  Json metrics_before;
  Json metrics_after;
  std::vector<double> lag_ms;  ///< open loop: send start - due

  std::int64_t bound_ns(int j) const {
    return start_ns +
           static_cast<std::int64_t>(seconds * 1e9 * j / kSubWindows);
  }
};

/// Read one response on `conn` and file it under its id.
bool read_one(Conn& conn, mtperf::LineReader& reader, std::string& line,
              std::vector<Sample>& samples, std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  if (!reader.next_line(line)) return false;
  const std::int64_t t1 = now_ns();
  const ResponseInfo info = classify_response(line);
  if (!info.id || *info.id >= samples.size() || !samples[*info.id].sent) {
    ++conn.unmatched;
    return true;
  }
  const std::uint64_t id = *info.id;
  conn.received.push_back({id, info.outcome});
  Sample& s = samples[id];
  if (s.outcome != Outcome::kPending) return true;  // duplicate; ledger counts
  s.read_start_ns = t0;
  s.recv_ns = t1;
  s.bytes_out = static_cast<std::uint32_t>(line.size() + 1);
  s.outcome = info.outcome;
  s.hit = info.cache_hit;
  if (info.outcome == Outcome::kOk && sampled(seed, id) &&
      conn.kept.size() < kSampleCap / kConnections) {
    conn.kept.emplace_back(id, line);
  }
  return true;
}

void send_one(Conn& conn, Sample& s, const Request& r) {
  s.bytes_in = static_cast<std::uint32_t>(r.line.size());
  s.send_start_ns = now_ns();
  if (s.due_ns == 0) s.due_ns = s.send_start_ns;
  // A failed send leaves the request unanswered: the ledger counts it lost.
  conn.sock.send_all(r.line);
  s.send_end_ns = now_ns();
}

/// Wait for every connection thread until `deadline_ns`, then cut the
/// stragglers off (their outstanding requests count as lost) and join.
void drain(std::vector<std::unique_ptr<Conn>>& conns,
           std::vector<std::thread>& threads, std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
    if (std::all_of(conns.begin(), conns.end(),
                    [](const auto& c) { return c->done.load(); })) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& c : conns) {
    if (!c->done.load()) c->sock.shutdown();
  }
  for (auto& t : threads) t.join();
}

/// Joins the connection threads on every exit path: an exception while
/// load flows (say, the server died) must not destroy joinable threads.
struct JoinGuard {
  std::vector<std::unique_ptr<Conn>>& conns;
  std::vector<std::thread>& threads;

  ~JoinGuard() {
    for (auto& t : threads) {
      if (!t.joinable()) continue;
      for (auto& c : conns) c->sock.shutdown();
      t.join();
    }
  }
};

/// Machine-wide CPU ticks from /proc/stat: {steal, total}.  Steal is time
/// the hypervisor ran something else while a vCPU wanted to run.
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0, total = 0, v = 0;
  for (int f = 1; f <= 8 && in >> v; ++f) {
    total += v;
    if (f == 8) steal = v;
  }
  return {steal, total};
}

/// Record the server's CPU time and the machine's steal at a bound.
void sample_bound(ServerProcess& server, Window& win) {
  win.cpu_at.push_back(server.cpu_seconds());
  win.steal_at.push_back(steal_ticks());
}

/// Sample every sub-window bound still ahead.
void sample_until_end(ServerProcess& server, Window& win) {
  for (int j = static_cast<int>(win.cpu_at.size()); j <= kSubWindows; ++j) {
    const std::int64_t wait = win.bound_ns(j) - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    sample_bound(server, win);
  }
}

Window run_window(ServerProcess& server, const Workload& w,
                  std::uint64_t seed, double seconds) {
  Window win;
  win.seconds = seconds;
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    conns.back()->sock = mtperf::connect_tcp(server.port());
  }
  win.metrics_before = server.control("{\"cmd\":\"metrics\"}\n");
  std::vector<std::thread> threads;
  const JoinGuard guard{conns, threads};

  if (w.open_loop) {
    const std::uint64_t n = OpenLoopClock(0, w.rate_rps, seed, seconds).size();
    std::vector<Request> requests;
    requests.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      requests.push_back(make_request(w, seed, i));
    }
    win.start_ns = now_ns() + 2'000'000;  // first arrival no earlier than 2 ms
    const OpenLoopClock clock(win.start_ns, w.rate_rps, seed, seconds);
    win.samples.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) win.samples[i].sent = true;
    for (std::size_t c = 0; c < kConnections; ++c) {
      const std::uint64_t expected =
          n / kConnections + (c < n % kConnections ? 1 : 0);
      threads.emplace_back([&, c, expected] {
        Conn& conn = *conns[c];
        mtperf::LineReader reader(conn.sock);
        std::string line;
        while (conn.received.size() < expected &&
               read_one(conn, reader, line, win.samples, seed)) {
        }
        conn.done = true;
      });
    }
    const std::int64_t to_start = win.start_ns - now_ns();
    if (to_start > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(to_start));
    }
    sample_bound(server, win);
    for (std::uint64_t i = 0; i < n; ++i) {
      Sample& s = win.samples[i];
      if (now_ns() >= win.bound_ns(static_cast<int>(win.cpu_at.size()))) {
        sample_bound(server, win);
      }
      s.due_ns = clock.due_ns(i);
      const std::int64_t wait = s.due_ns - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      send_one(*conns[i % kConnections], s, requests[i]);
      win.lag_ms.push_back(ms(s.send_start_ns - s.due_ns));
    }
    sample_until_end(server, win);
    drain(conns, threads,
          now_ns() + static_cast<std::int64_t>(kDrainSeconds * 1e9));
  } else {
    // Ids are dealt round-robin: connection c sends c, c + k, c + 2k, ...
    const std::size_t cap =
        static_cast<std::size_t>(seconds * 40000.0) + 1024;
    win.samples.resize(cap);
    win.start_ns = now_ns();
    sample_bound(server, win);
    const std::int64_t end_ns =
        win.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c, cap, end_ns] {
        Conn& conn = *conns[c];
        mtperf::LineReader reader(conn.sock);
        std::string line;
        std::uint64_t next = c;
        Request pending = make_request(w, seed, next);
        std::size_t outstanding = 0;
        const auto send_next = [&] {
          win.samples[next].sent = true;
          send_one(conn, win.samples[next], pending);
          ++outstanding;
          next += kConnections;
          if (next < cap) pending = make_request(w, seed, next);
        };
        while (outstanding < w.window && next < cap) send_next();
        while (outstanding > 0) {
          if (!read_one(conn, reader, line, win.samples, seed)) break;
          --outstanding;
          if (now_ns() < end_ns && next < cap) send_next();
        }
        conn.done = true;
      });
    }
    sample_until_end(server, win);
    drain(conns, threads,
          end_ns + static_cast<std::int64_t>(kDrainSeconds * 1e9));
  }

  win.peak_rss_mb = server.peak_rss_mb();
  win.metrics_after = server.control("{\"cmd\":\"metrics\"}\n");

  // The ledger: every sent id once, then every received line in order.
  for (std::uint64_t id = 0; id < win.samples.size(); ++id) {
    if (win.samples[id].sent) win.ledger.sent(id);
  }
  for (auto& c : conns) {
    for (const Reception& r : c->received) win.ledger.received(r.id, r.outcome);
    for (std::size_t u = 0; u < c->unmatched; ++u) win.ledger.unmatched();
    for (auto& k : c->kept) win.kept.push_back(std::move(k));
  }
  return win;
}

// --- correctness -----------------------------------------------------------

bool close_enough(double got, double want) {
  return std::fabs(got - want) <= 1e-12 * std::fabs(want);
}

/// Compare each kept response with an in-process core::solve of the same
/// request; a mismatch marks the request wrong in the ledger.
std::size_t verify(Window& win, const Workload& w, std::uint64_t seed) {
  std::size_t checked = 0;
  for (const auto& [id, line] : win.kept) {
    bool ok = false;
    try {
      const Json got = Json::parse(line);
      const auto request =
          mtperf::service::parse_request(make_request(w, seed, id).line);
      const core::ScenarioSpec& spec = request.spec;
      const core::MvaResult want =
          core::solve(spec.network, spec.demands, spec.options);
      const std::size_t top = want.levels() - 1;
      std::size_t busiest = 0;
      for (std::size_t k = 0; k < want.stations(); ++k) {
        if (want.utilization(top, k) > want.utilization(top, busiest)) {
          busiest = k;
        }
      }
      ok = got.at("id").as_number() == static_cast<double>(id) &&
           close_enough(got.at("throughput").as_number(),
                        want.throughput[top]) &&
           close_enough(got.at("response_time").as_number(),
                        want.response_time[top]) &&
           got.at("bottleneck").as_string() == want.station_names[busiest] &&
           (!request.series ||
            got.at("throughput_series").as_array().size() == want.levels());
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) win.ledger.wrong(id);
    ++checked;
  }
  return checked;
}

// --- metric assembly -------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a percentile or mean
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    list_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void add(std::string name, const std::optional<double>& value,
           std::string unit, std::size_t samples = 0) {
    if (value) add(std::move(name), *value, std::move(unit), samples);
  }
  const std::vector<Metric>& list() const { return list_; }
  std::optional<double> get(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return m.value;
    }
    return std::nullopt;
  }

 private:
  std::vector<Metric> list_;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The end-to-end metrics of one window.  Throughput and CPU per request
/// are medians over the quiet sub-windows (a completion counts in the one
/// it arrives in); client latencies are timed from the due time (open
/// loop) or the send (closed loop) over the whole window.
Metrics end_to_end(const Window& win, double setup_s) {
  struct Sub {
    std::size_t completed = 0;
    std::int64_t first_ns = 0, last_ns = 0;  ///< first and last completion
  };
  std::vector<Sub> subs(kSubWindows);
  std::vector<double> all, hit, miss;
  for (const Sample& s : win.samples) {
    if (!s.sent || s.outcome != Outcome::kOk) continue;
    const double lat = ms(s.recv_ns - s.due_ns);
    all.push_back(lat);
    (s.hit ? hit : miss).push_back(lat);
    const double f =
        static_cast<double>(s.recv_ns - win.start_ns) / (win.seconds * 1e9);
    if (f < 0 || f >= 1) continue;
    Sub& sub = subs[static_cast<int>(f * kSubWindows)];
    sub.first_ns = sub.completed++ == 0 ? s.recv_ns
                                        : std::min(sub.first_ns, s.recv_ns);
    sub.last_ns = std::max(sub.last_ns, s.recv_ns);
  }
  // The half of the sub-windows in which the hypervisor stole the least
  // CPU time from this machine: the benchmark's figures should follow the
  // program, not the neighbours.
  std::vector<int> quiet(kSubWindows);
  std::iota(quiet.begin(), quiet.end(), 0);
  const auto stolen = [&](int j) {
    return ratio(win.steal_at[j + 1].first - win.steal_at[j].first,
                 win.steal_at[j + 1].second - win.steal_at[j].second);
  };
  std::stable_sort(quiet.begin(), quiet.end(),
                   [&](int a, int b) { return stolen(a) < stolen(b); });
  quiet.resize(kSubWindows / 2);
  // Median over the quiet sub-windows; omitted when one has no value.
  const auto median_over = [&](auto per_sub) -> std::optional<double> {
    std::vector<double> v;
    for (const int j : quiet) {
      const std::optional<double> x = per_sub(subs[j], j);
      if (!x) return std::nullopt;
      v.push_back(*x);
    }
    return median_of(v);
  };
  Metrics m;
  // Completions per second between a sub-window's first and last one.
  m.add("throughput_rps",
        median_over([](const Sub& sub, int) -> std::optional<double> {
          if (sub.completed < 2 || sub.last_ns <= sub.first_ns) {
            return std::nullopt;
          }
          return static_cast<double>(sub.completed - 1) * 1e9 /
                 static_cast<double>(sub.last_ns - sub.first_ns);
        }),
        "1/s", all.size());
  m.add("server_cpu_ms_per_req",
        median_over([&](const Sub& sub, int j) -> std::optional<double> {
          if (sub.completed == 0) return std::nullopt;
          return (win.cpu_at[j + 1] - win.cpu_at[j]) * 1e3 /
                 static_cast<double>(sub.completed);
        }),
        "ms", all.size());
  m.add("server_peak_rss_mb", win.peak_rss_mb, "MiB");
  m.add("setup_s", setup_s, "s", kSetupRepeats);
  m.add("failed_share", win.ledger.failed_share(), "share",
        win.ledger.attempted());
  m.add("host.steal_share",
        ratio(win.steal_at.back().first - win.steal_at.front().first,
              win.steal_at.back().second - win.steal_at.front().second),
        "share");
  // Latencies where the sample supports them (no samples: omitted).
  m.add("client.latency_p50_ms", percentile_if_supported(all, 50), "ms",
        all.size());
  m.add("client.latency_p99_ms", percentile_if_supported(all, 99), "ms",
        all.size());
  m.add("client.latency_p99.9_ms", percentile_if_supported(all, 99.9), "ms",
        all.size());
  m.add("client.hit_latency_p50_ms", percentile_if_supported(hit, 50), "ms",
        hit.size());
  m.add("client.hit_latency_p99_ms", percentile_if_supported(hit, 99), "ms",
        hit.size());
  m.add("client.miss_latency_p50_ms", percentile_if_supported(miss, 50), "ms",
        miss.size());
  m.add("client.miss_latency_p99_ms", percentile_if_supported(miss, 99), "ms",
        miss.size());
  m.add("loadgen.lag_p99_ms", percentile_if_supported(win.lag_ms, 99), "ms",
        win.lag_ms.size());
  return m;
}

// --- setup -----------------------------------------------------------------

/// Spawn the server and pay the workload's warm-up prefill; returns the
/// elapsed seconds.
std::unique_ptr<ServerProcess> set_up(const Args& args, const Workload& w,
                                      const ServerFlags& flags,
                                      double* seconds) {
  const std::int64_t t0 = now_ns();
  auto server = std::make_unique<ServerProcess>(flags.argv(args.server_bin));
  std::vector<std::string> lines;
  for (Request& r : prefill(w, args.seed)) lines.push_back(std::move(r.line));
  const std::size_t failed = server->roundtrip(lines, flags.batch_size);
  MTPERF_REQUIRE(failed == 0, "perfbench: prefill requests failed");
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return server;
}

// --- server counter deltas -------------------------------------------------

double counter(const Json& metrics, const char* section, const char* key) {
  return metrics.at(section).at(key).as_number();
}

struct Counters {
  double requests, hits, prefix_hits, coalesced, misses, evictions;
  double blocks, lanes, fallbacks;
  double accepted, batches, by_deadline, queue_peak, rejected;
};

Counters deltas(const Json& before, const Json& after) {
  const auto d = [&](const char* section, const char* key) {
    return counter(after, section, key) - counter(before, section, key);
  };
  const auto b = [&](const char* key) {
    return after.at("metrics").at("batch").at(key).as_number() -
           before.at("metrics").at("batch").at(key).as_number();
  };
  Counters c{};
  c.requests = d("metrics", "requests");
  c.hits = d("metrics", "cache_hits");
  c.prefix_hits = d("metrics", "prefix_hits");
  c.coalesced = d("metrics", "coalesced");
  c.misses = d("metrics", "misses");
  c.evictions = d("metrics", "evictions");
  c.blocks = b("blocks");
  c.lanes = b("lanes");
  c.fallbacks = b("scalar_fallbacks");
  c.accepted = d("server", "accepted");
  c.batches = d("server", "batches");
  c.by_deadline = d("server", "flush_by_deadline");
  c.queue_peak = counter(after, "server", "queue_peak");
  c.rejected = d("server", "rejected_overloaded") +
               d("server", "rejected_inflight");
  return c;
}


// --- in-process replay -----------------------------------------------------

/// A loopback connection pair for timing one response's transfer through
/// Socket::send_all and LineReader::next_line.
struct Loopback {
  mtperf::ListenSocket listener = mtperf::ListenSocket::listen_tcp(0);
  mtperf::Socket tx = mtperf::connect_tcp(listener.port());
  mtperf::Socket rx = listener.accept_conn();
  mtperf::LineReader reader{rx};

  Loopback() {
    // Large enough that a whole series response fits in flight, so one
    // thread can write it and then read it back.
    const int bytes = 8 << 20;
    ::setsockopt(tx.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
    ::setsockopt(rx.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
  }
};

struct Replay {
  Tracer tracer;
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::vector<double> parse_us, workmodel_parse_us, fingerprint_us,
      serialize_us, serialize_bytes, transfer_us, hit_us, prefix_hit_us,
      tabulate_ms;
  double eval_ms_per_request = 0;   ///< mean of the request's batch wall
  double fingerprint_ms_per_request = 0;
  double solve_ms_per_request = 0;  ///< single + multiclass solve_batch
  double tabulate_ms_per_request = 0;
  double parse_ms_per_request = 0;      ///< the request's own parse
  double serialize_ms_per_request = 0;  ///< the batch's serialize, summed
  double transfer_ms_per_request = 0;   ///< the batch's transfer, summed
  // Work of requests in hits-only batches, summed.
  double hit_requests = 0, hit_parse_ms = 0, hit_fingerprint_ms = 0,
         hit_engine_ms = 0, hit_serialize_ms = 0, hit_transfer_ms = 0;
  double overhead_ms_total = 0;     ///< eval - solve_batch, summed
  double kernel_ms = 0, kernel_lanes = 0;
  double mc_kernel_ms = 0, mc_kernel_lanes = 0;
};

Replay replay(const Args& args, const Workload& w, const ServerFlags& flags,
              const Window& win, std::size_t batch_size) {
  namespace svc = mtperf::service;
  Replay rp;
  Tracer& tr = rp.tracer;
  svc::EngineOptions options;
  options.cache_capacity = flags.cache_capacity;
  options.threads = flags.threads;
  svc::Engine engine(options);

  // Pre-warm like the server: the same prefill, in the same chunks.
  {
    std::vector<core::ScenarioSpec> specs;
    for (const Request& r : prefill(w, args.seed)) {
      specs.push_back(svc::parse_request(r.line).spec);
      if (specs.size() == flags.batch_size) {
        engine.evaluate_batch(specs);
        specs.clear();
      }
    }
    if (!specs.empty()) engine.evaluate_batch(specs);
  }

  // The traced window's requests in the order they were sent.
  std::vector<std::uint64_t> order;
  for (std::uint64_t id = 0; id < win.samples.size(); ++id) {
    if (win.samples[id].sent) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return win.samples[a].send_start_ns < win.samples[b].send_start_ns;
  });

  Loopback loop;
  std::vector<core::ScenarioSpec> hit_probes, prefix_probes;
  const std::int64_t budget_end =
      now_ns() + static_cast<std::int64_t>(kReplayBudgetSeconds * 1e9);
  std::string out, echoed;
  for (std::size_t at = 0; at < order.size() && now_ns() < budget_end;
       at += batch_size) {
    const std::size_t end = std::min(order.size(), at + batch_size);
    const std::int64_t batch = tr.begin("replay.batch");
    std::vector<svc::ParsedRequest> parsed;
    std::vector<core::ScenarioSpec> specs;
    double batch_parse_ms = 0;
    for (std::size_t i = at; i < end; ++i) {
      const Request r = make_request(w, args.seed, order[i]);
      const std::int64_t s = tr.begin("request.parse_request", batch, r.id);
      parsed.push_back(svc::parse_request(r.line));
      tr.end(s);
      const double t = us(tr.spans()[s].duration_ns());
      batch_parse_ms += t / 1e3;
      (r.kind == RequestKind::kWorkmodel ? rp.workmodel_parse_us : rp.parse_us)
          .push_back(t);
      specs.push_back(parsed.back().spec);
    }
    double fp_ms = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::int64_t s =
          tr.begin("fingerprint.fingerprint", batch, order[at + i]);
      const svc::Fingerprint fp = svc::fingerprint(specs[i]);
      tr.end(s);
      (void)fp;
      rp.fingerprint_us.push_back(us(tr.spans()[s].duration_ns()));
      fp_ms += ms(tr.spans()[s].duration_ns());
    }
    double ser_ms = 0, xfer_ms = 0;
    const std::int64_t es = tr.begin("engine.evaluate_batch", batch);
    const std::vector<svc::Evaluation> evals = engine.evaluate_batch(specs);
    tr.end(es);
    const double eval_ms = ms(tr.spans()[es].duration_ns());
    for (std::size_t i = 0; i < evals.size(); ++i) {
      const std::uint64_t id = order[at + i];
      out.clear();
      const std::int64_t s = tr.begin("request.append_evaluation", batch, id);
      svc::append_evaluation(out, evals[i], parsed[i].series, parsed[i].id);
      tr.end(s);
      rp.serialize_us.push_back(us(tr.spans()[s].duration_ns()));
      ser_ms += ms(tr.spans()[s].duration_ns());
      rp.serialize_bytes.push_back(static_cast<double>(out.size()));
      const std::int64_t x = tr.begin("socket.transfer", batch, id);
      MTPERF_REQUIRE(loop.tx.send_all(out) && loop.reader.next_line(echoed),
                     "perfbench: loopback transfer failed");
      tr.end(x);
      rp.transfer_us.push_back(us(tr.spans()[x].duration_ns()));
      xfer_ms += ms(tr.spans()[x].duration_ns());
      if (evals[i].cache_hit && !evals[i].coalesced) {
        auto& probes = evals[i].prefix_hit ? prefix_probes : hit_probes;
        if (probes.size() < kHitProbes) probes.push_back(specs[i]);
      }
    }
    tr.end(batch);

    // The batch's misses alone through the lane-major kernels, split by
    // kernel family, and the demand tabulation they need.
    std::vector<core::ScenarioSpec> single, multi;
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (evals[i].cache_hit) continue;
      (specs[i].options.classes.empty() ? single : multi).push_back(specs[i]);
    }
    double solve_ms = 0, tab_ms = 0;
    for (const core::ScenarioSpec& spec : single) {
      if (spec.demands.is_constant()) continue;
      const std::int64_t s = tr.begin("interp.DemandGrid");
      const core::DemandGrid grid(spec.demands, spec.options.max_population);
      tr.end(s);
      (void)grid;
      rp.tabulate_ms.push_back(ms(tr.spans()[s].duration_ns()));
      tab_ms += rp.tabulate_ms.back();
    }
    // One solve_batch over all of the batch's misses, as evaluate_batch
    // runs them; a batch mixing kernel families is solved once more per
    // family to split the per-lane cost.
    std::vector<core::ScenarioSpec> misses = single;
    misses.insert(misses.end(), multi.begin(), multi.end());
    if (!misses.empty()) {
      const std::int64_t s = tr.begin("core.solve_batch");
      core::solve_batch(misses, &engine.pool());
      tr.end(s);
      solve_ms = ms(tr.spans()[s].duration_ns());
    }
    const auto family = [&](const std::vector<core::ScenarioSpec>& specs_of,
                            const char* name) -> double {
      if (specs_of.empty()) return 0.0;
      if (specs_of.size() == misses.size()) return solve_ms;
      const std::int64_t s = tr.begin(name);
      core::solve_batch(specs_of, &engine.pool());
      tr.end(s);
      return ms(tr.spans()[s].duration_ns());
    };
    rp.kernel_ms += family(single, "core.solve_batch.single") - tab_ms;
    rp.kernel_lanes += static_cast<double>(single.size());
    rp.mc_kernel_ms += family(multi, "core.solve_batch.multiclass");
    rp.mc_kernel_lanes += static_cast<double>(multi.size());
    const double n = static_cast<double>(specs.size());
    rp.requests += specs.size();
    ++rp.batches;
    rp.overhead_ms_total += eval_ms - solve_ms;
    // Every request of a batch waits for the whole evaluate_batch.
    rp.eval_ms_per_request += n * eval_ms;
    rp.fingerprint_ms_per_request += n * fp_ms;
    rp.solve_ms_per_request += n * solve_ms;
    rp.tabulate_ms_per_request += n * tab_ms;
    rp.parse_ms_per_request += batch_parse_ms;
    rp.serialize_ms_per_request += n * ser_ms;
    rp.transfer_ms_per_request += n * xfer_ms;
    if (misses.empty()) {
      // A hits-only batch: the work a served hit costs, layer by layer.
      rp.hit_requests += n;
      rp.hit_parse_ms += batch_parse_ms;
      rp.hit_fingerprint_ms += fp_ms;
      rp.hit_engine_ms += std::max(0.0, eval_ms - fp_ms);
      rp.hit_serialize_ms += ser_ms;
      rp.hit_transfer_ms += xfer_ms;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(rp.requests, 1));
  rp.eval_ms_per_request /= n;
  rp.fingerprint_ms_per_request /= n;
  rp.solve_ms_per_request /= n;
  rp.tabulate_ms_per_request /= n;
  rp.parse_ms_per_request /= n;
  rp.serialize_ms_per_request /= n;
  rp.transfer_ms_per_request /= n;

  // Hit costs: re-evaluate replayed hits one at a time on the warm engine,
  // keeping only probes that were served the same way again.
  for (const auto& [probes, sink, prefix] :
       {std::tuple{&hit_probes, &rp.hit_us, false},
        std::tuple{&prefix_probes, &rp.prefix_hit_us, true}}) {
    for (const core::ScenarioSpec& spec : *probes) {
      const std::int64_t s =
          tr.begin(prefix ? "engine.prefix_hit" : "engine.hit");
      const auto e = engine.evaluate_batch({spec});
      tr.end(s);
      if (e[0].cache_hit && e[0].prefix_hit == prefix) {
        sink->push_back(us(tr.spans()[s].duration_ns()));
      }
    }
  }
  return rp;
}

/// Per-layer metrics of a traced run.
Metrics per_layer(const Window& traced,
                  const Metrics& e2e_traced, const Metrics& e2e_plain,
                  const Replay& rp, std::vector<Span>* client_spans) {
  Metrics m;
  const Counters c = deltas(traced.metrics_before, traced.metrics_after);

  // Client-side spans: one request span per id with its send_all and
  // next_line calls as children; the request's self time is the time it
  // spent outside this process's own calls.
  std::vector<double> send_us, bytes_in, bytes_out, outside_ms;
  for (std::uint64_t id = 0; id < traced.samples.size(); ++id) {
    const Sample& s = traced.samples[id];
    if (!s.sent || s.outcome != Outcome::kOk) continue;
    const auto root = static_cast<std::int64_t>(client_spans->size());
    client_spans->push_back(
        {"loadgen.request", s.due_ns, s.recv_ns, kNoParent, id});
    client_spans->push_back(
        {"socket.send_all", s.send_start_ns, s.send_end_ns, root, id});
    client_spans->push_back(
        {"socket.next_line", s.read_start_ns, s.recv_ns, root, id});
    send_us.push_back(us(s.send_end_ns - s.send_start_ns));
    bytes_in.push_back(s.bytes_in);
    bytes_out.push_back(s.bytes_out);
  }
  const std::vector<std::int64_t> self = self_times_ns(*client_spans);
  for (std::size_t i = 0; i < client_spans->size(); ++i) {
    if ((*client_spans)[i].parent == kNoParent) {
      outside_ms.push_back(ms(self[i]));
    }
  }

  // Client-observed latency of the untraced window (unbounded: see kEndToEnd).
  for (const char* name : {"client.latency_p50_ms", "client.latency_p99_ms",
                           "client.miss_latency_p50_ms"}) {
    m.add(name, e2e_plain.get(name), "ms");
  }
  const double req = std::max(c.requests, 1.0);
  m.add("request.parse_us", mean(rp.parse_us), "us", rp.parse_us.size());
  m.add("request.workmodel_parse_us", mean(rp.workmodel_parse_us), "us",
        rp.workmodel_parse_us.size());
  m.add("fingerprint.us", mean(rp.fingerprint_us), "us",
        rp.fingerprint_us.size());
  m.add("engine.hit_us", mean(rp.hit_us), "us", rp.hit_us.size());
  m.add("engine.prefix_hit_us", mean(rp.prefix_hit_us), "us",
        rp.prefix_hit_us.size());
  m.add("engine.hit_ratio", ratio(c.hits, req), "share",
        static_cast<std::size_t>(c.requests));
  m.add("engine.prefix_hit_ratio", ratio(c.prefix_hits, req), "share");
  m.add("engine.coalesced_ratio", ratio(c.coalesced, req), "share");
  m.add("engine.evictions_per_kreq", 1000.0 * ratio(c.evictions, req),
        "count/kreq");
  if (rp.batches > 0) {
    m.add("engine.batch_overhead_ms",
          rp.overhead_ms_total / static_cast<double>(rp.batches), "ms",
          rp.batches);
  }
  m.add("server.batch_size_mean", ratio(c.accepted, c.batches), "count",
        static_cast<std::size_t>(c.batches));
  m.add("server.flush_by_deadline_share", ratio(c.by_deadline, c.batches),
        "share");
  m.add("server.queue_peak", c.queue_peak, "count");
  m.add("server.rejected", c.rejected, "count");

  // Derived: the part of a request's server-side time the replay cannot
  // account for as work along the steps that block its response — queue
  // and batch-deadline waits.  The server writes a flush's responses only
  // after evaluating and serializing the whole batch, so every request
  // waits for its batch's evaluate_batch, serialize and transfer.
  const double outside = mean(outside_ms).value_or(0.0);
  const double serialize_ms = rp.serialize_ms_per_request;
  const double transfer_ms = rp.transfer_ms_per_request;
  const double parse_ms = rp.parse_ms_per_request;
  const double queue_ms = outside - (parse_ms + rp.eval_ms_per_request +
                                     serialize_ms + transfer_ms);
  m.add("server.queue_wait_ms", queue_ms, "ms", outside_ms.size());

  if (rp.kernel_lanes > 0) {
    m.add("kernel.ms_per_lane", rp.kernel_ms / rp.kernel_lanes, "ms",
          static_cast<std::size_t>(rp.kernel_lanes));
  }
  if (rp.mc_kernel_lanes > 0) {
    m.add("kernel.mc_ms_per_lane", rp.mc_kernel_ms / rp.mc_kernel_lanes, "ms",
          static_cast<std::size_t>(rp.mc_kernel_lanes));
  }
  m.add("kernel.lanes_per_block", ratio(c.lanes, c.blocks), "count",
        static_cast<std::size_t>(c.blocks));
  m.add("kernel.scalar_fallbacks", c.fallbacks, "count");
  m.add("interp.tabulate_ms_per_spec", mean(rp.tabulate_ms), "ms",
        rp.tabulate_ms.size());
  m.add("serialize.us_per_resp", mean(rp.serialize_us), "us",
        rp.serialize_us.size());
  m.add("serialize.bytes_per_resp", mean(rp.serialize_bytes), "bytes",
        rp.serialize_bytes.size());
  m.add("socket.send_us", mean(send_us), "us", send_us.size());
  m.add("socket.transfer_us", mean(rp.transfer_us), "us",
        rp.transfer_us.size());
  m.add("socket.bytes_in_per_req", mean(bytes_in), "bytes", bytes_in.size());
  m.add("socket.bytes_out_per_resp", mean(bytes_out), "bytes",
        bytes_out.size());
  m.add("loadgen.lag_p99_ms", e2e_traced.get("loadgen.lag_p99_ms"), "ms");
  m.add("loadgen.threads", static_cast<double>(kGeneratorThreads), "count");
  m.add("loadgen.connections", static_cast<double>(kConnections + 1), "count");

  // Each layer's share of a served request's time, along the steps that
  // block its response: its own send and parse, its batch's evaluate_batch
  // (fingerprint, engine, interp, kernel), serialize and transfer, and the
  // derived wait.
  const double fp = rp.fingerprint_ms_per_request;
  const double interp = rp.tabulate_ms_per_request;
  const double kernel = std::max(0.0, rp.solve_ms_per_request - interp);
  const double engine =
      std::max(0.0, rp.eval_ms_per_request - fp - rp.solve_ms_per_request);
  const double socket = mean(send_us).value_or(0.0) / 1e3 + transfer_ms;
  const std::pair<const char*, double> layers[] = {
      {"share.socket", socket},       {"share.request", parse_ms},
      {"share.fingerprint", fp},      {"share.engine", engine},
      {"share.kernel", kernel},       {"share.interp", interp},
      {"share.serialize", serialize_ms},
      {"share.queue", std::max(0.0, queue_ms)}};
  double total = 0;
  for (const auto& [name, v] : layers) total += v;
  for (const auto& [name, v] : layers) m.add(name, ratio(v, total), "share");

  // The same split for hits alone (hits-only batches, work only): what a
  // served hit costs in each layer.
  if (rp.hit_requests > 0) {
    const double hit_socket =
        mean(send_us).value_or(0.0) / 1e3 * rp.hit_requests +
        rp.hit_transfer_ms;
    const std::pair<const char*, double> hit_layers[] = {
        {"hit_share.socket", hit_socket},
        {"hit_share.request", rp.hit_parse_ms},
        {"hit_share.fingerprint", rp.hit_fingerprint_ms},
        {"hit_share.engine", rp.hit_engine_ms},
        {"hit_share.serialize", rp.hit_serialize_ms}};
    double hit_total = 0;
    for (const auto& [name, v] : hit_layers) hit_total += v;
    for (const auto& [name, v] : hit_layers) {
      m.add(name, ratio(v, hit_total), "share");
    }
  }

  // Tracing overhead: traced minus untraced end-to-end numbers.
  const std::pair<const char*, const char*> overheads[] = {
      {"client.latency_p50_ms", "trace.overhead.latency_p50_ms"},
      {"throughput_rps", "trace.overhead.throughput_rps"},
      {"server_cpu_ms_per_req", "trace.overhead.server_cpu_ms_per_req"}};
  for (const auto& [name, overhead] : overheads) {
    const auto t = e2e_traced.get(name);
    const auto p = e2e_plain.get(name);
    if (t && p) {
      m.add(overhead, *t - *p,
            std::string(name) == "throughput_rps" ? "1/s" : "ms");
    }
  }
  return m;
}

// --- output ----------------------------------------------------------------

void print_metrics(const char* heading, const Metrics& m) {
  std::printf("%s\n", heading);
  for (const Metric& x : m.list()) {
    if (x.samples > 0) {
      std::printf("  %-34s %14.6f %-10s (n=%zu)\n", x.name.c_str(), x.value,
                  x.unit.c_str(), x.samples);
    } else {
      std::printf("  %-34s %14.6f %s\n", x.name.c_str(), x.value,
                  x.unit.c_str());
    }
  }
}

Json run_record(const Args& args, const Workload& w, const ServerFlags& flags) {
  Json::Object rec;
  rec["seed"] = static_cast<unsigned long long>(args.seed);
  rec["workload"] = std::string(w.name);
  rec["git_commit"] = args.commit;
  rec["compiler"] = std::string(PERFBENCH_COMPILER);
  rec["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  rec["nproc"] =
      static_cast<unsigned long long>(::sysconf(_SC_NPROCESSORS_ONLN));
  Json::Object sf;
  sf["threads"] = static_cast<unsigned long long>(flags.threads);
  sf["batch_size"] = static_cast<unsigned long long>(flags.batch_size);
  sf["batch_deadline_us"] = static_cast<long long>(flags.batch_deadline_us);
  sf["queue_capacity"] = static_cast<unsigned long long>(flags.queue_capacity);
  sf["cache_capacity"] = static_cast<unsigned long long>(flags.cache_capacity);
  rec["server_flags"] = Json(std::move(sf));
  rec["generator_threads"] = static_cast<unsigned long long>(kGeneratorThreads);
  rec["generator_connections"] =
      static_cast<unsigned long long>(kConnections + 1);
  rec["loop"] = std::string(w.open_loop ? "open" : "closed");
  if (w.open_loop) {
    rec["rate_rps"] = w.rate_rps;
  } else {
    rec["window_per_connection"] = static_cast<unsigned long long>(w.window);
  }
  rec["working_set"] = static_cast<unsigned long long>(w.working_set);
  rec["mix"] = std::string(w.mix);
  rec["loads"] = std::string(w.loads);
  rec["bypasses"] = std::string(w.bypasses);
  rec["why"] = std::string(w.why);
  rec["seconds"] = args.seconds;
  return Json(std::move(rec));
}

Json metrics_json(const Metrics& m) {
  Json::Object o;
  for (const Metric& x : m.list()) {
    Json::Object v;
    v["value"] = x.value;
    v["unit"] = x.unit;
    if (x.samples > 0) {
      v["samples"] = static_cast<unsigned long long>(x.samples);
    }
    o[x.name] = Json(std::move(v));
  }
  return Json(std::move(o));
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  MTPERF_REQUIRE(out.good(), "perfbench: cannot write " + path);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::string text;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[96];
    text += "{\"name\":\"" + s.name + "\"";
    std::snprintf(buf, sizeof buf,
                  ",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                  "\"request\":%llu,\"self_ns\":%lld}\n",
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(self[i]));
    text += buf;
  }
  write_file(path, text);
}

/// The last stdout line: the `keys` metrics of `m` with the outcome counts.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m, const std::vector<std::string>& keys) {
  Json::Object metrics;
  for (const std::string& key : keys) {
    Json::Object v;
    v["value"] = *m.get(key);
    for (const Metric& x : m.list()) {
      if (x.name == key) v["unit"] = x.unit;
    }
    metrics[key] = Json(std::move(v));
  }
  Json::Object out;
  out["correct"] = correct;
  out["attempted"] = static_cast<unsigned long long>(attempted);
  out["failed"] = static_cast<unsigned long long>(failed);
  out["metrics"] = Json(std::move(metrics));
  std::printf("%s\n", Json(std::move(out)).dump().c_str());
}

// The metric names the result line carries (BENCHMARK.json lists them).
// Client latencies are not among the bounded end-to-end metrics: on a
// shared virtual machine they follow the host's scheduling of idle vCPUs
// (see perfbench/README.md), so they are reported per run and in the
// traced run's per-layer set instead.
const std::vector<std::string> kEndToEnd = {
    "throughput_rps", "server_cpu_ms_per_req", "server_peak_rss_mb",
    "setup_s"};
const std::vector<std::string> kPerLayer = {
    "client.latency_p50_ms",
    "client.latency_p99_ms",
    "client.miss_latency_p50_ms",
    "request.parse_us",
    "fingerprint.us",
    "engine.hit_ratio",
    "engine.prefix_hit_ratio",
    "engine.coalesced_ratio",
    "engine.evictions_per_kreq",
    "engine.batch_overhead_ms",
    "server.batch_size_mean",
    "server.flush_by_deadline_share",
    "server.queue_peak",
    "server.rejected",
    "server.queue_wait_ms",
    "kernel.ms_per_lane",
    "kernel.lanes_per_block",
    "kernel.scalar_fallbacks",
    "interp.tabulate_ms_per_spec",
    "serialize.us_per_resp",
    "serialize.bytes_per_resp",
    "socket.send_us",
    "socket.transfer_us",
    "socket.bytes_in_per_req",
    "socket.bytes_out_per_resp",
    "loadgen.threads",
    "loadgen.connections",
    "share.socket",
    "share.request",
    "share.fingerprint",
    "share.engine",
    "share.kernel",
    "share.interp",
    "share.serialize",
    "share.queue",
    "trace.overhead.latency_p50_ms",
    "trace.overhead.throughput_rps",
    "trace.overhead.server_cpu_ms_per_req"};

/// Every name in `keys` must have been measured; a missing one means the
/// run could not support it (too few samples) and the run is void.
void require_all(const Metrics& m, const std::vector<std::string>& keys) {
  for (const std::string& k : keys) {
    MTPERF_REQUIRE(m.get(k).has_value(),
                   "perfbench: metric " + k + " has too few samples");
  }
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  MTPERF_REQUIRE(w != nullptr, "perfbench: unknown workload " + args.workload);
  const ServerFlags flags;
  const Json record = run_record(args, *w, flags);
  std::printf("run record: %s\n", record.dump().c_str());
  const std::string stem = args.out_dir + "/" + std::string(w->name) +
                           "_seed" + std::to_string(args.seed) + "_trace" +
                           std::to_string(args.trace);

  // Untraced: kSetupRepeats set-ups (setup_s is their median), the last
  // server serves the window.
  const int repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < repeats; ++r) {
    if (server) MTPERF_REQUIRE(server->shutdown(), "perfbench: server exit");
    double s = 0;
    server = set_up(args, *w, flags, &s);
    setups.push_back(s);
  }
  // A traced run measures two windows, untraced and traced, of half the
  // run length each, so it takes about as long as an untraced run.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  Window plain = run_window(*server, *w, args.seed, window_s);
  MTPERF_REQUIRE(server->shutdown(), "perfbench: server exited abnormally");
  const std::size_t checked = verify(plain, *w, args.seed);
  const Metrics e2e = end_to_end(plain, median_of(setups));
  print_metrics("end-to-end (untraced):", e2e);
  std::printf("  correctness sample: %zu responses checked, %llu wrong\n",
              checked,
              static_cast<unsigned long long>(plain.ledger.wrong_answers()));

  Json::Object report;
  report["record"] = record;
  report["end_to_end"] = metrics_json(e2e);
  // Correct: a non-empty sample checked and no wrong, duplicated or
  // unmatched answer.  Errors, shedding and losses count in `failed`.
  const auto clean = [](const Window& win, std::size_t checked_n) {
    return checked_n > 0 && win.ledger.wrong_answers() == 0 &&
           win.ledger.duplicates() == 0 && win.ledger.unmatched_lines() == 0;
  };
  bool correct = clean(plain, checked);
  std::uint64_t attempted = plain.ledger.attempted();
  std::uint64_t failed = plain.ledger.failed();

  if (!args.trace) {
    write_file(stem + ".json", Json(std::move(report)).dump() + "\n");
    require_all(e2e, kEndToEnd);
    print_result(correct, attempted, failed, e2e, kEndToEnd);
    return 0;
  }

  // Traced: a fresh server, the same seed, spans on the client side.
  double setup_traced = 0;
  server = set_up(args, *w, flags, &setup_traced);
  Window traced = run_window(*server, *w, args.seed, window_s);
  MTPERF_REQUIRE(server->shutdown(), "perfbench: server exited abnormally");
  server.reset();
  const std::size_t checked_traced = verify(traced, *w, args.seed);
  const Metrics e2e_traced = end_to_end(traced, setup_traced);
  print_metrics("end-to-end (traced):", e2e_traced);
  correct = correct && clean(traced, checked_traced);
  attempted += traced.ledger.attempted();
  failed += traced.ledger.failed();

  const Counters c = deltas(traced.metrics_before, traced.metrics_after);
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(ratio(c.accepted, c.batches))));
  const Replay rp = replay(args, *w, flags, traced, batch);
  std::vector<Span> spans;
  const Metrics layers = per_layer(traced, e2e_traced, e2e, rp, &spans);
  print_metrics("per-layer (traced run + in-process replay):", layers);
  std::printf("  replayed %zu requests in %zu batches of %zu\n", rp.requests,
              rp.batches, batch);

  // Append the replay spans after the client spans, re-basing parents.
  const auto base = static_cast<std::int64_t>(spans.size());
  for (Span s : rp.tracer.spans()) {
    if (s.parent != kNoParent) s.parent += base;
    spans.push_back(std::move(s));
  }
  write_spans(stem + ".spans.jsonl", spans);
  report["end_to_end_traced"] = metrics_json(e2e_traced);
  report["per_layer"] = metrics_json(layers);
  write_file(stem + ".json", Json(std::move(report)).dump() + "\n");
  require_all(layers, kPerLayer);
  print_result(correct, attempted, failed, layers, kPerLayer);
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    MTPERF_REQUIRE(i + 1 < argc, "perfbench: " + arg + " expects a value");
    const std::string v = argv[++i];
    if (arg == "--server-bin") a.server_bin = v;
    else if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = std::stoi(v);
    else if (arg == "--out-dir") a.out_dir = v;
    else if (arg == "--commit") a.commit = v;
    else throw mtperf::Error("perfbench: unknown option " + arg);
  }
  MTPERF_REQUIRE(!a.server_bin.empty(), "perfbench: --server-bin is required");
  MTPERF_REQUIRE(a.seconds > 0, "perfbench: --seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  mtperf::ignore_sigpipe();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
