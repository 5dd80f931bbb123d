// The three traffic mixes the benchmark drives through mtperf_serve, and
// the one server flag set every workload runs against.
//
// Every request line is a pure function of (workload, seed, id): the same
// seed gives the same inputs, and the server receives nothing but these
// lines.  Network shapes follow bench/loadgen_serve's 12-station VINS-like
// fleet (three 128-server CPU tiers) and examples/workmodel_mesh.jsonl; the
// line-building code is copied here so that bench/ stays as it is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The fixed server flag set (mtperf_serve --port 0 ...).
struct ServerFlags {
  std::size_t threads = 2;          ///< engine pool threads
  std::size_t batch_size = 32;      ///< micro-batch flush size
  long batch_deadline_us = 1000;    ///< micro-batch flush deadline
  std::size_t queue_capacity = 512; ///< bounded submission queue
  std::size_t cache_capacity = 256; ///< engine LRU entries

  std::vector<std::string> argv(const std::string& server_bin) const;
};

enum class RequestKind : std::uint8_t {
  kFleet,       ///< flat 12-station single-class mvasd request
  kWorkmodel,   ///< {"cmd":"workmodel"} service graph
  kMulticlass,  ///< three-class schweitzer-multiclass request
};

struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kFleet;
  std::string line;    ///< '\n'-terminated wire line
};

enum class WorkloadId { kWarmInteractive, kColdSweep, kSeriesChurn };

struct Workload {
  WorkloadId id;
  std::string_view name;
  bool open_loop;
  double rate_rps;       ///< open loop: fixed absolute offered rate
  std::size_t window;    ///< closed loop: requests in flight per connection
  std::size_t working_set;  ///< distinct reused structures (0: none reused)
  std::string_view mix;     ///< request shares
  std::string_view loads;   ///< layers the workload is meant to load
  std::string_view bypasses;
  std::string_view why;
};

/// Load connections per workload (plus one control connection).
inline constexpr std::size_t kConnections = 2;

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// Lines sent (and answered) before the measured window: the working set
/// at its deepest population, so the window starts from a warm cache.
std::vector<Request> prefill(const Workload& w, std::uint64_t seed);

/// Request `id` of the measured window.
Request make_request(const Workload& w, std::uint64_t seed, std::uint64_t id);

}  // namespace perfbench
