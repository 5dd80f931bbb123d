// The scenario-evaluation engine: the front door for capacity-planning
// workloads that re-solve near-identical networks thousands of times
// (what-if sweeps, hardware-upgrade grids, Chebyshev test plans).
//
// Requests are declarative core::ScenarioSpecs.  Each spec is canonicalized
// into a structural Fingerprint (service/fingerprint.hpp) and served
// through a sharded LRU cache of solved MvaResults:
//
//   * exact hit      — same structure, same population: the cached result
//                      is shared (no copy, no solve);
//   * prefix hit     — same structure, shallower population N' <= N: exact
//                      MVA at N computes every level 1..N on the way, so
//                      the cached deep solve answers the request with an
//                      O(N' K) row copy instead of a re-solve;
//   * miss           — the solver runs (through the core::solve facade)
//                      and the result is cached, deepening any existing
//                      shallower entry for the same structure.
//
// Cache entries additionally hold the tabulated DemandGrid of the solve
// (plus the DemandModel copy it borrows), so a deepen-in-place re-solve of
// a varying-demand structure re-tabulates only the new population tail
// instead of re-evaluating every spline row, and a SeriesRender of the
// result, so series answers served from the entry format its population
// series once instead of once per answer.
//
// evaluate_batch dedupes specs with identical fingerprints (one solve per
// structure, duplicates filled by sharing or trimming), groups the
// remaining misses by structure, and solves each group through the
// lane-major batched kernel (core/detail/batch_engine.hpp) — the
// population recursion runs once per group, not once per spec.  Lockstep
// blocks fan out over the shared ThreadPool with chunked submission
// (common/thread_pool.hpp), and per-scenario futures are available for
// streaming callers (the mtperf_serve tool).  All entry points are safe to
// call concurrently.
//
// Concurrent identical misses are single-flighted: the first request to
// register a fingerprint becomes the leader and runs the solver; requests
// for the same structure (at the same or a shallower population) that
// arrive while the solve is in flight wait for the leader's result instead
// of redundantly re-solving — one solve fans out to every waiter.  Waiters
// count as cache hits with the `coalesced` flag set.  A request *deeper*
// than the in-flight solve runs independently (the deepen-in-place store
// keeps whichever result is deeper).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/sweep.hpp"
#include "service/fingerprint.hpp"

namespace mtperf::service {

struct EngineOptions {
  /// Total cached results across all shards (>= 1).
  std::size_t cache_capacity = 512;
  /// Lock shards; requests hash-distribute across them (>= 1).
  std::size_t shards = 8;
  /// Pool for batch/async evaluation.  Borrowed — must outlive the
  /// engine.  When null the engine owns a pool of `threads` workers.
  ThreadPool* pool = nullptr;
  /// Size of the owned pool when `pool` is null (0 = hardware concurrency).
  std::size_t threads = 0;
};

/// An engine's SeriesRender tallies: renders run, and the bytes renders
/// hold now.  Shared by pointer, so a render that outlives its engine (in
/// an answer still being written) still settles its bytes here.
struct SeriesRenderStats {
  std::atomic<std::uint64_t> renders{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// The wire bytes of one solved result's three series arrays
/// (cycle_time_series, population, throughput_series), formatted the
/// first time an answer asks for them and then sliced: levels 1..n of
/// each array are a leading byte range, because a prefix of a result is a
/// verbatim copy of its leading rows.  The cache attaches one to every
/// entry, so a series hit appends bytes instead of formatting 3×N numbers.
///
/// The two double arrays live in one exact-size allocation, with a byte
/// offset every kCheckpointStride levels (a slice scans at most that many
/// commas past its checkpoint).  A canonical 1..N population is not
/// stored: every render shares one process-wide "1,2,…" digit string (any
/// other population is rendered alongside the doubles).
/// Thread-safe; the first render is published to concurrent readers by
/// std::call_once.
class SeriesRender {
 public:
  enum Series : std::size_t { kCycleTime, kPopulation, kThroughput };

  /// `stats`, when non-null, counts the render and its resident bytes.
  explicit SeriesRender(std::shared_ptr<const core::MvaResult> result,
                        std::shared_ptr<SeriesRenderStats> stats = nullptr);
  ~SeriesRender();

  SeriesRender(const SeriesRender&) = delete;
  SeriesRender& operator=(const SeriesRender&) = delete;

  /// Levels of the rendered result: the deepest slice append() serves.
  std::size_t levels() const noexcept { return result_->levels(); }

  /// Append levels 1..`levels` of `series` as a JSON array ("[…]"),
  /// rendering all three series first if no call has yet.  The bytes
  /// equal formatting the same values one by one.
  void append(std::string& out, Series series, std::size_t levels) const;

 private:
  static constexpr std::size_t kSeriesCount = 3;
  static constexpr std::size_t kCheckpointStride = 32;

  struct Rendered {
    const char* bytes = nullptr;
    std::size_t size = 0;
    /// Byte offset of every kCheckpointStride-th value; null for the
    /// shared digit string, whose offsets are arithmetic.
    const std::uint32_t* checkpoints = nullptr;
  };

  void render() const;

  std::shared_ptr<const core::MvaResult> result_;
  std::shared_ptr<SeriesRenderStats> stats_;
  mutable std::once_flag rendered_;
  mutable std::unique_ptr<std::uint32_t[]> storage_;
  mutable std::size_t storage_bytes_ = 0;
  mutable std::shared_ptr<const std::string> digits_;
  mutable std::array<Rendered, kSeriesCount> series_{};
};

/// Outcome of one scenario evaluation.  `result` always has exactly
/// `spec.options.max_population` levels, identical (bit-for-bit) to a
/// direct core::solve of the spec.
struct Evaluation {
  std::string label;
  std::shared_ptr<const core::MvaResult> result;
  bool cache_hit = false;   ///< served without running a solver
  bool prefix_hit = false;  ///< served by trimming a deeper cached solve
  double solve_ms = 0.0;    ///< solver wall time; 0 on hits
  /// Served by waiting on a concurrent identical request's in-flight solve
  /// (single-flight dedup) rather than probing the cache or solving.
  bool coalesced = false;
  /// Hits only: the series bytes of the cached result this answer was
  /// served from (at least as deep as `result`), which append_evaluation
  /// slices instead of formatting `result`'s series.  Null on a miss's
  /// own answer, which formats its series directly.
  std::shared_ptr<const SeriesRender> series = nullptr;
};

/// Lanes per lockstep block of the batched kernel, mirrored here so the
/// metrics surface does not pull in core/detail headers (engine.cpp
/// static_asserts the two constants agree).
inline constexpr std::size_t kEngineBatchLanes = 16;

/// Counter snapshot plus latency percentiles over all solves so far.
/// Counters are maintained as relaxed atomics and snapshotted without
/// taking any cache-shard lock, so metrics() is safe (and cheap) to call
/// from a serving hot path.
struct EngineMetrics {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;         ///< exact + prefix + coalesced
  std::uint64_t prefix_hits = 0;
  std::uint64_t coalesced = 0;  ///< joined a concurrent in-flight solve
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;      ///< currently cached results
  std::size_t queue_depth = 0;  ///< scenarios submitted but not finished
  double hit_rate = 0.0;        ///< hits / requests (0 when idle)
  /// Percentiles of per-solve latency (misses only), in milliseconds;
  /// all zero until the first miss.
  double solve_ms_p50 = 0.0;
  double solve_ms_p90 = 0.0;
  double solve_ms_p99 = 0.0;
  double solve_ms_max = 0.0;
  /// Lockstep batch occupancy: how full the lane-major blocks actually
  /// ran.  batch_occupancy[l] counts blocks that solved l lanes
  /// (1 <= l <= kEngineBatchLanes; index 0 unused).
  std::uint64_t batch_blocks = 0;  ///< lockstep blocks solved
  std::uint64_t batch_lanes = 0;   ///< lanes across those blocks
  /// Batch misses no lockstep kernel covered (kind not batchable, or a
  /// multiclass spec past the lockstep lattice budget) — each ran a
  /// per-spec scalar solve inside evaluate_batch.  batch_lanes vs this
  /// counter is the lanes-vs-scalar split of batched serving traffic.
  /// Hierarchical specs are exempt: they run per-spec by design (their
  /// reuse lives in the FES profile cache, not the lockstep kernel).
  std::uint64_t batch_scalar_fallbacks = 0;
  /// Flow-equivalent-server profile reuse (kHierarchical only): each tier's
  /// subnetwork solve routes back through this cache, so a batch editing
  /// one tier re-extracts one profile and shares the rest.  hits counts
  /// subnetwork solves served from cache (or a concurrent in-flight solve),
  /// misses counts subnetwork solves that actually ran.
  std::uint64_t fes_profile_hits = 0;
  std::uint64_t fes_profile_misses = 0;
  /// Series answers served from cache format each entry's series once
  /// (SeriesRender): renders run so far, and the bytes renders hold now
  /// (freed with their entry, or with the last answer still using them).
  std::uint64_t series_renders = 0;
  std::uint64_t series_bytes = 0;
  double batch_occupancy_mean = 0.0;  ///< lanes per block (0 when none)
  std::array<std::uint64_t, kEngineBatchLanes + 1> batch_occupancy{};
};

class Engine final : public core::ScenarioEvaluator {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Evaluate one spec through the cache, synchronously.
  Evaluation evaluate(const core::ScenarioSpec& spec);

  /// Enqueue one spec on the pool; the future yields its Evaluation.
  std::future<Evaluation> submit(core::ScenarioSpec spec);

  /// Evaluate a batch; the returned vector matches the input order.
  /// Specs with identical fingerprints are deduplicated — the structure is
  /// solved once (at the batch's deepest requested population) and
  /// duplicate slots are filled by sharing or prefix-trimming that result,
  /// counted as cache hits.  Cache misses are grouped by structure and
  /// solved in lockstep by the lane-major batched kernel; blocks and
  /// scalar fallbacks run in parallel over the pool.
  std::vector<Evaluation> evaluate_batch(
      const std::vector<core::ScenarioSpec>& specs);

  /// evaluate_batch for a caller that already fingerprinted the specs:
  /// `fps[i]` must be fingerprint(specs[i]).
  std::vector<Evaluation> evaluate_batch(
      const std::vector<core::ScenarioSpec>& specs,
      const std::vector<Fingerprint>& fps);

  /// Cache probe alone, for a caller that already fingerprinted a spec:
  /// `fp` is fingerprint(spec), `want` its max_population and `label` its
  /// label (the socket reader keeps these three for lines it has parsed
  /// before, and so need not rebuild the spec).  An exact or prefix hit
  /// returns the Evaluation evaluate() would give and counts the request
  /// and the hit as evaluate() does.  A miss returns nothing and counts
  /// nothing: the caller goes on to evaluate the spec, which counts it
  /// then.  Neither joins nor registers an in-flight solve.
  std::optional<Evaluation> probe(const Fingerprint& fp, unsigned want,
                                  const std::string& label);

  /// core::run_scenarios through this engine: parallel, cached, and
  /// returning the familiar LabeledResult rows (results copied out).
  std::vector<core::LabeledResult> run_scenarios(
      const std::vector<core::ScenarioSpec>& specs);

  /// core::ScenarioEvaluator — lets core::run_scenarios(..., evaluator)
  /// route any spec batch through this cache.
  core::MvaResult evaluate_spec(const core::ScenarioSpec& spec) override;

  EngineMetrics metrics() const;

  /// Drop every cached result (counters keep accumulating).
  void clear();

  ThreadPool& pool() noexcept { return *pool_; }

 private:
  struct Shard;

  /// A result the cache holds, with the series render attached to it.
  struct Cached {
    std::shared_ptr<const core::MvaResult> result;
    std::shared_ptr<const SeriesRender> series;
  };

  /// One in-flight miss: the leader's promised result, joined by
  /// concurrent requests for the same fingerprint (single-flight dedup).
  struct Flight {
    unsigned population = 0;  ///< depth the leader is solving to
    std::promise<Cached> promise;
    std::shared_future<Cached> future;
  };

  /// How a cache miss relates to the in-flight table.
  enum class FlightRole {
    kLeader,       ///< registered the flight; must solve and publish
    kFollower,     ///< joined an in-flight solve; awaits its future
    kIndependent,  ///< wants deeper than the in-flight solve; solves alone
  };

  /// The tabulated demand state attached to a cache entry: the grid of the
  /// deepest solve and the DemandModel copy it borrows (grids hold a raw
  /// pointer to their model, so the entry must own both).  Empty for
  /// structures whose solver never reads a grid, constant demands, and
  /// throughput-axis models.  Multiclass structures with a varying class
  /// carry a MulticlassGrid instead (it owns its model copies itself).
  struct GridLease {
    std::shared_ptr<const core::DemandModel> demands;
    std::shared_ptr<const core::DemandGrid> grid;
    std::shared_ptr<const core::MulticlassGrid> class_grid;
  };

  Shard& shard_for(const Fingerprint& fp) const noexcept;

  /// Serve a request for `want` levels from a cached result covering that
  /// depth: share it when the depth matches, else trim it (a prefix hit).
  /// Counts the hit.
  Evaluation serve_hit(const std::string& label, unsigned want,
                       Cached cached);

  void record_solve_ms(double ms);
  void record_batch_block(std::size_t lanes);

  /// Register as leader for `fp`, join an in-flight solve covering
  /// >= `want` levels, or learn to solve independently.  On kLeader and
  /// kFollower, `flight` receives the (new or joined) flight.
  FlightRole join_or_lead(const Fingerprint& fp, unsigned want,
                          std::shared_ptr<Flight>* flight);

  /// Publish the leader's result to every waiter and retire the flight.
  void finish_flight(const Fingerprint& fp,
                     const std::shared_ptr<Flight>& flight, Cached result);

  /// Retire the flight with an error; waiters fall back to solving.
  void fail_flight(const Fingerprint& fp,
                   const std::shared_ptr<Flight>& flight,
                   std::exception_ptr error);

  /// Follower path: wait for the flight's result and serve `spec` from it
  /// (sharing or prefix-trimming).  Falls back to an independent solve if
  /// the leader failed.
  Evaluation await_flight(const core::ScenarioSpec& spec,
                          const Fingerprint& fp,
                          const std::shared_ptr<Flight>& flight);

  /// Cache probe: the cached result when it covers `want` levels (LRU
  /// bumped), else an empty Cached.  `lease` receives the entry's cached
  /// grid state either way — a shallower entry's grid seeds the deepen
  /// re-tabulation.
  Cached lookup(const Fingerprint& fp, unsigned want, GridLease* lease);

  /// Run the solver for one spec (no cache probe; counters untouched except
  /// the latency sample), reusing/deepening the leased grid when the spec
  /// is grid-cacheable, and store the result.  `stored`, when non-null,
  /// receives the series render store() attached to the result.
  Evaluation solve_miss(const core::ScenarioSpec& spec, const Fingerprint& fp,
                        GridLease lease,
                        std::shared_ptr<const SeriesRender>* stored = nullptr);

  /// Insert the solved result, deepening (never shrinking) any existing
  /// entry for `fp`; the lease rides along with whichever result wins.
  /// A stored result gets a fresh (unrendered) SeriesRender, returned for
  /// answering duplicates of the miss; null when a deeper entry won.
  std::shared_ptr<const SeriesRender> store(
      const Fingerprint& fp, std::shared_ptr<const core::MvaResult> result,
      GridLease lease);

  EngineOptions options_;
  std::size_t per_shard_capacity_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Hot counters: relaxed atomics written on the request path and read by
  // metrics() without any lock.  entries_ mirrors the shard LRU sizes so
  // the metrics snapshot does not have to walk (and lock) the shards.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> prefix_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::uint64_t> batch_blocks_{0};
  std::atomic<std::uint64_t> batch_lanes_{0};
  std::atomic<std::uint64_t> batch_scalar_fallbacks_{0};
  std::atomic<std::uint64_t> fes_profile_hits_{0};
  std::atomic<std::uint64_t> fes_profile_misses_{0};
  std::array<std::atomic<std::uint64_t>, kEngineBatchLanes + 1>
      occupancy_hist_{};
  std::shared_ptr<SeriesRenderStats> series_stats_ =
      std::make_shared<SeriesRenderStats>();

  /// Per-solve latency samples, striped by thread so concurrent solves do
  /// not serialize on one mutex.  Percentiles need the raw sample, so the
  /// stripes hold mergeable accumulators (common/stats); metrics() locks
  /// each stripe just long enough to copy it, then merges the copies —
  /// the counters above stay lock-free, and solve recording contends only
  /// when two threads hash to the same stripe.
  struct LatencyStripe {
    std::mutex mutex;
    MomentAccumulator acc;
  };
  static constexpr std::size_t kLatencyStripes = 8;
  mutable std::array<LatencyStripe, kLatencyStripes> latency_stripes_;

  /// In-flight miss table (single-flight dedup).  Guarded by its own
  /// mutex: entries live only for the duration of a solve.
  std::mutex flights_mutex_;
  std::unordered_map<Fingerprint, std::shared_ptr<Flight>, FingerprintHash>
      flights_;
};

}  // namespace mtperf::service
