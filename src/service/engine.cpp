#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <list>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "service/json.hpp"

namespace mtperf::service {

static_assert(kEngineBatchLanes == core::detail::kBatchLaneBlock,
              "EngineMetrics occupancy histogram must match the kernel's "
              "lane block size");

namespace {

struct CacheEntry {
  Fingerprint key;
  std::shared_ptr<const core::MvaResult> result;
  /// The series bytes of `result`, rendered on the first series hit.
  std::shared_ptr<const SeriesRender> series;
  /// Deepen-reuse state: the tabulated grid of the deepest solve plus the
  /// DemandModel copy it borrows.  Null unless the structure is
  /// grid-cacheable (see grid_cacheable below).
  std::shared_ptr<const core::DemandModel> demands;
  std::shared_ptr<const core::DemandGrid> grid;
  /// Multiclass analogue: per-class tabulated rows of the deepest mix.
  /// Null unless the structure is class_grid_cacheable.
  std::shared_ptr<const core::MulticlassGrid> class_grid;
};

/// True when caching a tabulated DemandGrid alongside the result pays off:
/// the solver actually reads grids, the demands vary (a constant model's
/// grid is one row — rebuilding it is free), and the axis is concurrency
/// (throughput-axis models cannot be pre-tabulated).
bool grid_cacheable(const core::ScenarioSpec& spec) {
  switch (spec.options.solver) {
    case core::SolverKind::kExactMultiserver:
    case core::SolverKind::kMvasd:
    case core::SolverKind::kMvasdSingleServer:
      break;
    default:
      return false;
  }
  return !spec.demands.is_constant() &&
         spec.demands.axis() == core::DemandModel::Axis::kConcurrency;
}

/// Multiclass counterpart of grid_cacheable: true when a MulticlassGrid is
/// worth caching alongside the result — a series solver that reads grids
/// (MoM requires constant demands and never does) and at least one class
/// whose demands actually vary.  Throughput-axis class models are left for
/// solve() to reject with its own error.
bool class_grid_cacheable(const core::ScenarioSpec& spec) {
  switch (spec.options.solver) {
    case core::SolverKind::kExactMulticlass:
    case core::SolverKind::kSchweitzerMulticlass:
      break;
    default:
      return false;
  }
  bool varying = false;
  for (const auto& cls : spec.options.classes) {
    if (cls.demand_model == nullptr) continue;
    if (cls.demand_model->axis() != core::DemandModel::Axis::kConcurrency) {
      return false;
    }
    varying = varying || !cls.demand_model->is_constant();
  }
  return varying;
}

/// Bytes of "1,2,…,n": n counts and n - 1 commas.
std::size_t counting_bytes(std::size_t n) {
  if (n == 0) return 0;
  std::size_t bytes = n - 1;
  std::size_t width = 1;
  for (std::size_t lo = 1; lo <= n; lo *= 10, ++width) {
    bytes += (std::min(n, lo * 10 - 1) - lo + 1) * width;
  }
  return bytes;
}

/// The process-wide "1,2,…,m" string with m >= n, which every render of a
/// canonical population slices.  It grows by at least doubling; renders
/// keep the version they sliced alive.
std::shared_ptr<const std::string> counting_digits(std::size_t n) {
  static std::mutex mutex;
  static std::shared_ptr<const std::string> digits;
  static std::size_t covered = 0;
  std::lock_guard<std::mutex> lock(mutex);
  if (covered < n) {
    const std::size_t m = std::max(n, 2 * covered);
    auto grown = std::make_shared<std::string>();
    grown->reserve(counting_bytes(m));
    for (std::size_t i = 1; i <= m; ++i) {
      if (i != 1) grown->push_back(',');
      append_json_count(*grown, i);
    }
    digits = std::move(grown);
    covered = m;
  }
  return digits;
}

bool canonical_population(const core::MvaResult& r) {
  for (std::size_t i = 0; i < r.levels(); ++i) {
    if (r.population[i] != i + 1) return false;
  }
  return true;
}

}  // namespace

SeriesRender::SeriesRender(std::shared_ptr<const core::MvaResult> result,
                           std::shared_ptr<SeriesRenderStats> stats)
    : result_(std::move(result)), stats_(std::move(stats)) {
  MTPERF_REQUIRE(result_ != nullptr, "series render needs a result");
}

SeriesRender::~SeriesRender() {
  if (stats_ != nullptr && storage_bytes_ != 0) {
    stats_->bytes.fetch_sub(storage_bytes_, std::memory_order_relaxed);
  }
}

void SeriesRender::render() const {
  const core::MvaResult& r = *result_;
  const std::size_t n = r.levels();
  const bool shared_population = canonical_population(r);
  // Format every stored series into one scratch string, noting the offset
  // of each kCheckpointStride-th value, then copy both into one
  // exact-size allocation: checkpoints first (aligned), bytes after.  The
  // scratch stays with the thread, so renders do not churn the heap.
  thread_local std::string text;
  thread_local std::vector<std::uint32_t> checkpoints;
  text.clear();
  checkpoints.clear();
  std::array<std::size_t, kSeriesCount> begin{}, first_checkpoint{};
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    if (s == kPopulation && shared_population) continue;
    begin[s] = text.size();
    first_checkpoint[s] = checkpoints.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) text.push_back(',');
      if (i % kCheckpointStride == 0) {
        checkpoints.push_back(
            static_cast<std::uint32_t>(text.size() - begin[s]));
      }
      switch (s) {
        case kCycleTime: append_json_number(text, r.cycle_time[i]); break;
        case kPopulation: append_json_count(text, r.population[i]); break;
        default: append_json_number(text, r.throughput[i]); break;
      }
    }
    series_[s].size = text.size() - begin[s];
  }
  MTPERF_REQUIRE(text.size() <= UINT32_MAX,
                 "series too long to render with 32-bit offsets");
  const std::size_t words =
      checkpoints.size() + (text.size() + sizeof(std::uint32_t) - 1) /
                               sizeof(std::uint32_t);
  storage_.reset(new std::uint32_t[words]);
  std::copy(checkpoints.begin(), checkpoints.end(), storage_.get());
  char* bytes = reinterpret_cast<char*>(storage_.get() + checkpoints.size());
  std::memcpy(bytes, text.data(), text.size());
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    if (s == kPopulation && shared_population) continue;
    series_[s].bytes = bytes + begin[s];
    series_[s].checkpoints = storage_.get() + first_checkpoint[s];
  }
  if (shared_population) {
    digits_ = counting_digits(n);
    series_[kPopulation] =
        Rendered{digits_->data(), counting_bytes(n), nullptr};
  }
  storage_bytes_ = words * sizeof(std::uint32_t);
  if (stats_ != nullptr) {
    stats_->renders.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes.fetch_add(storage_bytes_, std::memory_order_relaxed);
  }
}

void SeriesRender::append(std::string& out, Series series,
                          std::size_t levels) const {
  std::call_once(rendered_, [this] { render(); });
  const Rendered& rendered = series_[series];
  std::size_t end = rendered.size;
  if (levels == 0) {
    end = 0;
  } else if (levels < result_->levels()) {
    if (rendered.checkpoints == nullptr) {
      end = counting_bytes(levels);
    } else {
      // Value `levels` (0-based) starts after the comma that ends the
      // slice: walk from its checkpoint to it.
      std::size_t start = rendered.checkpoints[levels / kCheckpointStride];
      for (std::size_t k = levels % kCheckpointStride; k != 0; --k) {
        const void* comma = std::memchr(rendered.bytes + start, ',',
                                        rendered.size - start);
        start = static_cast<std::size_t>(static_cast<const char*>(comma) -
                                         rendered.bytes) +
                1;
      }
      end = start - 1;
    }
  }
  out.push_back('[');
  out.append(rendered.bytes, end);
  out.push_back(']');
}

/// One lock shard: an LRU list (front = most recently used) plus an index
/// into it.  Entries hold results at the *deepest* population solved so
/// far for their structure; shallower requests trim, deeper solves
/// replace.
struct Engine::Shard {
  std::mutex mutex;
  std::list<CacheEntry> lru;
  std::unordered_map<Fingerprint, std::list<CacheEntry>::iterator,
                     FingerprintHash>
      index;
};

Engine::Engine(EngineOptions options) : options_(options) {
  MTPERF_REQUIRE(options_.cache_capacity >= 1,
                 "engine cache needs capacity for at least one result");
  MTPERF_REQUIRE(options_.shards >= 1, "engine needs at least one shard");
  options_.shards = std::min(options_.shards, options_.cache_capacity);
  per_shard_capacity_ =
      (options_.cache_capacity + options_.shards - 1) / options_.shards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

Engine::~Engine() = default;

Engine::Shard& Engine::shard_for(const Fingerprint& fp) const noexcept {
  return *shards_[FingerprintHash{}(fp) % shards_.size()];
}

void Engine::record_solve_ms(double ms) {
  const std::size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kLatencyStripes;
  std::lock_guard<std::mutex> lock(latency_stripes_[stripe].mutex);
  latency_stripes_[stripe].acc.add(ms);
}

void Engine::record_batch_block(std::size_t lanes) {
  batch_blocks_.fetch_add(1, std::memory_order_relaxed);
  batch_lanes_.fetch_add(lanes, std::memory_order_relaxed);
  occupancy_hist_[std::min(lanes, kEngineBatchLanes)].fetch_add(
      1, std::memory_order_relaxed);
}

Engine::FlightRole Engine::join_or_lead(const Fingerprint& fp, unsigned want,
                                        std::shared_ptr<Flight>* flight) {
  std::lock_guard<std::mutex> lock(flights_mutex_);
  const auto it = flights_.find(fp);
  if (it != flights_.end()) {
    if (it->second->population >= want) {
      *flight = it->second;
      return FlightRole::kFollower;
    }
    // Deeper than the in-flight solve: don't wait on a result that cannot
    // answer us.  (The deepen-in-place store keeps whichever lands deeper.)
    return FlightRole::kIndependent;
  }
  auto lead = std::make_shared<Flight>();
  lead->population = want;
  lead->future = lead->promise.get_future().share();
  flights_.emplace(fp, lead);
  *flight = std::move(lead);
  return FlightRole::kLeader;
}

void Engine::finish_flight(const Fingerprint& fp,
                           const std::shared_ptr<Flight>& flight,
                           Cached result) {
  {
    // Retire before publishing: the result is already in the cache, so a
    // request that misses the (gone) flight finds it there instead.
    std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto it = flights_.find(fp);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  flight->promise.set_value(std::move(result));
}

void Engine::fail_flight(const Fingerprint& fp,
                         const std::shared_ptr<Flight>& flight,
                         std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto it = flights_.find(fp);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  flight->promise.set_exception(std::move(error));
}

Evaluation Engine::await_flight(const core::ScenarioSpec& spec,
                                const Fingerprint& fp,
                                const std::shared_ptr<Flight>& flight) {
  Cached result;
  try {
    result = flight->future.get();
  } catch (...) {
    // The leader failed.  An identical spec would fail identically, but
    // solving here keeps this request's outcome independent of another
    // request's context (and exercises the normal error path).
    misses_.fetch_add(1, std::memory_order_relaxed);
    return solve_miss(spec, fp, {});
  }
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  Evaluation ev =
      serve_hit(spec.label, spec.options.max_population, std::move(result));
  ev.coalesced = true;
  return ev;
}

Evaluation Engine::serve_hit(const std::string& label, unsigned want,
                             Cached cached) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (cached.result->levels() == want) {
    return Evaluation{label, std::move(cached.result), true, false, 0.0,
                      false, std::move(cached.series)};
  }
  // Prefix hit: the result copy runs outside any shard lock.
  prefix_hits_.fetch_add(1, std::memory_order_relaxed);
  auto trimmed =
      std::make_shared<const core::MvaResult>(cached.result->prefix(want));
  return Evaluation{label, std::move(trimmed), true, true, 0.0, false,
                    std::move(cached.series)};
}

Engine::Cached Engine::lookup(const Fingerprint& fp, unsigned want,
                              GridLease* lease) {
  Shard& shard = shard_for(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(fp);
  if (it == shard.index.end()) return {};
  if (lease != nullptr) {
    lease->demands = it->second->demands;
    lease->grid = it->second->grid;
    lease->class_grid = it->second->class_grid;
  }
  if (it->second->result->levels() < want) {
    // Shallower entry: left in place (the deep solve replaces it), but its
    // grid rides out through the lease so the re-solve only tabulates the
    // missing population tail.
    return {};
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return Cached{it->second->result, it->second->series};
}

std::shared_ptr<const SeriesRender> Engine::store(
    const Fingerprint& fp, std::shared_ptr<const core::MvaResult> result,
    GridLease lease) {
  // Built outside the lock; dropped unrendered if a deeper entry wins.
  auto series = std::make_shared<const SeriesRender>(result, series_stats_);
  Shard& shard = shard_for(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(fp);
  if (it != shard.index.end()) {
    // Deepen (or refresh) the existing entry; never shrink it — a
    // concurrent deeper solve may have landed first.  Deepening drops the
    // old result's series bytes with it.
    const bool deeper = it->second->result->levels() < result->levels();
    if (deeper) {
      it->second->result = std::move(result);
      it->second->series = series;
      it->second->demands = std::move(lease.demands);
      it->second->grid = std::move(lease.grid);
      it->second->class_grid = std::move(lease.class_grid);
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return deeper ? series : nullptr;
  }
  shard.lru.push_front(CacheEntry{fp, std::move(result), series,
                                  std::move(lease.demands),
                                  std::move(lease.grid),
                                  std::move(lease.class_grid)});
  shard.index.emplace(fp, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  } else {
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  return series;
}

Evaluation Engine::solve_miss(const core::ScenarioSpec& spec,
                              const Fingerprint& fp, GridLease lease,
                              std::shared_ptr<const SeriesRender>* stored) {
  const unsigned want = spec.options.max_population;
  const core::DemandGrid* grid_ptr = nullptr;
  const core::MulticlassGrid* class_grid_ptr = nullptr;
  if (grid_cacheable(spec)) {
    // The cached grid borrows the cached model, so the entry must own a
    // DemandModel copy; reuse the leased one when a shallower entry
    // already holds it (their contents match — same fingerprint).
    if (lease.demands == nullptr) {
      lease.demands = std::make_shared<const core::DemandModel>(spec.demands);
    }
    if (lease.grid == nullptr || lease.grid->max_population() < want) {
      lease.grid = std::make_shared<const core::DemandGrid>(
          *lease.demands, want, lease.grid.get());
    }
    grid_ptr = lease.grid.get();
  } else if (class_grid_cacheable(spec)) {
    // MulticlassGrid owns its model copies, so no separate demands lease;
    // a shallower-mix entry's grid (same structure, smaller axis depth)
    // seeds the deepen so only the new total-population tail tabulates.
    const unsigned total =
        core::multiclass_total_population(spec.options.classes);
    if (lease.class_grid == nullptr ||
        lease.class_grid->max_population() < total) {
      lease.class_grid = std::make_shared<const core::MulticlassGrid>(
          spec.network, spec.options.classes, total, lease.class_grid.get());
    }
    class_grid_ptr = lease.class_grid.get();
    lease.demands = nullptr;
    lease.grid = nullptr;
  } else {
    lease = GridLease{};
  }

  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const core::MvaResult> solved;
  if (spec.options.solver == core::SolverKind::kHierarchical) {
    // Hierarchical solves route each tier's subnetwork extraction back
    // through evaluate(), so every FES throughput profile is its own
    // fingerprinted cache entry — a batch editing one tier re-solves one
    // profile and shares the rest.  The recursion is deadlock-free:
    // evaluate() holds no shard lock while solving, and a subnetwork spec
    // (think 0, strict station subset, kExactMultiserver) can never alias
    // the parent's fingerprint, so flight waits form a DAG.
    const core::detail::SubnetworkEvaluator sub =
        [this](const core::ScenarioSpec& inner) {
          Evaluation ev = evaluate(inner);
          (ev.cache_hit ? fes_profile_hits_ : fes_profile_misses_)
              .fetch_add(1, std::memory_order_relaxed);
          return ev.result;
        };
    solved = std::make_shared<const core::MvaResult>(
        core::detail::solve_hierarchical(spec.network, &spec.demands,
                                         spec.options, sub));
  } else {
    solved = std::make_shared<const core::MvaResult>(core::solve(
        spec.network, &spec.demands, spec.options, grid_ptr, class_grid_ptr));
  }
  const auto stop = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  record_solve_ms(ms);
  auto series = store(fp, solved, std::move(lease));
  if (stored != nullptr) *stored = std::move(series);
  return Evaluation{spec.label, std::move(solved), false, false, ms};
}

Evaluation Engine::evaluate(const core::ScenarioSpec& spec) {
  const Fingerprint fp = fingerprint(spec);
  const unsigned want = spec.options.max_population;
  MTPERF_REQUIRE(want >= 1, "population must be at least 1");
  requests_.fetch_add(1, std::memory_order_relaxed);

  GridLease lease;
  if (Cached cached = lookup(fp, want, &lease); cached.result != nullptr) {
    return serve_hit(spec.label, want, std::move(cached));
  }

  std::shared_ptr<Flight> flight;
  switch (join_or_lead(fp, want, &flight)) {
    case FlightRole::kFollower:
      return await_flight(spec, fp, flight);
    case FlightRole::kLeader: {
      misses_.fetch_add(1, std::memory_order_relaxed);
      try {
        std::shared_ptr<const SeriesRender> series;
        Evaluation ev = solve_miss(spec, fp, std::move(lease), &series);
        finish_flight(fp, flight, Cached{ev.result, std::move(series)});
        return ev;
      } catch (...) {
        fail_flight(fp, flight, std::current_exception());
        throw;
      }
    }
    case FlightRole::kIndependent:
      break;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return solve_miss(spec, fp, std::move(lease));
}

std::optional<Evaluation> Engine::probe(const Fingerprint& fp, unsigned want,
                                        const std::string& label) {
  MTPERF_REQUIRE(want >= 1, "population must be at least 1");
  Cached cached = lookup(fp, want, nullptr);
  if (cached.result == nullptr) return std::nullopt;
  requests_.fetch_add(1, std::memory_order_relaxed);
  return serve_hit(label, want, std::move(cached));
}

std::future<Evaluation> Engine::submit(core::ScenarioSpec spec) {
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  return pool_->submit([this, spec = std::move(spec)]() mutable {
    struct DepthGuard {
      std::atomic<std::size_t>& depth;
      ~DepthGuard() { depth.fetch_sub(1, std::memory_order_relaxed); }
    } guard{queue_depth_};
    return evaluate(spec);
  });
}

std::vector<Evaluation> Engine::evaluate_batch(
    const std::vector<core::ScenarioSpec>& specs) {
  std::vector<Fingerprint> fps;
  fps.reserve(specs.size());
  for (const core::ScenarioSpec& spec : specs) {
    fps.push_back(fingerprint(spec));
  }
  return evaluate_batch(specs, fps);
}

std::vector<Evaluation> Engine::evaluate_batch(
    const std::vector<core::ScenarioSpec>& specs,
    const std::vector<Fingerprint>& fps) {
  const std::size_t n = specs.size();
  MTPERF_REQUIRE(fps.size() == n,
                 "evaluate_batch needs one fingerprint per spec");
  std::vector<Evaluation> out(n);
  if (n == 0) return out;
  queue_depth_.fetch_add(n, std::memory_order_relaxed);
  struct DepthGuard {
    std::atomic<std::size_t>& depth;
    std::size_t count;
    ~DepthGuard() { depth.fetch_sub(count, std::memory_order_relaxed); }
  } depth_guard{queue_depth_, n};
  requests_.fetch_add(n, std::memory_order_relaxed);

  // Dedupe: one representative per fingerprint — the deepest requested
  // population, so every duplicate is a share or a prefix trim of it.
  struct Rep {
    std::size_t spec_index = 0;
    Fingerprint fp;
    GridLease lease;
    Evaluation eval;
    /// A miss rep's series render, from store(); hits carry theirs in
    /// `eval`.  Duplicates of the rep are answered with it.
    std::shared_ptr<const SeriesRender> series;
    /// Leader reps publish here after solving; follower reps await it.
    std::shared_ptr<Flight> flight;
    bool follower = false;
  };
  std::vector<std::size_t> rep_of(n);
  std::vector<Rep> reps;
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> rep_index;
  for (std::size_t i = 0; i < n; ++i) {
    MTPERF_REQUIRE(specs[i].options.max_population >= 1,
                   "population must be at least 1");
    const auto [it, inserted] = rep_index.try_emplace(fps[i], reps.size());
    if (inserted) {
      reps.push_back(Rep{i, fps[i], {}, {}, nullptr, nullptr, false});
    } else if (specs[i].options.max_population >
               specs[reps[it->second].spec_index].options.max_population) {
      reps[it->second].spec_index = i;
    }
    rep_of[i] = it->second;
  }

  // Probe the cache once per representative.  Misses additionally consult
  // the in-flight table: a structure another thread is already solving (at
  // sufficient depth) is joined as a follower instead of re-solved, and
  // every remaining miss registers as leader so concurrent callers can
  // join *us*.
  std::vector<std::size_t> miss_reps;
  std::vector<std::size_t> follower_reps;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    Rep& rep = reps[r];
    const core::ScenarioSpec& spec = specs[rep.spec_index];
    const unsigned want = spec.options.max_population;
    if (Cached cached = lookup(rep.fp, want, &rep.lease);
        cached.result != nullptr) {
      rep.eval = serve_hit(spec.label, want, std::move(cached));
      continue;
    }
    switch (join_or_lead(rep.fp, want, &rep.flight)) {
      case FlightRole::kFollower:
        rep.follower = true;
        follower_reps.push_back(r);
        break;
      case FlightRole::kLeader:
      case FlightRole::kIndependent:
        misses_.fetch_add(1, std::memory_order_relaxed);
        miss_reps.push_back(r);
        break;
    }
  }

  // Group the misses by structure and solve each group in lockstep; specs
  // the batched kernel doesn't cover fall back to scalar solve_miss calls.
  // Every task writes disjoint reps, so no synchronization is needed.
  std::vector<const core::ScenarioSpec*> miss_specs;
  miss_specs.reserve(miss_reps.size());
  for (const std::size_t r : miss_reps) {
    miss_specs.push_back(&specs[reps[r].spec_index]);
  }
  const core::detail::BatchPlan plan = core::detail::plan_batch(miss_specs);

  const auto run_block = [&](const std::vector<std::size_t>& block) {
    std::vector<core::detail::BatchLane> lanes(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      Rep& rep = reps[miss_reps[block[l]]];
      const core::ScenarioSpec& spec = specs[rep.spec_index];
      lanes[l].network = &spec.network;
      lanes[l].max_population = spec.options.max_population;
      if (grid_cacheable(spec)) {
        // The kernel's out-grid is cached, so it must borrow a model the
        // cache entry owns — never the caller's spec.
        if (rep.lease.demands == nullptr) {
          rep.lease.demands =
              std::make_shared<const core::DemandModel>(spec.demands);
        }
        lanes[l].demands = rep.lease.demands.get();
        lanes[l].grid = rep.lease.grid;
      } else {
        lanes[l].demands = &spec.demands;
      }
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::MvaResult> results =
        core::detail::solve_lane_block(lanes);
    const auto stop = std::chrono::steady_clock::now();
    record_batch_block(block.size());
    const double ms_per_lane =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      Rep& rep = reps[miss_reps[block[l]]];
      const core::ScenarioSpec& spec = specs[rep.spec_index];
      record_solve_ms(ms_per_lane);
      auto solved =
          std::make_shared<const core::MvaResult>(std::move(results[l]));
      GridLease lease;
      if (grid_cacheable(spec)) {
        rep.lease.grid = lanes[l].grid;
        lease = rep.lease;
      }
      rep.series = store(rep.fp, solved, std::move(lease));
      rep.eval = Evaluation{spec.label, std::move(solved), false, false,
                            ms_per_lane};
    }
  };
  const auto run_mc_block = [&](const std::vector<std::size_t>& block) {
    std::vector<core::detail::MulticlassBatchLane> lanes(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      Rep& rep = reps[miss_reps[block[l]]];
      const core::ScenarioSpec& spec = specs[rep.spec_index];
      lanes[l].network = &spec.network;
      lanes[l].classes = &spec.options.classes;
      lanes[l].schweitzer = spec.options.schweitzer;
      if (class_grid_cacheable(spec)) {
        // Seed the kernel with the leased grid (a shallower-mix entry's
        // rows deepen in place); MulticlassGrid owns its model copies, so
        // there is no demands lease to thread through.
        lanes[l].grid = rep.lease.class_grid;
      }
    }
    const core::SolverKind kind =
        specs[reps[miss_reps[block[0]]].spec_index].options.solver;
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::MvaResult> results =
        core::detail::solve_multiclass_lane_block(kind, lanes);
    const auto stop = std::chrono::steady_clock::now();
    record_batch_block(block.size());
    const double ms_per_lane =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      Rep& rep = reps[miss_reps[block[l]]];
      const core::ScenarioSpec& spec = specs[rep.spec_index];
      record_solve_ms(ms_per_lane);
      auto solved =
          std::make_shared<const core::MvaResult>(std::move(results[l]));
      GridLease lease;
      if (class_grid_cacheable(spec)) {
        rep.lease.class_grid = lanes[l].grid;
        rep.lease.demands = nullptr;
        rep.lease.grid = nullptr;
        lease = rep.lease;
      }
      rep.series = store(rep.fp, solved, std::move(lease));
      rep.eval = Evaluation{spec.label, std::move(solved), false, false,
                            ms_per_lane};
    }
  };
  const auto run_task = [&](std::size_t t) {
    if (t < plan.blocks.size()) {
      run_block(plan.blocks[t]);
    } else if (t < plan.blocks.size() + plan.mc_blocks.size()) {
      run_mc_block(plan.mc_blocks[t - plan.blocks.size()]);
    } else {
      Rep& rep = reps[miss_reps[plan.scalars[t - plan.blocks.size() -
                                             plan.mc_blocks.size()]]];
      const core::ScenarioSpec& spec = specs[rep.spec_index];
      // Hierarchical specs are scalar by design (their reuse is the FES
      // profile cache, not the lockstep kernel) — counting them as
      // fallbacks would poison the lanes-vs-scalar diagnostic.
      if (spec.options.solver != core::SolverKind::kHierarchical) {
        batch_scalar_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      rep.eval =
          solve_miss(spec, rep.fp, std::move(rep.lease), &rep.series);
    }
  };
  // Solve, then settle every registered flight exactly once: leaders whose
  // rep solved publish the result; on failure the remaining waiters get
  // the error (and fall back to their own solves).  Publishing our own
  // flights *before* awaiting foreign ones below makes cross-batch waits
  // deadlock-free — two batches leading and following each other's
  // structures both publish first.
  const auto settle_flights = [&](std::exception_ptr error) {
    for (const std::size_t r : miss_reps) {
      Rep& rep = reps[r];
      if (rep.flight == nullptr) continue;
      if (rep.eval.result != nullptr) {
        finish_flight(rep.fp, rep.flight,
                      Cached{rep.eval.result, rep.series});
      } else {
        fail_flight(rep.fp, rep.flight,
                    error != nullptr ? error
                                     : std::make_exception_ptr(Error(
                                           "batch evaluation abandoned")));
      }
      rep.flight = nullptr;
    }
  };
  const std::size_t tasks =
      plan.blocks.size() + plan.mc_blocks.size() + plan.scalars.size();
  try {
    if (tasks > 1 && pool_->size() > 1) {
      parallel_for(*pool_, tasks, run_task);
    } else {
      for (std::size_t t = 0; t < tasks; ++t) run_task(t);
    }
  } catch (...) {
    settle_flights(std::current_exception());
    throw;
  }
  settle_flights(nullptr);

  // Now resolve the reps that joined another caller's in-flight solve.
  for (const std::size_t r : follower_reps) {
    Rep& rep = reps[r];
    rep.eval = await_flight(specs[rep.spec_index], rep.fp, rep.flight);
  }

  // Fill every slot from its representative: the rep's own slot shares the
  // Evaluation; duplicates share or trim the rep's result and count as
  // cache hits (the whole point of dedup — one solve, many answers).
  for (std::size_t i = 0; i < n; ++i) {
    const Rep& rep = reps[rep_of[i]];
    if (i == rep.spec_index) {
      out[i] = rep.eval;
      out[i].label = specs[i].label;
      continue;
    }
    out[i] = serve_hit(
        specs[i].label, specs[i].options.max_population,
        Cached{rep.eval.result,
               rep.eval.series != nullptr ? rep.eval.series : rep.series});
  }
  return out;
}

std::vector<core::LabeledResult> Engine::run_scenarios(
    const std::vector<core::ScenarioSpec>& specs) {
  auto evaluations = evaluate_batch(specs);
  std::vector<core::LabeledResult> out;
  out.reserve(evaluations.size());
  for (auto& ev : evaluations) {
    out.push_back(core::LabeledResult{std::move(ev.label), *ev.result});
  }
  return out;
}

core::MvaResult Engine::evaluate_spec(const core::ScenarioSpec& spec) {
  return *evaluate(spec).result;
}

EngineMetrics Engine::metrics() const {
  EngineMetrics m;
  // The counter snapshot takes no shard lock: entries_ mirrors the LRU
  // sizes, so a serving hot path can poll metrics without contending with
  // lookups.
  m.requests = requests_.load(std::memory_order_relaxed);
  m.hits = hits_.load(std::memory_order_relaxed);
  m.prefix_hits = prefix_hits_.load(std::memory_order_relaxed);
  m.coalesced = coalesced_.load(std::memory_order_relaxed);
  m.misses = misses_.load(std::memory_order_relaxed);
  m.evictions = evictions_.load(std::memory_order_relaxed);
  m.entries = entries_.load(std::memory_order_relaxed);
  m.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  m.batch_blocks = batch_blocks_.load(std::memory_order_relaxed);
  m.batch_lanes = batch_lanes_.load(std::memory_order_relaxed);
  m.batch_scalar_fallbacks =
      batch_scalar_fallbacks_.load(std::memory_order_relaxed);
  m.fes_profile_hits = fes_profile_hits_.load(std::memory_order_relaxed);
  m.fes_profile_misses = fes_profile_misses_.load(std::memory_order_relaxed);
  m.series_renders = series_stats_->renders.load(std::memory_order_relaxed);
  m.series_bytes = series_stats_->bytes.load(std::memory_order_relaxed);
  for (std::size_t l = 0; l < m.batch_occupancy.size(); ++l) {
    m.batch_occupancy[l] = occupancy_hist_[l].load(std::memory_order_relaxed);
  }
  if (m.batch_blocks > 0) {
    m.batch_occupancy_mean = static_cast<double>(m.batch_lanes) /
                             static_cast<double>(m.batch_blocks);
  }
  if (m.requests > 0) {
    m.hit_rate = static_cast<double>(m.hits) / static_cast<double>(m.requests);
  }
  MomentAccumulator latency;
  for (auto& stripe : latency_stripes_) {
    MomentAccumulator copy;
    {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      copy = stripe.acc;
    }
    latency.merge(std::move(copy));
  }
  if (latency.count() > 0) {
    const auto ps = latency.percentiles({50.0, 90.0, 99.0});
    m.solve_ms_p50 = ps[0];
    m.solve_ms_p90 = ps[1];
    m.solve_ms_p99 = ps[2];
    m.solve_ms_max = latency.moments().max();
  }
  return m;
}

void Engine::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace mtperf::service
