#include "core/detail/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "core/detail/multiclass_batch_engine.hpp"

namespace mtperf::core::detail {

// Implementation note — parity with the scalar engine.
//
// Every lane's value chain must be the exact operation sequence of
// detail::run_multiserver_mva: the residence sweep accumulates stations in
// ascending k with the same expressions, the marginal update walks
// occupancies descending with the same single-accumulator weighted tail,
// and the saturation clamps fire on the same comparisons.  The lane-major
// layout only interchanges the *lane* loop to the inside — lanes are
// independent recursions, so vectorizing across them reorders nothing
// within a lane and the batched results are bit-identical to scalar
// solves (the parity tests assert <= 1e-12; in practice the difference is
// zero).
//
// The one deliberate deviation: subnormal marginal stores are flushed to
// exact zero.  A subnormal P_k(j) is below 2^-1022 while the sums it feeds
// — the correction term F, the weighted tail, the probabilities' own
// normalization — are on the order of P_k(0..j*) which the same
// distribution keeps near 1/C_k or larger whenever a tail slot can
// underflow (tails only underflow when the distribution is concentrated
// far below C_k).  The flushed slot therefore sits below half an ulp of
// every exported quantity, and dropping it leaves throughput, residence,
// queue, and utilization bit-identical; what it buys is that the
// underflowed tail stops propagating (zero operands instead of denormal
// assists) and stays out of the clamped support walk below.
//
// Hot-loop shape: the lane dimension is padded to a multiple of kLaneChunk
// and every inner loop runs over a compile-time kLaneChunk-wide chunk with
// unit stride and restrict-qualified pointers.  The constant trip count
// lets the compiler unroll each chunk into a couple of vector ops with no
// prologue/epilogue; at 16-lane blocks a runtime trip count spends more
// cycles on loop setup than on the math.  The two per-level hot functions
// are cloned per ISA (see MTPERF_ISA_CLONES) so a portable binary still
// runs 4- or 8-wide on AVX2/AVX-512 hosts.  This file is compiled with
// -ffp-contract=off (see src/core/CMakeLists.txt): no clone may contract
// a*b+c into an FMA, because the parity contract is bit-identical results
// on every ISA the dispatcher can pick.

#if defined(__clang__)
#define MTPERF_SIMD _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define MTPERF_SIMD _Pragma("GCC ivdep")
#else
#define MTPERF_SIMD
#endif

namespace {

/// Lanes per compile-time inner chunk: one AVX-512 vector, two AVX2
/// vectors, four SSE2 vectors of doubles.  Block lane counts are padded up
/// to a multiple of this; padded lanes run a harmless all-zero recursion
/// (zero demands and visits, unit think time) and are never flushed.
constexpr std::size_t kLaneChunk = 8;

/// Levels of staged output rows flushed to the per-lane results at once.
/// The recursion writes its per-population rows into a lane-major staging
/// window (one contiguous write stream) and transposes a whole window per
/// lane in one pass — interleaving transposed writes to every lane's
/// result each population turns out to be the kernel's dominant cost (3 SoA
/// arrays x L lanes of concurrent write streams defeat the cache).
constexpr std::size_t kLevelWindow = 64;

/// True when 1/d is exactly representable, i.e. d is a power of two.  Then
/// x / d == x * (1/d) bit-for-bit for every x (the quotient is just an
/// exponent shift, exact in IEEE-754 for multiply and divide alike), so the
/// kernel may replace the division without breaking scalar parity.  MVA
/// divisors are small positive integers — server counts and occupancy
/// indices — so this fires for C_k in {1, 2, 4, 8, 16, 32, ...} and for
/// marginal indices j in {1, 2, 4, 8, ...}, which is most of the recursion's
/// division budget (divides are an order of magnitude slower than
/// multiplies and are what the lockstep inner loops otherwise spend their
/// time on).
bool exact_reciprocal(double d) {
  int exponent = 0;
  return d > 0.0 && std::frexp(d, &exponent) == 0.5;
}

/// The per-station structure every lane of a group shares, mirrored into
/// dense arrays exactly like SolverWorkspace::prepare_station_fields.
struct GroupStructure {
  std::size_t k_count = 0;
  std::vector<unsigned> servers;
  std::vector<double> cap;
  std::vector<unsigned char> is_delay;
  /// Marginal slot offsets: station k's P_k(j) lane vectors live at
  /// [p_offset[k], p_offset[k+1]) — zero slots for delay and single-server
  /// stations (the recursion never reads their marginals).
  std::vector<std::size_t> p_offset;

  explicit GroupStructure(const ClosedNetwork& network) {
    k_count = network.size();
    servers.resize(k_count);
    cap.resize(k_count);
    is_delay.resize(k_count);
    p_offset.resize(k_count + 1);
    p_offset[0] = 0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      servers[k] = st.servers;
      cap[k] = static_cast<double>(st.servers);
      is_delay[k] = st.kind == StationKind::kDelay ? 1 : 0;
      const bool marginals = st.servers > 1 && is_delay[k] == 0;
      p_offset[k + 1] = p_offset[k] + (marginals ? st.servers : 0);
    }
  }

  bool matches(const ClosedNetwork& network) const {
    if (network.size() != k_count) return false;
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      if (st.servers != servers[k]) return false;
      if ((st.kind == StationKind::kDelay ? 1 : 0) != is_delay[k]) {
        return false;
      }
    }
    return true;
  }
};

/// Pointer view of one population level's lockstep state, shared by the
/// ISA-cloned hot functions below.  `lanes` is the padded lane stride of
/// every array (a multiple of kLaneChunk).
struct LevelView {
  std::size_t k_count = 0;
  std::size_t lanes = 0;
  const unsigned* servers = nullptr;
  const double* cap = nullptr;
  const unsigned char* is_delay = nullptr;
  const std::size_t* p_offset = nullptr;
  const double* s_now = nullptr;
  const double* visits = nullptr;
  const double* x = nullptr;
  /// Occupancy tables indexed by j in [1, max servers]: 1.0 / j and
  /// whether that reciprocal is exact (j a power of two), hoisted out of
  /// the marginal sweep.
  const double* inv_occ = nullptr;
  const unsigned char* occ_pow2 = nullptr;
  /// Per-station support high-water: the largest occupancy j whose P_k(j)
  /// is nonzero in any lane.  Slots above it are exact zeros, so both
  /// marginal sweeps clamp to it — the support can only grow by one slot
  /// per population level (P_k(j) at level n is built from P_k(j-1) at
  /// level n-1) and it stalls where the tail underflows, which at large
  /// server counts leaves most of the occupancy range permanently zero.
  /// update_level maintains it.
  std::size_t* occ_support = nullptr;
  double* queue = nullptr;
  double* residence = nullptr;
  double* total = nullptr;
  double* util = nullptr;
  double* p = nullptr;
  double* f = nullptr;
  double* xs = nullptr;
  double* wtail = nullptr;
};

// Per-ISA clones of the two per-level hot functions.  GCC emits one body
// per listed target and an ifunc resolver that picks the widest one the
// host supports at load time — the binary stays portable, the hot loops
// still get ymm/zmm vectors on hosts that have them.  With -ffp-contract
// off, every clone executes the same IEEE op sequence, so the pick cannot
// change results.  ThreadSanitizer builds go without: the ifunc
// resolvers run before the TSan runtime starts and crash the binary.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define MTPERF_ISA_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define MTPERF_ISA_CLONES
#endif

/// Residence sweep (Eq. 10/11): stations ascending exactly like the scalar
/// engine; each station's branch is taken once for all lanes.
MTPERF_ISA_CLONES void residence_level(const LevelView& v) {
  const std::size_t L = v.lanes;
  const std::size_t chunks = L / kLaneChunk;
  double* __restrict tot = v.total;
  std::fill(tot, tot + L, 0.0);
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict qk = v.queue + k * L;
    const double* __restrict vk = v.visits + k * L;
    double* __restrict rk = v.residence + k * L;
    if (v.is_delay[k] != 0) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kLaneChunk; ++i) {
          const std::size_t l = b * kLaneChunk + i;
          const double wait = sk[l];
          rk[l] = vk[l] * wait;
          tot[l] += rk[l];
        }
      }
    } else if (v.servers[k] == 1) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kLaneChunk; ++i) {
          const std::size_t l = b * kLaneChunk + i;
          const double wait = sk[l] * (1.0 + qk[l]);
          rk[l] = vk[l] * wait;
          tot[l] += rk[l];
        }
      }
    } else {
      const double c = v.cap[k];
      const unsigned servers = v.servers[k];
      const double* __restrict pk = v.p + v.p_offset[k] * L;
      double* __restrict fl = v.f;
      std::fill(fl, fl + L, 0.0);
      // Occupancy-outer: all lane chunks advance together through the
      // j-walk, so their dependency chains interleave and hide each
      // other's latency (chunk-outer order serializes them and measures
      // 20-50% slower).  Slots above the support high-water are exact
      // zeros — skipping them adds nothing to f and is bit-exact.
      const unsigned j_end = static_cast<unsigned>(
          std::min<std::size_t>(servers - 1, v.occ_support[k] + 1));
      for (unsigned j = 0; j < j_end; ++j) {
        const double w = c - 1.0 - static_cast<double>(j);
        const double* __restrict pj = pk + j * L;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kLaneChunk; ++i) {
            const std::size_t l = b * kLaneChunk + i;
            fl[l] += w * pj[l];
          }
        }
      }
      // Divides dominate the lockstep loops; when c is a power of two the
      // reciprocal multiply is bit-identical (see exact_reciprocal).
      if (exact_reciprocal(c)) {
        const double inv_c = 1.0 / c;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kLaneChunk; ++i) {
            const std::size_t l = b * kLaneChunk + i;
            const double wait = sk[l] * inv_c * (1.0 + qk[l] + fl[l]);
            rk[l] = vk[l] * wait;
            tot[l] += rk[l];
          }
        }
      } else {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kLaneChunk; ++i) {
            const std::size_t l = b * kLaneChunk + i;
            const double wait = sk[l] / c * (1.0 + qk[l] + fl[l]);
            rk[l] = vk[l] * wait;
            tot[l] += rk[l];
          }
        }
      }
    }
  }
}

/// Update sweep: queues, utilizations, marginal distributions — the same
/// expressions, accumulation order, and clamp comparisons as the scalar
/// engine's post-throughput block.
MTPERF_ISA_CLONES void update_level(const LevelView& v) {
  const std::size_t L = v.lanes;
  const std::size_t chunks = L / kLaneChunk;
  const double* __restrict xl = v.x;
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict vk = v.visits + k * L;
    const double* __restrict rk = v.residence + k * L;
    double* __restrict qk = v.queue + k * L;
    double* __restrict uk = v.util + k * L;
    const double c = v.cap[k];
    const bool c_pow2 = exact_reciprocal(c);
    const double inv_c = 1.0 / c;
    if (c_pow2) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kLaneChunk; ++i) {
          const std::size_t l = b * kLaneChunk + i;
          qk[l] = xl[l] * rk[l];
          uk[l] = xl[l] * vk[l] * sk[l] * inv_c;
        }
      }
    } else {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kLaneChunk; ++i) {
          const std::size_t l = b * kLaneChunk + i;
          qk[l] = xl[l] * rk[l];
          uk[l] = xl[l] * vk[l] * sk[l] / c;
        }
      }
    }
    if (v.p_offset[k + 1] == v.p_offset[k]) continue;

    const unsigned servers = v.servers[k];
    double* __restrict pk = v.p + v.p_offset[k] * L;
    double* __restrict xsl = v.xs;
    double* __restrict wt = v.wtail;
    const double* __restrict inv_occ = v.inv_occ;
    const unsigned char* __restrict occ_pow2 = v.occ_pow2;
    for (std::size_t b = 0; b < chunks; ++b) {
      MTPERF_SIMD
      for (std::size_t i = 0; i < kLaneChunk; ++i) {
        const std::size_t l = b * kLaneChunk + i;
        xsl[l] = xl[l] * vk[l] * sk[l];  // expected busy servers
        wt[l] = 0.0;
      }
    }
    // Descending occupancies: writing j reads the previous population's
    // j-1 lane vector, which this sweep has not yet overwritten — same
    // in-place trick as the scalar engine, one lane vector at a time.
    // Occupancy-outer keeps the chunks' divide chains interleaved (see
    // residence_level).
    //
    // The walk is clamped to one slot above the support high-water — every
    // deeper slot reads a zero and writes a zero, so skipping it is exact.
    // Stores flush subnormals to zero (see the implementation note): the
    // slot's contribution to every sum it can ever reach is below half an
    // ulp of that sum, so no exported value changes, and the tail stops
    // burning denormal assists and stops growing.
    const unsigned j_top = static_cast<unsigned>(std::min<std::size_t>(
        servers - 1, v.occ_support[k] + 1));
    constexpr double kTiny = std::numeric_limits<double>::min();
    for (unsigned j = j_top; j >= 1; --j) {
      const double dj = static_cast<double>(j);
      const double w = c - dj;
      double* __restrict pj = pk + j * L;
      const double* __restrict pjm1 = pk + (j - 1) * L;
      if (occ_pow2[j] != 0) {
        const double inv_j = inv_occ[j];
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kLaneChunk; ++i) {
            const std::size_t l = b * kLaneChunk + i;
            const double t = xsl[l] * pjm1[l] * inv_j;
            pj[l] = t >= kTiny ? t : 0.0;
            wt[l] += w * pj[l];
          }
        }
      } else {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kLaneChunk; ++i) {
            const std::size_t l = b * kLaneChunk + i;
            const double t = xsl[l] * pjm1[l] / dj;
            pj[l] = t >= kTiny ? t : 0.0;
            wt[l] += w * pj[l];
          }
        }
      }
    }
    // Saturation clamps are rare per-lane branches; they run scalar over
    // the (strided) lane column.  Lanes at or past saturation were updated
    // above and are overwritten here, matching the scalar engine's
    // early-out state exactly (the transitions are continuous, see
    // multiserver_engine.cpp).
    for (std::size_t l = 0; l < L; ++l) {
      if (xsl[l] >= c) {
        for (unsigned j = 0; j < servers; ++j) pk[j * L + l] = 0.0;
        continue;
      }
      const double idle = c - xsl[l];
      if (wt[l] > idle && wt[l] > 0.0) {
        const double scale = idle / wt[l];
        for (unsigned j = 1; j < servers; ++j) pk[j * L + l] *= scale;
        pk[l] = 0.0;
      } else {
        const double head = idle - wt[l];
        pk[l] = c_pow2 ? head * inv_c : head / c;
      }
    }
    // Re-establish the support high-water: highest occupancy with any
    // nonzero lane.  The walk starts at j_top (nothing above it was
    // touched) and usually stops within a slot or two.
    std::size_t support = 0;
    for (unsigned j = j_top; j >= 1; --j) {
      bool any = false;
      for (std::size_t l = 0; l < L; ++l) any = any || pk[j * L + l] != 0.0;
      if (any) {
        support = j;
        break;
      }
    }
    v.occ_support[k] = support;
  }
}

}  // namespace

bool batchable_solver(SolverKind kind) {
  // Both kinds dispatch to run_multiserver_mva — one recursion, so mixed
  // demand axes (constant, concurrency splines, throughput splines) batch
  // together as long as the station structure matches.
  return kind == SolverKind::kExactMultiserver || kind == SolverKind::kMvasd;
}

std::string batch_structure_key(const ClosedNetwork& network,
                                SolverKind kind) {
  std::string key;
  key.reserve(2 + network.size() * 5);
  key.push_back(static_cast<char>(kind));
  for (const Station& st : network.stations()) {
    const unsigned s = st.servers;
    key.push_back(static_cast<char>(s & 0xFF));
    key.push_back(static_cast<char>((s >> 8) & 0xFF));
    key.push_back(static_cast<char>((s >> 16) & 0xFF));
    key.push_back(static_cast<char>((s >> 24) & 0xFF));
    key.push_back(st.kind == StationKind::kDelay ? 'D' : 'Q');
  }
  return key;
}

BatchPlan plan_batch(const std::vector<const ScenarioSpec*>& specs) {
  BatchPlan plan;
  // Grouping preserves first-seen order for determinism.  Single-class and
  // multiclass groups share one key space: the multiclass key embeds the
  // solver kind, and the kinds are disjoint, so prefixing is unnecessary.
  std::vector<std::string> keys;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<char> group_mc;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = *specs[i];
    std::string key;
    bool mc = false;
    if (batchable_solver(spec.options.solver)) {
      key = batch_structure_key(spec.network, spec.options.solver);
    } else if (multiclass_batchable(spec)) {
      key = multiclass_batch_key(spec);
      mc = true;
    } else {
      plan.scalars.push_back(i);
      continue;
    }
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(std::move(key));
      groups.push_back({i});
      group_mc.push_back(mc ? 1 : 0);
    } else {
      groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& group = groups[g];
    // Deepest lanes first so each block spans a narrow depth range (every
    // lane of a block runs to the block's deepest population; depth-sorted
    // chunks keep that overshoot small).  For multiclass groups the depth
    // is the axis population, and descending order additionally makes the
    // live-lane set a shrinking prefix as the kernel's axis sweep passes
    // shallower lanes.  The stable tiebreak keeps the plan deterministic.
    std::stable_sort(group.begin(), group.end(),
                     [&](std::size_t a, std::size_t b) {
                       return specs[a]->options.max_population >
                              specs[b]->options.max_population;
                     });
    auto& out = group_mc[g] != 0 ? plan.mc_blocks : plan.blocks;
    const std::size_t width =
        group_mc[g] != 0 && specs[group[0]]->options.solver ==
                                SolverKind::kSchweitzerMulticlass
            ? kMcSchweitzerLaneBlock
            : kBatchLaneBlock;
    for (std::size_t at = 0; at < group.size(); at += width) {
      const std::size_t end = std::min(group.size(), at + width);
      out.emplace_back(group.begin() + at, group.begin() + end);
    }
  }
  return plan;
}

std::vector<MvaResult> solve_lane_block(std::vector<BatchLane>& lanes) {
  MTPERF_REQUIRE(!lanes.empty(), "batched solve needs at least one lane");
  const GroupStructure st(*lanes[0].network);
  const std::size_t K = st.k_count;
  const std::size_t L = lanes.size();
  // Padded lane stride: the recursion runs over all Lp lanes with
  // compile-time kLaneChunk inner loops; lanes in [L, Lp) are inert
  // padding (zero demands and visits, unit think), never flushed.
  const std::size_t Lp = (L + kLaneChunk - 1) / kLaneChunk * kLaneChunk;

  // Validate the group contract and size each lane's result.
  std::vector<MvaResult> results(L);
  unsigned n_max = 1;
  for (std::size_t l = 0; l < L; ++l) {
    BatchLane& lane = lanes[l];
    MTPERF_REQUIRE(lane.network != nullptr && lane.demands != nullptr,
                   "batch lane needs a network and a demand model");
    MTPERF_REQUIRE(st.matches(*lane.network),
                   "batch lanes must share station structure");
    MTPERF_REQUIRE(lane.demands->stations() == K,
                   "demand model width must match station count");
    MTPERF_REQUIRE(lane.max_population >= 1, "population must be at least 1");
    n_max = std::max(n_max, lane.max_population);
    std::vector<std::string> names;
    names.reserve(K);
    for (const auto& station : lane.network->stations()) {
      names.push_back(station.name);
    }
    results[l].reset(std::move(names), lane.max_population);
  }

  // Per-lane demand access: tabulated lanes read grid rows directly (stride
  // 0 collapses constant models to one shared row, hoisted below);
  // throughput-axis lanes evaluate through a private non-tabulated grid
  // whose monotone cursors make the per-step lookup amortized O(1).
  std::vector<const double*> grid_base(L, nullptr);
  std::vector<std::size_t> grid_stride(L, 0);
  std::vector<std::unique_ptr<DemandGrid>> cursor_grids(L);
  for (std::size_t l = 0; l < L; ++l) {
    BatchLane& lane = lanes[l];
    if (lane.demands->axis() == DemandModel::Axis::kConcurrency) {
      if (lane.grid == nullptr || !lane.grid->tabulated() ||
          lane.grid->max_population() < lane.max_population ||
          lane.grid->stations() != K) {
        lane.grid = std::make_shared<DemandGrid>(
            *lane.demands, lane.max_population, lane.grid.get());
      }
      grid_base[l] = lane.grid->data();
      grid_stride[l] = lane.grid->row_stride();
    } else {
      cursor_grids[l] =
          std::make_unique<DemandGrid>(*lane.demands, lane.max_population);
    }
  }

  // Lane-major state: quantity[k * Lp + l].  One flat allocation per
  // quantity; the batch dimension is contiguous, so the lane loops in the
  // per-level hot functions are unit-stride.
  std::vector<double> queue(K * Lp, 0.0);
  std::vector<double> residence(K * Lp, 0.0);
  std::vector<double> s_now(K * Lp, 0.0);
  std::vector<double> util(K * Lp, 0.0);
  std::vector<double> visits(K * Lp, 0.0);
  std::vector<double> p(st.p_offset[K] * Lp, 0.0);
  std::vector<double> think(Lp, 1.0), total(Lp, 0.0), x(Lp, 0.0);
  std::vector<double> x_prev(Lp, 0.0);
  std::vector<double> f(Lp, 0.0), xs(Lp, 0.0), wtail(Lp, 0.0);
  std::vector<double> scratch(K);

  const unsigned max_servers =
      *std::max_element(st.servers.begin(), st.servers.end());
  std::vector<double> inv_occ(max_servers + 1, 0.0);
  std::vector<unsigned char> occ_pow2(max_servers + 1, 0);
  // At population 0 every marginal distribution is the point mass P_k(0).
  std::vector<std::size_t> occ_support(K, 0);
  for (unsigned j = 1; j <= max_servers; ++j) {
    inv_occ[j] = 1.0 / static_cast<double>(j);
    occ_pow2[j] = exact_reciprocal(static_cast<double>(j)) ? 1 : 0;
  }

  LevelView view;
  view.k_count = K;
  view.lanes = Lp;
  view.servers = st.servers.data();
  view.cap = st.cap.data();
  view.is_delay = st.is_delay.data();
  view.p_offset = st.p_offset.data();
  view.s_now = s_now.data();
  view.visits = visits.data();
  view.x = x.data();
  view.inv_occ = inv_occ.data();
  view.occ_pow2 = occ_pow2.data();
  view.occ_support = occ_support.data();
  view.queue = queue.data();
  view.residence = residence.data();
  view.total = total.data();
  view.util = util.data();
  view.p = p.data();
  view.f = f.data();
  view.xs = xs.data();
  view.wtail = wtail.data();

  // Staged output rows (lane-major, kLevelWindow levels deep) and the
  // flush that transposes a window into each lane's result, one lane at a
  // time.  Window slot w holds level win_start + w; each lane is trimmed
  // to its own population, so lanes running past their depth (and padding
  // lanes) stage rows that simply never reach a result.
  // queue is not staged: queue == x * residence is the recursion's own
  // update expression, so recomputing it lane-by-lane at flush time from
  // the staged throughput and residence is bit-identical and saves a third
  // of the staging traffic.
  std::vector<double> r_hist(kLevelWindow * K * Lp);
  std::vector<double> u_hist(kLevelWindow * K * Lp);
  std::vector<double> x_hist(kLevelWindow * Lp);
  std::vector<double> rt_hist(kLevelWindow * Lp);
  std::size_t win_start = 0;  // first level staged in the current window
  const auto flush_window = [&](std::size_t up_to_level) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t lane_end = std::min<std::size_t>(
          up_to_level, lanes[l].max_population);
      MvaResult& r = results[l];
      const double lane_think = think[l];
      for (std::size_t level = win_start; level < lane_end; ++level) {
        const std::size_t w = level - win_start;
        const double x_at = x_hist[w * Lp + l];
        r.throughput[level] = x_at;
        r.response_time[level] = rt_hist[w * Lp + l];
        r.cycle_time[level] = rt_hist[w * Lp + l] + lane_think;
        const double* __restrict rh = r_hist.data() + w * K * Lp + l;
        const double* __restrict uh = u_hist.data() + w * K * Lp + l;
        double* __restrict qr = r.queue_row(level);
        double* __restrict rr = r.residence_row(level);
        double* __restrict ur = r.utilization_row(level);
        for (std::size_t k = 0; k < K; ++k) {
          const double res_at = rh[k * Lp];
          rr[k] = res_at;
          qr[k] = x_at * res_at;
          ur[k] = uh[k * Lp];
        }
      }
    }
    win_start = up_to_level;
  };

  for (std::size_t l = 0; l < L; ++l) {
    const BatchLane& lane = lanes[l];
    think[l] = lane.network->think_time();
    for (std::size_t k = 0; k < K; ++k) {
      visits[k * Lp + l] = lane.network->station(k).visits;
      if (st.p_offset[k + 1] != st.p_offset[k]) {
        p[st.p_offset[k] * Lp + l] = 1.0;  // P_k(0 | 0) = 1
      }
    }
    // Constant demands never change across populations: gather them once.
    if (grid_base[l] != nullptr && grid_stride[l] == 0) {
      for (std::size_t k = 0; k < K; ++k) {
        s_now[k * Lp + l] = grid_base[l][k];
      }
    }
  }

  for (unsigned n = 1; n <= n_max; ++n) {
    // Demand gather: one tabulated row (contiguous K doubles) per varying
    // lane, transposed into the lane-major buffer.  Lanes shallower than
    // the block run on past their own depth (their rows are never
    // flushed); their demand row is clamped to the last one they own.
    for (std::size_t l = 0; l < L; ++l) {
      if (grid_stride[l] != 0) {
        const std::size_t row_index =
            std::min(n, lanes[l].max_population) - 1;
        const double* row = grid_base[l] + row_index * grid_stride[l];
        for (std::size_t k = 0; k < K; ++k) s_now[k * Lp + l] = row[k];
      } else if (cursor_grids[l] != nullptr) {
        cursor_grids[l]->eval_into(x_prev[l], scratch.data());
        for (std::size_t k = 0; k < K; ++k) s_now[k * Lp + l] = scratch[k];
      }
    }

    residence_level(view);

    for (std::size_t l = 0; l < Lp; ++l) {
      const double cycle = total[l] + think[l];
      MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
      x[l] = static_cast<double>(n) / cycle;
    }

    update_level(view);

    // Stage this population's rows lane-major; they reach the per-lane
    // results when the window flushes (full window or end of recursion).
    const std::size_t w = (n - 1) - win_start;
    std::memcpy(r_hist.data() + w * K * Lp, residence.data(),
                K * Lp * sizeof(double));
    std::memcpy(u_hist.data() + w * K * Lp, util.data(),
                K * Lp * sizeof(double));
    std::memcpy(x_hist.data() + w * Lp, x.data(), Lp * sizeof(double));
    std::memcpy(rt_hist.data() + w * Lp, total.data(), Lp * sizeof(double));
    std::memcpy(x_prev.data(), x.data(), Lp * sizeof(double));
    if (n - win_start == kLevelWindow) flush_window(n);
  }
  flush_window(n_max);
  return results;
}

}  // namespace mtperf::core::detail
