#include "core/detail/batch_engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include "common/error.hpp"
#include "core/detail/multiclass_batch_engine.hpp"

// GCC warns that returning a lane vector by value has another ABI with and
// without AVX.  The lane vectors below never cross a function boundary
// (every helper is always_inline), so the warning does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

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
// solves.
//
// The one deliberate deviation: marginal slots below DBL_MIN are flushed
// to exact zero.  Such a P_k(j) sits below 2^-1022 while the sums it feeds
// — the correction term F, the weighted tail, the probabilities' own
// normalization — are on the order of P_k(0..j*), which the same
// distribution keeps near 1/C_k or larger whenever a tail slot can
// underflow (tails only underflow when the distribution is concentrated
// far below C_k).  The flushed slot therefore sits below half an ulp of
// every exported quantity, and dropping it leaves throughput, residence,
// queue, and utilization bit-identical; what it buys is that the
// underflowed tail stops propagating and stays out of the clamped support
// walk below.
//
// Loop shape.  Each hot loop works on whole lane vectors (GCC vector
// extensions, one SSE2/AVX2/AVX-512 register of W doubles), so every ISA
// version vectorizes across lanes and never transposes.  The two occupancy
// walks — the correction sum F in residence_level and the marginal update
// in update_level — run one 16-lane group (two 8-lane chunks; a trailing
// chunk alone) at a time over the whole walk, with that group's sums held
// in registers; each lane still adds its terms one at a time in the
// scalar engine's order.  This file is compiled with -ffp-contract=off
// (see src/core/CMakeLists.txt): no a*b+c is contracted, and the only
// FMAs are the explicit ones of the exact division below.
//
// Exact division.  The marginal walk's quotient xs * P(j-1) / j is the
// walk's one divide per slot.  The AVX2 and AVX-512 versions compute it as
// q = a * r_j, q' = fma(fma(-j, q, a), r_j, q) with r_j = RN(1/j): for
// integer j < 2^51 and a normal quotient, q is within two ulps of a/j, the
// residual a - j*q is exact, and q' is the correctly rounded a/j
// (Markstein), so q' == a / j bit for bit.  They carry the dividend
// at 2^64 scale (xs * 2^64, with r_j * 2^-64 and -j * 2^64 to match), which
// yields the same q and q' but keeps the residual a normal number for
// every quotient >= DBL_MIN — see flush-to-zero below.  The SSE2 baseline
// and builds without ISA versions keep the division.
//
// Flush-to-zero.  The marginal walk runs with MXCSR's flush-to-zero bit
// set (not denormals-are-zero), restored when the walk ends.  A product
// or quotient that would round to a subnormal then comes out as zero
// instead of taking a microcode assist; those are exactly the slots the
// DBL_MIN flush above zeroes anyway.  The boundary case — a quotient that
// rounds up to exactly DBL_MIN from below — reads zero under FTZ; it is
// negligible by the same half-ulp argument.  Everything outside the walk
// (tabulation, cursor evaluation, the residence sweep, the Q/U updates,
// the saturation clamps) runs in the caller's mode.

namespace {

/// Lanes per padding chunk: lane counts are padded up to a multiple of
/// this; padded lanes run a harmless all-zero recursion (zero demands and
/// visits, unit think time) and are never flushed.
constexpr std::size_t kLaneChunk = 8;

/// Lanes per occupancy-walk group: two chunks, whose sums the walks keep
/// in registers across all occupancies (two zmm, four ymm or eight xmm).
constexpr std::size_t kLaneGroup = 2 * kLaneChunk;

/// Levels of staged output rows flushed to the per-lane results at once.
/// The recursion writes its per-population rows into a lane-major staging
/// window (one contiguous write stream) and transposes a whole window per
/// lane in one pass — interleaving transposed writes to every lane's
/// result each population turns out to be the kernel's dominant cost (3 SoA
/// arrays x L lanes of concurrent write streams defeat the cache).
constexpr std::size_t kLevelWindow = 64;

/// The exact division's scales (see the implementation note): dividends
/// ride at 2^64, reciprocals at 2^-64.
constexpr double kDividendScale = 0x1p64;
constexpr double kReciprocalScale = 0x1p-64;

#define MTPERF_LANE_INLINE [[gnu::always_inline]] inline

/// W doubles in one vector register, its unaligned memory form, and the
/// matching integer vector (a shuffle mask).
template <int W>
struct Lanes {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
  typedef double memory
      __attribute__((vector_size(W * sizeof(double)), aligned(sizeof(double))));
  typedef long long mask __attribute__((vector_size(W * sizeof(double))));
};

template <int W>
MTPERF_LANE_INLINE typename Lanes<W>::type load(const double* p) {
  return *reinterpret_cast<const typename Lanes<W>::memory*>(p);
}

template <int W>
MTPERF_LANE_INLINE void store(double* p, const typename Lanes<W>::type& v) {
  *reinterpret_cast<typename Lanes<W>::memory*>(p) = v;
}

/// `s` in every lane.  GCC turns the shuffle into one broadcast; an
/// element-wise fill or a brace list compiles to one masked insert per
/// lane.
template <int W>
MTPERF_LANE_INLINE typename Lanes<W>::type splat(double s) {
#if defined(__GNUC__) && !defined(__clang__)
  return __builtin_shuffle(typename Lanes<W>::type{s},
                           typename Lanes<W>::mask{});
#else
  typename Lanes<W>::type v;
  for (int i = 0; i < W; ++i) v[i] = s;
  return v;
#endif
}

/// Lane-wise fused multiply-add, one rounding per lane.
template <int W>
MTPERF_LANE_INLINE typename Lanes<W>::type fma(
    const typename Lanes<W>::type& a, const typename Lanes<W>::type& b,
    const typename Lanes<W>::type& c) {
  typename Lanes<W>::type r;
#pragma GCC unroll 8
  for (int i = 0; i < W; ++i) r[i] = __builtin_fma(a[i], b[i], c[i]);
  return r;
}

/// The exact division's constants for divisor j: r_j * 2^-64 and
/// -j * 2^64 (both exact scalings).
struct Divisor {
  double recip = 0.0;
  double neg_j = 0.0;

  static Divisor of(unsigned j) {
    const double dj = static_cast<double>(j);
    return {1.0 / dj * kReciprocalScale, -dj * kDividendScale};
  }
};

#if defined(__x86_64__) || defined(__i386__)
#define MTPERF_HAS_MXCSR 1
#else
#define MTPERF_HAS_MXCSR 0
#endif

/// MXCSR flush-to-zero for the lifetime of the guard, then the caller's
/// mode back.  Without MXCSR (non-x86) it does nothing and the walk's
/// explicit DBL_MIN select flushes instead.
class FlushToZero {
 public:
#if MTPERF_HAS_MXCSR
  FlushToZero() : saved_(_mm_getcsr()) {
    _mm_setcsr(saved_ | _MM_FLUSH_ZERO_ON);
  }
  ~FlushToZero() { _mm_setcsr(saved_); }

 private:
  unsigned saved_;
#else
  FlushToZero() {}
#endif
};

/// One marginal slot for W lanes: P(j) = xs * P(j-1) / j, zero below
/// DBL_MIN, under FlushToZero.  With kFmaDivide, `xs` arrives scaled by
/// kDividendScale.  Under MXCSR flush-to-zero every result is either zero
/// or at least DBL_MIN (x86 detects tininess after rounding), so the
/// DBL_MIN select is needed only where there is no MXCSR.
template <int W, bool kFmaDivide>
MTPERF_LANE_INLINE typename Lanes<W>::type marginal_slot(
    const typename Lanes<W>::type& xs, const typename Lanes<W>::type& prev,
    unsigned j, const Divisor& d) {
  using V = typename Lanes<W>::type;
  const V a = xs * prev;
  V t;
  if constexpr (kFmaDivide) {
    const V r = splat<W>(d.recip);
    const V q = a * r;
    t = fma<W>(fma<W>(splat<W>(d.neg_j), q, a), r, q);
  } else {
    t = a / static_cast<double>(j);
  }
  if constexpr (!MTPERF_HAS_MXCSR) {
    t = t >= std::numeric_limits<double>::min() ? t : V{};
  }
  return t;
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
/// ISA versions of the hot functions below.  `lanes` is the padded lane
/// stride of every array (a multiple of kLaneChunk).
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
  /// Divisor constants indexed by occupancy j in [1, max servers].
  const Divisor* divisors = nullptr;
  /// Per-station support high-water: the largest occupancy j whose P_k(j)
  /// is nonzero in any lane.  Slots above it are exact zeros, so both
  /// marginal sweeps clamp to it — the support can only grow by one slot
  /// per population level (P_k(j) at level n is built from P_k(j-1) at
  /// level n-1) and it stalls where the tail underflows, which at large
  /// server counts leaves the top of the occupancy range permanently zero.
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

/// F = sum_{j < j_end} (C - 1 - j) P(j) for the G lanes at `pk`, ascending
/// j with one register accumulator per lane vector.
template <int W, std::size_t G>
MTPERF_LANE_INLINE void correction_walk(const double* __restrict pk,
                                        std::size_t L, unsigned j_end,
                                        double c, double* __restrict f) {
  using V = typename Lanes<W>::type;
  constexpr std::size_t U = G / W;
  V acc[U];
#pragma GCC unroll 8
  for (std::size_t u = 0; u < U; ++u) acc[u] = V{};
  // The weight C - 1 - j, stepped down by one: small integers, so every
  // step is exact and equals the scalar engine's expression.
  V w = splat<W>(c - 1.0);
  for (unsigned j = 0; j < j_end; ++j) {
    const double* __restrict pj = pk + j * L;
#pragma GCC unroll 8
    for (std::size_t u = 0; u < U; ++u) acc[u] += w * load<W>(pj + u * W);
    w -= 1.0;
  }
#pragma GCC unroll 8
  for (std::size_t u = 0; u < U; ++u) store<W>(f + u * W, acc[u]);
}

/// The marginal update P(j) for j = j_top..1 and its weighted tail
/// sum_j (C - j) P(j) for the G lanes at `pk`, descending j with one
/// register accumulator per lane vector.  Writing j reads the previous
/// population's j-1 slot, which the descending walk has not yet
/// overwritten — the scalar engine's in-place trick.
template <int W, std::size_t G, bool kFmaDivide>
MTPERF_LANE_INLINE void marginal_walk(double* __restrict pk, std::size_t L,
                                      unsigned j_top, double c,
                                      const double* __restrict xs,
                                      double* __restrict wt,
                                      const Divisor* divisors) {
  using V = typename Lanes<W>::type;
  constexpr std::size_t U = G / W;
  V x[U], acc[U];
#pragma GCC unroll 8
  for (std::size_t u = 0; u < U; ++u) {
    x[u] = load<W>(xs + u * W);
    if constexpr (kFmaDivide) x[u] *= kDividendScale;
    acc[u] = V{};
  }
  // The weight C - j, stepped up by one as j falls (exact, see
  // correction_walk).
  V w = splat<W>(c - static_cast<double>(j_top));
  for (unsigned j = j_top; j >= 1; --j) {
    double* __restrict pj = pk + j * L;
    const double* __restrict pjm1 = pk + (j - 1) * L;
#pragma GCC unroll 8
    for (std::size_t u = 0; u < U; ++u) {
      const V t = marginal_slot<W, kFmaDivide>(x[u], load<W>(pjm1 + u * W),
                                               j, divisors[j]);
      store<W>(pj + u * W, t);
      acc[u] += w * t;
    }
    w += 1.0;
  }
#pragma GCC unroll 8
  for (std::size_t u = 0; u < U; ++u) store<W>(wt + u * W, acc[u]);
}

/// Residence sweep (Eq. 10/11): stations ascending exactly like the scalar
/// engine; each station's branch is taken once for all lanes.
template <int W>
MTPERF_LANE_INLINE void residence_kernel(const LevelView& v) {
  using V = typename Lanes<W>::type;
  const std::size_t L = v.lanes;
  double* __restrict tot = v.total;
  std::fill(tot, tot + L, 0.0);
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict qk = v.queue + k * L;
    const double* __restrict vk = v.visits + k * L;
    double* __restrict rk = v.residence + k * L;
    if (v.is_delay[k] != 0) {
      for (std::size_t l = 0; l < L; l += W) {
        const V r = load<W>(vk + l) * load<W>(sk + l);
        store<W>(rk + l, r);
        store<W>(tot + l, load<W>(tot + l) + r);
      }
    } else if (v.servers[k] == 1) {
      for (std::size_t l = 0; l < L; l += W) {
        const V wait = load<W>(sk + l) * (1.0 + load<W>(qk + l));
        const V r = load<W>(vk + l) * wait;
        store<W>(rk + l, r);
        store<W>(tot + l, load<W>(tot + l) + r);
      }
    } else {
      const double c = v.cap[k];
      const double* __restrict pk = v.p + v.p_offset[k] * L;
      double* __restrict fl = v.f;
      // Slots above the support high-water are exact zeros — skipping them
      // adds nothing to F and is bit-exact.
      const unsigned j_end = static_cast<unsigned>(
          std::min<std::size_t>(v.servers[k] - 1, v.occ_support[k] + 1));
      std::size_t g = 0;
      for (; g + kLaneGroup <= L; g += kLaneGroup) {
        correction_walk<W, kLaneGroup>(pk + g, L, j_end, c, fl + g);
      }
      if (g < L) correction_walk<W, kLaneChunk>(pk + g, L, j_end, c, fl + g);
      for (std::size_t l = 0; l < L; l += W) {
        const V wait = load<W>(sk + l) / c *
                       (1.0 + load<W>(qk + l) + load<W>(fl + l));
        const V r = load<W>(vk + l) * wait;
        store<W>(rk + l, r);
        store<W>(tot + l, load<W>(tot + l) + r);
      }
    }
  }
}

/// Update sweep: queues, utilizations, marginal distributions — the same
/// expressions, accumulation order, and clamp comparisons as the scalar
/// engine's post-throughput block.
template <int W, bool kFmaDivide>
MTPERF_LANE_INLINE void update_kernel(const LevelView& v) {
  using V = typename Lanes<W>::type;
  const std::size_t L = v.lanes;
  const double* __restrict xl = v.x;
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict vk = v.visits + k * L;
    const double* __restrict rk = v.residence + k * L;
    double* __restrict qk = v.queue + k * L;
    double* __restrict uk = v.util + k * L;
    const double c = v.cap[k];
    for (std::size_t l = 0; l < L; l += W) {
      const V x = load<W>(xl + l);
      store<W>(qk + l, x * load<W>(rk + l));
      store<W>(uk + l, x * load<W>(vk + l) * load<W>(sk + l) / c);
    }
    if (v.p_offset[k + 1] == v.p_offset[k]) continue;

    const unsigned servers = v.servers[k];
    double* __restrict pk = v.p + v.p_offset[k] * L;
    double* __restrict xsl = v.xs;
    double* __restrict wt = v.wtail;
    for (std::size_t l = 0; l < L; l += W) {
      // expected busy servers
      store<W>(xsl + l, load<W>(xl + l) * load<W>(vk + l) * load<W>(sk + l));
    }
    // The walk is clamped to one slot above the support high-water — every
    // deeper slot reads a zero and writes a zero, so skipping it is exact.
    const unsigned j_top = static_cast<unsigned>(std::min<std::size_t>(
        servers - 1, v.occ_support[k] + 1));
    {
      [[maybe_unused]] const FlushToZero ftz;
      std::size_t g = 0;
      for (; g + kLaneGroup <= L; g += kLaneGroup) {
        marginal_walk<W, kLaneGroup, kFmaDivide>(pk + g, L, j_top, c, xsl + g,
                                                 wt + g, v.divisors);
      }
      if (g < L) {
        marginal_walk<W, kLaneChunk, kFmaDivide>(pk + g, L, j_top, c, xsl + g,
                                                 wt + g, v.divisors);
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
        pk[l] = (idle - wt[l]) / c;
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

// Per-ISA versions of the two per-level hot functions.  GCC emits one
// body per target and an ifunc resolver that picks the widest one the host
// supports at load time — the binary stays portable, the hot loops still
// get ymm/zmm vectors and the FMA division on hosts that have them.  Every
// version computes the same bits per lane, so the pick cannot change
// results.  ThreadSanitizer builds go without: the ifunc resolvers
// run before the TSan runtime starts and crash the binary.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
__attribute__((target("default"))) void residence_level(const LevelView& v) {
  residence_kernel<2>(v);
}
__attribute__((target("arch=x86-64-v3"))) void residence_level(
    const LevelView& v) {
  residence_kernel<4>(v);
}
__attribute__((target("arch=x86-64-v4"))) void residence_level(
    const LevelView& v) {
  residence_kernel<8>(v);
}
__attribute__((target("default"))) void update_level(const LevelView& v) {
  update_kernel<2, false>(v);
}
__attribute__((target("arch=x86-64-v3"))) void update_level(
    const LevelView& v) {
  update_kernel<4, true>(v);
}
__attribute__((target("arch=x86-64-v4"))) void update_level(
    const LevelView& v) {
  update_kernel<8, true>(v);
}
#else
void residence_level(const LevelView& v) { residence_kernel<2>(v); }
void update_level(const LevelView& v) { update_kernel<2, false>(v); }
#endif

}  // namespace

double marginal_step(double xs, double p_prev, unsigned j, bool fma_divide) {
  MTPERF_REQUIRE(j >= 1, "marginal occupancy must be at least 1");
  using V = Lanes<1>::type;
  const Divisor d = Divisor::of(j);
  [[maybe_unused]] const FlushToZero ftz;
  const V t = fma_divide
                  ? marginal_slot<1, true>(V{xs * kDividendScale}, V{p_prev},
                                           j, d)
                  : marginal_slot<1, false>(V{xs}, V{p_prev}, j, d);
  return t[0];
}

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

BatchPlan plan_batch(const std::vector<const ScenarioSpec*>& specs,
                     std::size_t threads) {
  MTPERF_REQUIRE(threads >= 1, "a batch plan needs at least one thread");
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
    const std::size_t size = group.size();
    const std::size_t whole_blocks = (size + width - 1) / width;
    if (group_mc[g] != 0 || size <= width || whole_blocks >= threads) {
      for (std::size_t at = 0; at < size; at += width) {
        const std::size_t end = std::min(size, at + width);
        out.emplace_back(group.begin() + at, group.begin() + end);
      }
      continue;
    }
    // A single-class group that would leave threads idle: cut it into one
    // block per thread (or per chunk, when there are fewer chunks) of
    // whole kLaneChunk chunks.  The first `extra` blocks take one chunk
    // more, and the group's partial chunk goes to the last of those
    // largest blocks, so block sizes never increase down the list and
    // parallel_for's in-order handout starts the longest block first.
    // The chunks are the ones the one-block-per-16 cut pads to, so the
    // kernel solves no more padded lanes than it would have.
    const std::size_t chunks = (size + kLaneChunk - 1) / kLaneChunk;
    const std::size_t parts = std::min(threads, chunks);
    const std::size_t base = chunks / parts;
    const std::size_t extra = chunks % parts;
    const std::size_t partial_block = extra > 0 ? extra - 1 : parts - 1;
    const std::size_t pad = chunks * kLaneChunk - size;
    std::size_t at = 0;
    for (std::size_t b = 0; b < parts; ++b) {
      std::size_t lanes = (base + (b < extra ? 1 : 0)) * kLaneChunk;
      if (b == partial_block) lanes -= pad;
      out.emplace_back(group.begin() + at, group.begin() + at + lanes);
      at += lanes;
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

  std::vector<Divisor> divisors(
      *std::max_element(st.servers.begin(), st.servers.end()) + 1);
  for (unsigned j = 1; j < divisors.size(); ++j) divisors[j] = Divisor::of(j);
  // At population 0 every marginal distribution is the point mass P_k(0).
  std::vector<std::size_t> occ_support(K, 0);

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
  view.divisors = divisors.data();
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
