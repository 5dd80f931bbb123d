#include "core/detail/multiclass_batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/multiclass_engine.hpp"

namespace mtperf::core::detail {

// Implementation note — parity with the scalar engines.
//
// Every lane's value chain must be the exact operation sequence of
// detail::schweitzer_multiclass_engine / detail::exact_multiclass_engine:
// residence sweeps accumulate stations in ascending k with the same
// expressions, the Schweitzer "queue seen on arrival" sum starts with the
// own-class discounted term and adds the other classes in ascending index
// order, and the exact lattice is swept in the same lexicographic vector
// order.  The lane-major layout only interchanges the *lane* loop to the
// inside — lanes are independent recursions, so vectorizing across them
// reorders nothing within a lane and the batched results are bit-identical
// to scalar solves (the parity tests assert <= 1e-12; in practice the
// difference is zero).  Row assembly goes through the very
// assemble_multiclass_level the scalar engines call.
//
// Two scalar-visible values are hoisted, both bit-exactly: the Schweitzer
// discount (nc - 1)/nc (recomputed per station by the scalar engine from
// the same operands — one division per class per iteration here) and the
// cold-start spread level_pops[c]/K (same operands per station).
//
// Per-lane convergence is handled by *freezing*: the Schweitzer fixed
// point keeps iterating until every live lane has converged, and the first
// iteration whose per-lane max update delta drops below that lane's
// tolerance snapshots the lane's x/r/residence into its result row — the
// exact state the scalar engine stops with.  Frozen lanes keep iterating
// harmlessly (lanes are independent; masking them per-lane would put a
// branch in the hot loop), and a live lane that exhausts its own iteration
// budget throws the scalar engine's numeric_error verbatim.
//
// Hot-loop shape mirrors batch_engine.cpp: the lane dimension is padded to
// a multiple of kLaneChunk and every inner loop runs over a compile-time
// kLaneChunk-wide chunk with unit stride and restrict-qualified pointers;
// the per-iteration hot functions are cloned per ISA.  This file is
// compiled with -ffp-contract=off (see src/core/CMakeLists.txt): no clone
// may contract a*b+c into an FMA, because the parity contract is
// bit-identical results on every ISA the dispatcher can pick.

#if defined(__clang__)
#define MTPERF_MC_SIMD _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define MTPERF_MC_SIMD _Pragma("GCC ivdep")
#else
#define MTPERF_MC_SIMD
#endif

// No clones under ThreadSanitizer, as in batch_engine.cpp.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define MTPERF_MC_ISA_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define MTPERF_MC_ISA_CLONES
#endif

namespace {

/// Lanes per compile-time inner chunk, matching the single-class kernel.
constexpr std::size_t kMcLaneChunk = 8;

/// Batch state budget of the exact lattice: a spec is lockstep-batchable
/// only while lattice-states * stations stays within this, so a full
/// kBatchLaneBlock-lane block's lane-major Q lattice tops out near 512 MiB.
/// Deliberately far tighter than the scalar engine's 2^28 guard — anything
/// the batch admits is trivially scalar-solvable, and anything past it
/// still solves through the scalar fallback.
constexpr std::size_t kMaxExactBatchSpace = std::size_t{1} << 22;

void append_u32(std::string& key, unsigned v) {
  key.push_back(static_cast<char>(v & 0xFF));
  key.push_back(static_cast<char>((v >> 8) & 0xFF));
  key.push_back(static_cast<char>((v >> 16) & 0xFF));
  key.push_back(static_cast<char>((v >> 24) & 0xFF));
}

/// Per-class demand-model shape byte: the grouping key separates constant
/// demand vectors, constant models, and genuinely varying models so every
/// lane of a block gathers demand rows the same way.
char class_shape(const CustomerClass& cls) {
  if (cls.demand_model == nullptr) return 'c';
  return cls.demand_model->is_constant() ? 'k' : 'v';
}

/// The per-station structure every lane of a group shares (multiclass
/// validation restricts stations to single-server queueing or delay, so
/// only the kind flag matters at solve time; server counts still key the
/// group for error parity).
struct McGroupStructure {
  std::size_t k_count = 0;
  std::vector<unsigned> servers;
  std::vector<unsigned char> is_delay;

  explicit McGroupStructure(const ClosedNetwork& network) {
    k_count = network.size();
    servers.resize(k_count);
    is_delay.resize(k_count);
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      servers[k] = st.servers;
      is_delay[k] = st.kind == StationKind::kDelay ? 1 : 0;
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

/// Pointer view of one level's lockstep Schweitzer fixed point.  `lanes`
/// is the padded live-lane prefix this level runs over; `stride` is the
/// padded lane stride of every array (both multiples of kMcLaneChunk);
/// `real_lanes` bounds the bookkeeping scans (freeze / exhaustion) to
/// actual lanes.
struct McSchweitzerView {
  std::size_t c_count = 0;
  std::size_t k_count = 0;
  std::size_t lanes = 0;
  std::size_t real_lanes = 0;
  std::size_t stride = 0;
  const unsigned char* is_delay = nullptr;
  const unsigned char* class_active = nullptr;
  const double* d = nullptr;      ///< [(c * K + k) * stride + l]
  const double* npop = nullptr;   ///< [c * stride + l], level populations
  const double* think = nullptr;  ///< [c * stride + l]
  const double* disc = nullptr;   ///< [c * stride + l] = (n_c - 1)/n_c
  double* q = nullptr;            ///< [(c * K + k) * stride + l]
  double* res = nullptr;
  double* r = nullptr;  ///< [c * stride + l]
  double* x = nullptr;
  double* tot = nullptr;        ///< [stride] scratch
  double* seen = nullptr;       ///< [stride] scratch
  double* delta_max = nullptr;  ///< [stride] scratch
  const double* tol = nullptr;         ///< [stride] per-lane tolerance
  const unsigned* max_iter = nullptr;  ///< [stride] per-lane budget
  /// Per-lane live flag for this level (depth >= t); frozen in place as
  /// lanes converge.
  unsigned char* live = nullptr;
  /// Out: per-lane freeze iteration, and the frozen snapshot of the
  /// converged state (x / r / residence at the convergence iteration —
  /// exactly where the scalar engine stops; the block keeps iterating the
  /// already-frozen lanes harmlessly).
  unsigned* iters = nullptr;
  double* snap_x = nullptr;    ///< [c * stride + l]
  double* snap_r = nullptr;    ///< [c * stride + l]
  double* snap_res = nullptr;  ///< [(c * K + k) * stride + l]
};

/// Run one axis level's whole fixed point in lockstep: the scalar engine's
/// two phases (residence / throughput compute, then queue update with the
/// convergence deltas) per iteration, freezing each lane's snapshot the
/// first time its max update delta drops below its tolerance.  NaN deltas
/// never raise delta_max, matching the scalar engine's `|delta| >=
/// tolerance` test which a NaN also fails.  Returns the first lane to
/// exhaust its iteration budget, or SIZE_MAX when every live lane froze.
MTPERF_MC_ISA_CLONES std::size_t mc_schweitzer_level(
    const McSchweitzerView& v) {
  const std::size_t L = v.lanes;
  const std::size_t S = v.stride;
  const std::size_t scan = std::min(L, v.real_lanes);
  std::size_t unfrozen = 0;
  for (std::size_t l = 0; l < scan; ++l) unfrozen += v.live[l];
  // Exhaustion checks only run when the iteration counter reaches the
  // smallest live budget (recomputed when that lane freezes first).
  unsigned cap = static_cast<unsigned>(-1);
  for (std::size_t l = 0; l < scan; ++l) {
    if (v.live[l] != 0 && v.max_iter[l] < cap) cap = v.max_iter[l];
  }
  unsigned it = 0;
  while (unfrozen > 0) {
    if (it >= cap) {
      for (std::size_t l = 0; l < scan; ++l) {
        if (v.live[l] != 0 && it >= v.max_iter[l]) return l;
      }
      cap = static_cast<unsigned>(-1);
      for (std::size_t l = 0; l < scan; ++l) {
        if (v.live[l] != 0 && v.max_iter[l] < cap) cap = v.max_iter[l];
      }
    }
    // Compute phase: per active class, residence sweep and throughput.
    // Every lane loop runs the full padded range with a *runtime* bound:
    // a compile-time trip count would be fully unrolled into scalar code
    // before GCC's loop vectorizer runs, which is exactly the
    // deoptimization this shape avoids.
    for (std::size_t c = 0; c < v.c_count; ++c) {
      if (v.class_active[c] == 0) continue;
      const double* __restrict discc = v.disc + c * S;
      const double* __restrict tc = v.think + c * S;
      const double* __restrict nc = v.npop + c * S;
      double* __restrict rc = v.r + c * S;
      double* __restrict xc = v.x + c * S;
      double* __restrict tot = v.tot;
      MTPERF_MC_SIMD
      for (std::size_t l = 0; l < L; ++l) tot[l] = 0.0;
      for (std::size_t k = 0; k < v.k_count; ++k) {
        const double* __restrict dk = v.d + (c * v.k_count + k) * S;
        double* __restrict rk = v.res + (c * v.k_count + k) * S;
        if (v.is_delay[k] != 0) {
          MTPERF_MC_SIMD
          for (std::size_t l = 0; l < L; ++l) {
            rk[l] = dk[l];
            tot[l] += dk[l];
          }
        } else {
          // Queue seen on arrival: own class discounted by (n_c - 1)/n_c,
          // other classes in full, ascending class order like the scalar
          // engine (inactive classes' queues are exact zeros — adding
          // them is bit-neutral and keeps the sum uniform).  Mixes of up
          // to four classes — the common case — run the whole station as
          // one fused pass with the other-class rows pinned; bigger mixes
          // fall back to one accumulation pass per class.
          const double* __restrict qc = v.q + (c * v.k_count + k) * S;
          const double* o[3] = {nullptr, nullptr, nullptr};
          std::size_t n_o = 0;
          for (std::size_t d2 = 0; d2 < v.c_count && n_o < 3; ++d2) {
            if (d2 != c) o[n_o++] = v.q + (d2 * v.k_count + k) * S;
          }
          if (v.c_count == 1) {
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              const double wait = dk[l] * (1.0 + discc[l] * qc[l]);
              rk[l] = wait;
              tot[l] += wait;
            }
          } else if (v.c_count == 2) {
            const double* __restrict q0 = o[0];
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              double s = discc[l] * qc[l];
              s += q0[l];
              const double wait = dk[l] * (1.0 + s);
              rk[l] = wait;
              tot[l] += wait;
            }
          } else if (v.c_count == 3) {
            const double* __restrict q0 = o[0];
            const double* __restrict q1 = o[1];
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              double s = discc[l] * qc[l];
              s += q0[l];
              s += q1[l];
              const double wait = dk[l] * (1.0 + s);
              rk[l] = wait;
              tot[l] += wait;
            }
          } else if (v.c_count == 4) {
            const double* __restrict q0 = o[0];
            const double* __restrict q1 = o[1];
            const double* __restrict q2 = o[2];
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              double s = discc[l] * qc[l];
              s += q0[l];
              s += q1[l];
              s += q2[l];
              const double wait = dk[l] * (1.0 + s);
              rk[l] = wait;
              tot[l] += wait;
            }
          } else {
            double* __restrict seen = v.seen;
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              seen[l] = discc[l] * qc[l];
            }
            for (std::size_t d2 = 0; d2 < v.c_count; ++d2) {
              if (d2 == c) continue;
              const double* __restrict qd = v.q + (d2 * v.k_count + k) * S;
              MTPERF_MC_SIMD
              for (std::size_t l = 0; l < L; ++l) {
                seen[l] += qd[l];
              }
            }
            MTPERF_MC_SIMD
            for (std::size_t l = 0; l < L; ++l) {
              const double wait = dk[l] * (1.0 + seen[l]);
              rk[l] = wait;
              tot[l] += wait;
            }
          }
        }
      }
      MTPERF_MC_SIMD
      for (std::size_t l = 0; l < L; ++l) {
        rc[l] = tot[l];
        xc[l] = nc[l] / (tc[l] + tot[l]);
      }
    }
    // Update phase: queue iterate + per-lane max update delta.
    double* __restrict dm = v.delta_max;
    MTPERF_MC_SIMD
    for (std::size_t l = 0; l < L; ++l) dm[l] = 0.0;
    for (std::size_t c = 0; c < v.c_count; ++c) {
      if (v.class_active[c] == 0) continue;
      const double* __restrict xc = v.x + c * S;
      for (std::size_t k = 0; k < v.k_count; ++k) {
        const double* __restrict rk = v.res + (c * v.k_count + k) * S;
        double* __restrict qc = v.q + (c * v.k_count + k) * S;
        MTPERF_MC_SIMD
        for (std::size_t l = 0; l < L; ++l) {
          const double updated = xc[l] * rk[l];
          const double delta = std::fabs(updated - qc[l]);
          dm[l] = delta > dm[l] ? delta : dm[l];
          qc[l] = updated;
        }
      }
    }
    ++it;
    // Freeze scan: converged lanes snapshot the state the scalar engine
    // stops with (runs once per lane per level — off the hot path).
    for (std::size_t l = 0; l < scan; ++l) {
      if (v.live[l] == 0 || !(dm[l] < v.tol[l])) continue;
      v.live[l] = 0;
      --unfrozen;
      v.iters[l] = it;
      for (std::size_t c = 0; c < v.c_count; ++c) {
        v.snap_x[c * S + l] = v.x[c * S + l];
        v.snap_r[c * S + l] = v.r[c * S + l];
        for (std::size_t k = 0; k < v.k_count; ++k) {
          const std::size_t at = (c * v.k_count + k) * S + l;
          v.snap_res[at] = v.res[at];
        }
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Pointer view of one exact-lattice population vector.  `dt` points at
/// the lane-major demand rows of the vector's total population; `idx` is
/// the vector's mixed-radix lattice index.
struct McExactView {
  std::size_t c_count = 0;
  std::size_t k_count = 0;
  std::size_t lanes = 0;
  std::size_t stride = 0;
  const unsigned char* is_delay = nullptr;
  const unsigned* digits = nullptr;        ///< n_c of the current vector
  const std::size_t* lattice_stride = nullptr;
  std::size_t idx = 0;
  const double* dt = nullptr;     ///< [(c * K + k) * stride + l]
  const double* think = nullptr;  ///< [c * stride + l]
  double* q = nullptr;            ///< [(index * K + k) * stride + l]
  double* res = nullptr;          ///< [(c * K + k) * stride + l]
  double* r = nullptr;            ///< [c * stride + l]
  double* x = nullptr;
  double* tot = nullptr;  ///< [stride] scratch
};

/// One exact-recursion vector: the arrival-theorem residence sweep per
/// active class, then the vector's total-queue row — the scalar engine's
/// per-vector body over all lanes at once.
MTPERF_MC_ISA_CLONES void mc_exact_vector(const McExactView& v) {
  const std::size_t L = v.lanes;
  const std::size_t S = v.stride;
  const std::size_t chunks = L / kMcLaneChunk;
  for (std::size_t c = 0; c < v.c_count; ++c) {
    if (v.digits[c] == 0) continue;
    // Arrival theorem: class-c customers see the queue of n - e_c.
    const std::size_t prev = v.idx - v.lattice_stride[c];
    const double nc = static_cast<double>(v.digits[c]);
    double* __restrict tot = v.tot;
    std::fill(tot, tot + L, 0.0);
    for (std::size_t k = 0; k < v.k_count; ++k) {
      const double* __restrict dk = v.dt + (c * v.k_count + k) * S;
      double* __restrict rk = v.res + (c * v.k_count + k) * S;
      if (v.is_delay[k] != 0) {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_MC_SIMD
          for (std::size_t i = 0; i < kMcLaneChunk; ++i) {
            const std::size_t l = b * kMcLaneChunk + i;
            rk[l] = dk[l];
            tot[l] += rk[l];
          }
        }
      } else {
        const double* __restrict qp = v.q + (prev * v.k_count + k) * S;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_MC_SIMD
          for (std::size_t i = 0; i < kMcLaneChunk; ++i) {
            const std::size_t l = b * kMcLaneChunk + i;
            const double wait = dk[l] * (1.0 + qp[l]);
            rk[l] = wait;
            tot[l] += wait;
          }
        }
      }
    }
    const double* __restrict tc = v.think + c * S;
    double* __restrict rc = v.r + c * S;
    double* __restrict xc = v.x + c * S;
    for (std::size_t b = 0; b < chunks; ++b) {
      MTPERF_MC_SIMD
      for (std::size_t i = 0; i < kMcLaneChunk; ++i) {
        const std::size_t l = b * kMcLaneChunk + i;
        rc[l] = tot[l];
        xc[l] = nc / (tc[l] + tot[l]);
      }
    }
  }
  for (std::size_t k = 0; k < v.k_count; ++k) {
    double* __restrict qk = v.q + (v.idx * v.k_count + k) * S;
    std::fill(qk, qk + L, 0.0);
    for (std::size_t c = 0; c < v.c_count; ++c) {
      if (v.digits[c] == 0) continue;
      const double* __restrict xc = v.x + c * S;
      const double* __restrict rk = v.res + (c * v.k_count + k) * S;
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_MC_SIMD
        for (std::size_t i = 0; i < kMcLaneChunk; ++i) {
          const std::size_t l = b * kMcLaneChunk + i;
          qk[l] += xc[l] * rk[l];
        }
      }
    }
  }
}

/// Shared lane validation and sizing: check the group contract the key
/// guarantees, size each lane's result, and return the group structure.
struct McBlockLayout {
  std::size_t c_count = 0;
  std::size_t axis = 0;
  unsigned depth_max = 1;          ///< deepest lane's axis population
  std::vector<unsigned> depth;     ///< per-lane axis population
  std::vector<unsigned> total;     ///< per-lane total mix population
};

McBlockLayout validate_block(SolverKind kind,
                             const McGroupStructure& st,
                             const std::vector<MulticlassBatchLane>& lanes,
                             std::vector<MvaResult>& results) {
  MTPERF_REQUIRE(batchable_multiclass_solver(kind),
                 "multiclass lockstep kernel only runs the series kinds");
  McBlockLayout layout;
  const std::vector<CustomerClass>& first = *lanes[0].classes;
  layout.c_count = first.size();
  layout.axis = multiclass_axis_class(first);
  layout.depth.resize(lanes.size());
  layout.total.resize(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const MulticlassBatchLane& lane = lanes[l];
    MTPERF_REQUIRE(lane.network != nullptr && lane.classes != nullptr,
                   "multiclass batch lane needs a network and classes");
    validate_multiclass(*lane.network, *lane.classes);
    MTPERF_REQUIRE(st.matches(*lane.network),
                   "batch lanes must share station structure");
    const std::vector<CustomerClass>& classes = *lane.classes;
    MTPERF_REQUIRE(classes.size() == layout.c_count,
                   "multiclass batch lanes must share the class count");
    MTPERF_REQUIRE(multiclass_axis_class(classes) == layout.axis,
                   "multiclass batch lanes must share the axis class");
    for (std::size_t c = 0; c < layout.c_count; ++c) {
      if (c == layout.axis) continue;
      if (kind == SolverKind::kExactMulticlass) {
        MTPERF_REQUIRE(classes[c].population == first[c].population,
                       "exact multiclass lanes must share non-axis "
                       "populations (lattice strides must agree)");
      } else {
        MTPERF_REQUIRE((classes[c].population > 0) ==
                           (first[c].population > 0),
                       "multiclass batch lanes must share the class "
                       "activity pattern");
      }
    }
    if (kind == SolverKind::kSchweitzerMulticlass) {
      MTPERF_REQUIRE(lane.schweitzer.tolerance > 0.0,
                     "tolerance must be positive");
    }
    layout.depth[l] = classes[layout.axis].population;
    layout.total[l] = multiclass_total_population(classes);
    layout.depth_max = std::max(layout.depth_max, layout.depth[l]);

    std::vector<std::string> names;
    names.reserve(st.k_count);
    for (const auto& station : lane.network->stations()) {
      names.push_back(station.name);
    }
    std::vector<std::string> class_names;
    std::vector<unsigned> class_pops;
    class_names.reserve(layout.c_count);
    class_pops.reserve(layout.c_count);
    for (const auto& cls : classes) {
      class_names.push_back(cls.name);
      class_pops.push_back(cls.population);
    }
    results[l].reset(std::move(names), layout.depth[l]);
    results[l].reset_classes(std::move(class_names), std::move(class_pops));
    results[l].mc_axis = layout.axis;
  }
  return layout;
}

/// Ensure lane.grid is tabulated to the lane's own total population
/// (deepening a leased shallower grid in place, like the single-class
/// kernel does with DemandGrid).
void ensure_lane_grid(MulticlassBatchLane& lane, std::size_t k_count,
                      std::size_t c_count, unsigned total) {
  if (lane.grid == nullptr || lane.grid->max_population() < total ||
      lane.grid->stations() != k_count || lane.grid->classes() != c_count) {
    lane.grid = std::make_shared<MulticlassGrid>(*lane.network, *lane.classes,
                                                 total, lane.grid.get());
  }
}

/// Padded live-lane prefix at axis level `t`: every lane with depth >= t
/// must be covered.  plan_batch orders lanes by descending depth, so the
/// prefix is exactly the live set and shrinks as shallow lanes retire;
/// unsorted callers just compute some retired lanes harmlessly (their
/// demand rows are clamped to their own depth and their rows are never
/// assembled).
std::size_t live_prefix(const std::vector<unsigned>& depth, unsigned t) {
  std::size_t p = 0;
  for (std::size_t l = 0; l < depth.size(); ++l) {
    if (depth[l] >= t) p = l + 1;
  }
  return (p + kMcLaneChunk - 1) / kMcLaneChunk * kMcLaneChunk;
}

/// Strided gather of one lane's frozen level snapshot into the scratch
/// the shared assembly step reads.
void gather_lane_state(const McSchweitzerView& v, std::size_t lane,
                       MulticlassLevelState& s) {
  for (std::size_t c = 0; c < v.c_count; ++c) {
    s.x[c] = v.snap_x[c * v.stride + lane];
    s.r[c] = v.snap_r[c * v.stride + lane];
    for (std::size_t k = 0; k < v.k_count; ++k) {
      s.residence[c * v.k_count + k] =
          v.snap_res[(c * v.k_count + k) * v.stride + lane];
    }
  }
}

std::vector<MvaResult> solve_schweitzer_block(
    const McGroupStructure& st, const McBlockLayout& layout,
    std::vector<MulticlassBatchLane>& lanes, std::vector<MvaResult>& results) {
  const std::size_t K = st.k_count;
  const std::size_t C = layout.c_count;
  const std::size_t L = lanes.size();
  const std::size_t Lp = (L + kMcLaneChunk - 1) / kMcLaneChunk * kMcLaneChunk;
  const std::size_t axis = layout.axis;

  for (std::size_t l = 0; l < L; ++l) {
    ensure_lane_grid(lanes[l], K, C, layout.total[l]);
  }

  // Inactive classes never compute (their queues stay exact zeros, their
  // x/r stay zero — the scalar engine's `continue`); the key guarantees
  // the pattern is uniform across lanes.
  std::vector<unsigned char> active(C, 0);
  for (std::size_t c = 0; c < C; ++c) {
    active[c] = (c == axis || (*lanes[0].classes)[c].population > 0) ? 1 : 0;
  }

  // Per-lane per-class data.  Padding lanes get population 1, think 1 and
  // zero demands: their fixed point lands on x = 1, q = 0 instantly and
  // never produces a NaN or subnormal.
  std::vector<double> npop(C * Lp, 1.0);
  std::vector<double> think(C * Lp, 1.0);
  std::vector<double> disc(C * Lp, 0.0);
  std::vector<unsigned> ipop(C * L, 0);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<CustomerClass>& classes = *lanes[l].classes;
    for (std::size_t c = 0; c < C; ++c) {
      npop[c * Lp + l] = static_cast<double>(classes[c].population);
      think[c * Lp + l] = classes[c].think_time;
      ipop[c * L + l] = classes[c].population;
    }
  }

  // Lockstep state.
  std::vector<double> q(C * K * Lp, 0.0);
  std::vector<double> res(C * K * Lp, 0.0);
  std::vector<double> d(C * K * Lp, 0.0);
  std::vector<double> r(C * Lp, 0.0), x(C * Lp, 0.0);
  std::vector<double> tot(Lp, 0.0), seen(Lp, 0.0), delta_max(Lp, 0.0);
  std::vector<double> snap_x(C * Lp, 0.0), snap_r(C * Lp, 0.0);
  std::vector<double> snap_res(C * K * Lp, 0.0);
  std::vector<double> tol(Lp, 1.0);
  std::vector<unsigned> max_iter(Lp, 0), iters(Lp, 0);
  std::vector<unsigned char> live(Lp, 0);
  for (std::size_t l = 0; l < L; ++l) {
    tol[l] = lanes[l].schweitzer.tolerance;
    max_iter[l] = lanes[l].schweitzer.max_iterations;
  }

  McSchweitzerView view;
  view.c_count = C;
  view.k_count = K;
  view.real_lanes = L;
  view.stride = Lp;
  view.is_delay = st.is_delay.data();
  view.class_active = active.data();
  view.d = d.data();
  view.npop = npop.data();
  view.think = think.data();
  view.disc = disc.data();
  view.q = q.data();
  view.res = res.data();
  view.r = r.data();
  view.x = x.data();
  view.tot = tot.data();
  view.seen = seen.data();
  view.delta_max = delta_max.data();
  view.tol = tol.data();
  view.max_iter = max_iter.data();
  view.live = live.data();
  view.iters = iters.data();
  view.snap_x = snap_x.data();
  view.snap_r = snap_r.data();
  view.snap_res = snap_res.data();

  MulticlassLevelState scratch;
  scratch.resize(C, K);
  std::vector<unsigned> level_pops(C, 0);
  const double k_double = static_cast<double>(K);

  // Each axis level runs its own cold-started lockstep fixed point, so
  // level t is identical to solving every lane's shallower mix directly —
  // the property the cache's mix-prefix reuse requires.
  for (unsigned t = 1; t <= layout.depth_max; ++t) {
    const std::size_t Lt = live_prefix(layout.depth, t);
    view.lanes = Lt;
    const double t_double = static_cast<double>(t);

    // Level populations: the axis class at t, everything else per-lane.
    for (std::size_t l = 0; l < Lt; ++l) {
      npop[axis * Lp + l] = t_double;
    }
    // Hoisted Schweitzer discount (n_c - 1)/n_c and cold-start spread
    // n_c / K — same operands as the scalar engine, computed once.
    for (std::size_t c = 0; c < C; ++c) {
      if (active[c] == 0) continue;
      for (std::size_t l = 0; l < Lt; ++l) {
        const double nc = npop[c * Lp + l];
        disc[c * Lp + l] = (nc - 1.0) / nc;
        const double spread = nc / k_double;
        for (std::size_t k = 0; k < K; ++k) {
          q[(c * K + k) * Lp + l] = spread;
        }
      }
    }
    // Demand gather at the lane's level-t total population; lanes past
    // their own depth (retired lanes inside an unsorted prefix, padded
    // chunk tails) clamp to the deepest row they own.
    for (std::size_t l = 0; l < std::min<std::size_t>(Lt, L); ++l) {
      const unsigned total_n =
          std::min<unsigned>(layout.total[l] - layout.depth[l] + t,
                             layout.total[l]);
      for (std::size_t c = 0; c < C; ++c) {
        const double* row = lanes[l].grid->row(c, total_n);
        for (std::size_t k = 0; k < K; ++k) {
          d[(c * K + k) * Lp + l] = row[k];
        }
      }
    }

    for (std::size_t l = 0; l < Lt; ++l) {
      live[l] = (l < L && layout.depth[l] >= t) ? 1 : 0;
    }
    const std::size_t exhausted = mc_schweitzer_level(view);
    if (exhausted != static_cast<std::size_t>(-1)) {
      throw numeric_error(
          "multi-class Schweitzer MVA did not converge at axis population " +
          std::to_string(t) + " after " +
          std::to_string(lanes[exhausted].schweitzer.max_iterations) +
          " iterations");
    }
    // Assemble each live lane's row from the snapshot frozen at its exact
    // convergence iteration — the state the scalar engine stops with.
    for (std::size_t l = 0; l < L; ++l) {
      if (layout.depth[l] < t) continue;
      results[l].mc_iterations = std::max(results[l].mc_iterations, iters[l]);
      gather_lane_state(view, l, scratch);
      const unsigned total_n = layout.total[l] - layout.depth[l] + t;
      for (std::size_t c = 0; c < C; ++c) {
        scratch.demand_rows[c] = lanes[l].grid->row(c, total_n);
        level_pops[c] = c == axis ? t : ipop[c * L + l];
      }
      assemble_multiclass_level(results[l], t - 1, *lanes[l].classes,
                                level_pops, scratch);
    }
  }
  return std::move(results);
}

std::vector<MvaResult> solve_exact_block(const McGroupStructure& st,
                                         const McBlockLayout& layout,
                                         std::vector<MulticlassBatchLane>& lanes,
                                         std::vector<MvaResult>& results) {
  const std::size_t K = st.k_count;
  const std::size_t C = layout.c_count;
  const std::size_t L = lanes.size();
  const std::size_t Lp = (L + kMcLaneChunk - 1) / kMcLaneChunk * kMcLaneChunk;
  const std::size_t axis = layout.axis;

  for (std::size_t l = 0; l < L; ++l) {
    ensure_lane_grid(lanes[l], K, C, layout.total[l]);
  }

  // Group lattice: non-axis radices are shared (validate_block pinned
  // them), the axis radix is the deepest lane's depth — exactly the
  // deepest lane's own lattice, which passed multiclass_batchable's
  // budget, re-checked here with overflow-safe arithmetic.
  std::vector<unsigned> radix_pop(C);
  const std::vector<CustomerClass>& first = *lanes[0].classes;
  for (std::size_t c = 0; c < C; ++c) {
    radix_pop[c] = c == axis ? layout.depth_max : first[c].population;
  }
  std::vector<std::size_t> stride(C);
  std::size_t states = 1;
  for (std::size_t c = 0; c < C; ++c) {
    stride[c] = states;
    const std::size_t radix = static_cast<std::size_t>(radix_pop[c]) + 1;
    MTPERF_REQUIRE(states <= kMaxExactBatchSpace / radix,
                   "population-vector space too large for the lockstep "
                   "exact multiclass kernel");
    states *= radix;
  }
  MTPERF_REQUIRE(states <= kMaxExactBatchSpace / K,
                 "population-vector space too large for the lockstep exact "
                 "multiclass kernel");

  const unsigned group_total_max =
      *std::max_element(layout.total.begin(), layout.total.end()) -
      *std::min_element(layout.depth.begin(), layout.depth.end()) +
      layout.depth_max;
  // Demand rows pre-transposed lane-major per total population: a fresh
  // gather per lattice vector would double the sweep's memory traffic.
  // Rows past a lane's own total clamp to its deepest row — read only
  // while that lane computes retired garbage, never assembled.
  std::vector<double> dt(static_cast<std::size_t>(group_total_max) * C * K * Lp,
                         0.0);
  std::vector<double> think(C * Lp, 1.0);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<CustomerClass>& classes = *lanes[l].classes;
    for (std::size_t c = 0; c < C; ++c) {
      think[c * Lp + l] = classes[c].think_time;
      for (unsigned n = 1; n <= group_total_max; ++n) {
        const double* row =
            lanes[l].grid->row(c, std::min<unsigned>(n, layout.total[l]));
        double* slot = dt.data() +
                       (static_cast<std::size_t>(n - 1) * C + c) * K * Lp;
        for (std::size_t k = 0; k < K; ++k) {
          slot[k * Lp + l] = row[k];
        }
      }
    }
  }

  // Lane-major lattice and per-vector state.
  std::vector<double> q(states * K * Lp, 0.0);
  std::vector<double> res(C * K * Lp, 0.0);
  std::vector<double> r(C * Lp, 0.0), x(C * Lp, 0.0);
  std::vector<double> tot(Lp, 0.0);

  McExactView view;
  view.c_count = C;
  view.k_count = K;
  view.stride = Lp;
  view.is_delay = st.is_delay.data();
  view.lattice_stride = stride.data();
  view.think = think.data();
  view.q = q.data();
  view.res = res.data();
  view.r = r.data();
  view.x = x.data();
  view.tot = tot.data();

  MulticlassLevelState scratch;
  scratch.resize(C, K);
  std::vector<unsigned> n(C, 0);
  std::vector<unsigned> level_pops(C, 0);

  // The lexicographic sweep varies class 0 fastest, so the axis class is
  // the slowest digit: the lattice advances through axis populations in
  // increasing order, and the live-lane prefix shrinks as the axis digit
  // passes shallower lanes' depths (their recursion is complete — nothing
  // past the prefix is ever read again, because reads only look down the
  // lattice within the current prefix).
  const auto next_vector = [&]() {
    for (std::size_t c = 0; c < C; ++c) {
      if (n[c] < radix_pop[c]) {
        ++n[c];
        return true;
      }
      n[c] = 0;
    }
    return false;
  };

  while (next_vector()) {
    std::size_t idx = 0;
    unsigned total_n = 0;
    for (std::size_t c = 0; c < C; ++c) {
      idx += n[c] * stride[c];
      total_n += n[c];
    }
    view.idx = idx;
    view.digits = n.data();
    view.dt =
        dt.data() + static_cast<std::size_t>(total_n - 1) * C * K * Lp;
    view.lanes = live_prefix(layout.depth, n[axis]);
    mc_exact_vector(view);

    bool at_level = n[axis] >= 1;
    for (std::size_t c = 0; c < C && at_level; ++c) {
      if (c != axis && n[c] != radix_pop[c]) at_level = false;
    }
    if (!at_level) continue;
    for (std::size_t l = 0; l < L; ++l) {
      if (layout.depth[l] < n[axis]) continue;
      for (std::size_t c = 0; c < C; ++c) {
        scratch.x[c] = x[c * Lp + l];
        scratch.r[c] = r[c * Lp + l];
        for (std::size_t k = 0; k < K; ++k) {
          scratch.residence[c * K + k] = res[(c * K + k) * Lp + l];
        }
        scratch.demand_rows[c] = lanes[l].grid->row(c, total_n);
        level_pops[c] = n[c];
      }
      // Classes idle in the whole mix never compute: pin their state to
      // the scalar engine's zeros.
      for (std::size_t c = 0; c < C; ++c) {
        if (n[c] == 0) {
          scratch.x[c] = 0.0;
          scratch.r[c] = 0.0;
        }
      }
      assemble_multiclass_level(results[l], n[axis] - 1, *lanes[l].classes,
                                level_pops, scratch);
    }
  }
  return std::move(results);
}

}  // namespace

bool batchable_multiclass_solver(SolverKind kind) {
  return kind == SolverKind::kExactMulticlass ||
         kind == SolverKind::kSchweitzerMulticlass;
}

bool multiclass_batchable(const ScenarioSpec& spec) {
  if (!batchable_multiclass_solver(spec.options.solver)) return false;
  const std::vector<CustomerClass>& classes = spec.options.classes;
  if (classes.empty()) return false;
  bool any = false;
  for (const auto& cls : classes) any = any || cls.population > 0;
  if (!any) return false;
  // The facade's axis-depth invariant: a spec that violates it belongs on
  // the scalar path, where solve() raises the canonical error.
  const std::size_t axis = multiclass_axis_class(classes);
  if (spec.options.max_population != classes[axis].population) return false;
  if (spec.options.solver == SolverKind::kExactMulticlass) {
    const std::size_t k_count = spec.network.size();
    if (k_count == 0) return false;
    std::size_t states = 1;
    for (const auto& cls : classes) {
      const std::size_t radix = static_cast<std::size_t>(cls.population) + 1;
      if (states > kMaxExactBatchSpace / radix) return false;
      states *= radix;
    }
    if (states > kMaxExactBatchSpace / k_count) return false;
  }
  return true;
}

std::string multiclass_batch_key(const ScenarioSpec& spec) {
  const std::vector<CustomerClass>& classes = spec.options.classes;
  const std::size_t axis = multiclass_axis_class(classes);
  std::string key;
  key.reserve(2 + spec.network.size() * 5 + 10 + classes.size() * 6);
  key.push_back(static_cast<char>(spec.options.solver));
  for (const Station& st : spec.network.stations()) {
    append_u32(key, st.servers);
    key.push_back(st.kind == StationKind::kDelay ? 'D' : 'Q');
  }
  append_u32(key, static_cast<unsigned>(classes.size()));
  append_u32(key, static_cast<unsigned>(axis));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    key.push_back(class_shape(classes[c]));
    if (c == axis) continue;  // axis depth is per-lane data (ragged batches)
    if (spec.options.solver == SolverKind::kExactMulticlass) {
      append_u32(key, classes[c].population);
    } else {
      key.push_back(classes[c].population > 0 ? '1' : '0');
    }
  }
  return key;
}

std::vector<MvaResult> solve_multiclass_lane_block(
    SolverKind kind, std::vector<MulticlassBatchLane>& lanes) {
  MTPERF_REQUIRE(!lanes.empty(), "batched solve needs at least one lane");
  const McGroupStructure st(*lanes[0].network);
  std::vector<MvaResult> results(lanes.size());
  const McBlockLayout layout = validate_block(kind, st, lanes, results);
  if (kind == SolverKind::kExactMulticlass) {
    return solve_exact_block(st, layout, lanes, results);
  }
  return solve_schweitzer_block(st, layout, lanes, results);
}

}  // namespace mtperf::core::detail
