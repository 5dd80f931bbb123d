// MVASD — the paper's contribution (Algorithm 3).
//
// Exact multi-server MVA in which each station's service demand is not a
// constant but an *array* SS_k^n indexed by concurrency, produced by spline
// interpolation of demands measured at a few load-test points (Service
// Demand Law).  At every population n the recursion re-evaluates the splines
// (Eq. 11), so the predicted throughput/response-time slopes track the
// measured demand variation — the effect plain MVA misses (paper Figs. 4-7).
//
// Two companion variants are provided:
//  * mvasd with a throughput-axis DemandModel — Section 7's variant where
//    demands are interpolated against throughput and looked up with the
//    previous iteration's X (useful when concurrency is not controllable).
//  * mvasd_single_server — the Fig. 8 baseline: the same varying demands but
//    with multi-core CPUs handled by dividing demands by the core count and
//    running the single-server recursion.  The paper shows this
//    normalization is distinctly worse than the exact multi-server model.
#pragma once

#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core {

/// Per-population marginal probabilities of one station (Fig. 3): after
/// the population-n update, rows[n-1][j] holds P_k(j | n) for j in
/// [0, C_k-1] — the probability of j busy servers (no queueing yet).
struct MarginalProbabilityTrace {
  std::vector<std::vector<double>> rows;
};

/// Algorithm 3: exact multi-server MVA with varying service demands.
/// `grid` optionally supplies an already-tabulated DemandGrid for `demands`
/// (same content, tabulated to >= max_population) so the solver skips its
/// own tabulation — the scenario engine's deepen-reuse hook.
MvaResult mvasd(const ClosedNetwork& network, const DemandModel& demands,
                unsigned max_population, const DemandGrid* grid = nullptr);

/// Algorithm 3 with the marginal-probability trajectory of one station.
MvaResult mvasd_traced(const ClosedNetwork& network, const DemandModel& demands,
                       unsigned max_population,
                       const std::string& traced_station,
                       MarginalProbabilityTrace& trace_out);

/// Fig. 8 baseline: varying demands, but every C_k-server station replaced
/// by a single server with demand SS_k^n / C_k (the classic heuristic).
MvaResult mvasd_single_server(const ClosedNetwork& network,
                              const DemandModel& demands,
                              unsigned max_population,
                              const DemandGrid* grid = nullptr);

}  // namespace mtperf::core
