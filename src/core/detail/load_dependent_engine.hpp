// The load-dependent MVA step shared by load_dependent_mva (tabulated rate
// profiles, SolverKind::kLoadDependent) and the hierarchical solver's
// reduced network of flow-equivalent servers.  Not part of the public API.
//
// Reiser & Lavenberg's load-dependent wait sum_j j S/alpha(j) p(j-1|n-1)
// is evaluated in asymptote-plus-correction form — the multiserver
// engine's R = (S/C)(1 + Q + F) generalized to arbitrary non-decreasing
// rate profiles:
//
//   R(n) = (S / a) (1 + Q(n-1) + F),
//   F    = sum_{j=1}^{min(n, m-1)}  j (a / alpha(j) - 1) p(j-1 | n-1),
//
// with anchor a = alpha(min(n, m)) and support m (alpha is flat past m).
// This is an exact regrouping via sum_j j p(j-1) = 1 + Q(n-1), with Q(n-1)
// carried over exactly by Little's law.  Its point is numerical: the
// correction weights vanish as alpha(j) -> a, so the wait never reads the
// high-occupancy marginals — exactly the region where the classic
// recursion loses accuracy once the station saturates (naively summing the
// full marginal ladder there compounds into unbounded throughput past the
// capacity bound).  The saturated bulk enters only through the exact
// Q(n-1) term.
//
// The marginals update descending (each p(j) reads the previous
// population's p(j-1)); p(0) then comes from the flow-balance identity
//
//   a p(0) + sum_{j>=1} (a - alpha(j)) p(j) = a - y,
//
// (y = X V S, the expected capacity in use), never from the
// catastrophically cancelling 1 - sum p(j).  A station pushed past its
// anchor (y >= a) zeroes its marginals: the exact asymptote, as in the
// multiserver engine.  For a C-server station (alpha(j) = min(j, C),
// support C) all of this degenerates to the multiserver engine's own
// recursion, term for term; a single server (support 1) reduces to
// R = S (1 + Q).
//
// Cost: O(sum_k m_k) per population level, so O(N sum_k m_k) for a solve
// to N — never more than the multiserver engine's O(N sum_k C_k) when the
// profiles are multi-server laws.
//
// The regrouping is exact for any anchor a >= alpha(j) over the occupied
// range, and with n customers in the network a station never holds more
// than n, so anchoring at alpha(min(n, m)) means the level-n step reads
// only alpha(1..n): a population prefix of a deep solve is bit-identical
// to a direct shallow solve — the property the service cache's prefix
// reuse depends on.  Utilization reports against the full-depth capacity
// alpha(m), which is population-independent too.
#pragma once

#include <span>
#include <vector>

namespace mtperf::core::detail {

/// One station in truncated-support form: rate multipliers
/// alpha(1..support), saturated at alpha(support) beyond, and explicit
/// marginals p[0..support-1] (occupancy 0..support-1).  Mass at or beyond
/// the truncation point is never stored: the recursion only reads the
/// marginals through correction weights that vanish there, and the queue
/// carries over exactly via Little's law.
struct LoadDependentStation {
  bool delay = false;
  double visits = 1.0;
  /// Per-visit service time at rate alpha = 1; callers with
  /// concurrency-varying demands refresh it before each step.
  double service = 0.0;
  unsigned support = 1;
  std::vector<double> alpha;  ///< alpha[j] for j = 1..support; alpha[0] unused
  std::vector<double> p;      ///< marginals, occupancy 0..support-1
  // Per-level outputs; queue doubles as the Q(n-1) carry for the wait.
  double residence = 0.0;  ///< V * R (this station's cycle-time share)
  double queue = 0.0;
  double util = 0.0;

  /// Install the profile alpha(1..support) = rates[0..support-1]
  /// (nonempty, non-decreasing) and start from the empty station,
  /// p(0) = 1.
  void set_rates(std::span<const double> rates) {
    alpha.assign(1, 1.0);
    alpha.insert(alpha.end(), rates.begin(), rates.end());
    support = static_cast<unsigned>(rates.size());
    p.assign(support, 0.0);
    p[0] = 1.0;
  }
};

/// System-level outputs of one population level.
struct LoadDependentLevel {
  double throughput = 0.0;
  double response_time = 0.0;  ///< sum of station residences
  double cycle_time = 0.0;     ///< response_time + think
};

/// Advance every station from population n-1 to n: residences from the
/// carried queues and marginals, X(n) by Little's law over the cycle, then
/// each station's queue, utilization and marginal update.  Throws
/// mtperf::invalid_argument_error on a zero cycle time.
LoadDependentLevel load_dependent_step(std::span<LoadDependentStation> stations,
                                       unsigned n, double think);

}  // namespace mtperf::core::detail
