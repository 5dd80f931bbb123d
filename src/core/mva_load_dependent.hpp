// Exact MVA for load-dependent stations (Reiser & Lavenberg), with
// per-station tabulated rate profiles — the form of JMT-style
// load-dependent service arrays and of flow-equivalent-server profiles
// extracted from a subnetwork throughput curve.  A C_k-server queue is the
// load-dependent station with profile {1, 2, ..., C_k}, which is how
// SolverKind::kLoadDependent reads the network (multiserver_profiles).
//
// Runs on the stable asymptote-plus-correction step the hierarchical
// solver shares (core/detail/load_dependent_engine.hpp).  Cost:
// O(N sum_k m_k) time for profiles of length m_k, O(sum_k m_k) space.
#pragma once

#include <span>
#include <vector>

#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core {

/// Solve for populations 1..max_population with constant per-visit service
/// times and per-station rate profiles: rate_profiles[k][j-1] is alpha_k(j),
/// the relative service capacity with j customers present (alpha(1) = 1
/// means S_k is the 1-customer service time).  A profile shorter than
/// max_population saturates — populations beyond its length are served at
/// the last entry.  Delay stations ignore their profile.  Utilization is
/// X V_k S_k / alpha_k(last entry): X V S / C for a C-server profile.
///
/// Validated up front, with violations named per station: every profile
/// must be nonempty, finite and strictly positive at every entry, and
/// non-decreasing (service capacity cannot shrink as the queue grows).
/// Throws mtperf::invalid_argument_error.
MvaResult load_dependent_mva(
    const ClosedNetwork& network, std::span<const double> service_times,
    const std::vector<std::vector<double>>& rate_profiles,
    unsigned max_population);

/// The multi-server law alpha_k(j) = min(j, C_k) of every station of
/// `network`, as the profiles {1, 2, ..., C_k}.
std::vector<std::vector<double>> multiserver_profiles(
    const ClosedNetwork& network);

}  // namespace mtperf::core
