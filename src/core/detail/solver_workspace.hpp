// Reusable per-thread scratch buffers for the MVA solver family.
//
// Every solver iteration needs the same small set of per-station arrays
// (queues, residence times, current demands) plus, for the multi-server
// recursion, per-station marginal queue-size probabilities.  Allocating
// these per solve — let alone per population level, as the seed did for
// utilizations and the vector<vector> marginals — dominates the cost of
// small networks and fragments the heap in scenario sweeps.  The workspace
// hoists them all into one thread_local object: buffers grow to the largest
// network seen on the thread and are then reused allocation-free across
// solves (each pool worker in a parallel sweep owns its own).
#pragma once

#include <cstddef>
#include <vector>

#include "core/network.hpp"

namespace mtperf::core::detail {

struct SolverWorkspace {
  std::vector<double> queue;
  std::vector<double> residence;
  std::vector<double> s_now;

  /// Flattened marginal-probability buffer: station k's slots live at
  /// [p_offset[k], p_offset[k+1]) in `p`.
  std::vector<double> p;
  std::vector<std::size_t> p_offset;

  /// Dense copies of the per-station fields the inner loops touch.  Station
  /// structs carry their name, so iterating network.station(k) strides over
  /// strings; these arrays keep the hot data contiguous.
  std::vector<double> visits;
  std::vector<double> cap;  ///< C_k as double
  std::vector<unsigned> servers;
  std::vector<unsigned char> is_delay;

  /// Size and zero the per-station arrays for a k_count-station network.
  void prepare_stations(std::size_t k_count) {
    queue.assign(k_count, 0.0);
    residence.assign(k_count, 0.0);
    s_now.assign(k_count, 0.0);
  }

  /// Fill the dense station-field mirrors from the network.
  void prepare_station_fields(const ClosedNetwork& network) {
    const std::size_t k_count = network.size();
    visits.resize(k_count);
    cap.resize(k_count);
    servers.resize(k_count);
    is_delay.resize(k_count);
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      visits[k] = st.visits;
      cap[k] = static_cast<double>(st.servers);
      servers[k] = st.servers;
      is_delay[k] = st.kind == StationKind::kDelay ? 1 : 0;
    }
  }

  /// Lay out one marginal slot per server of each station (the exact
  /// multi-server recursion tracks P_k(j), j = 0..C_k-1) and initialize
  /// every distribution to P_k(0) = 1.
  void prepare_marginals(const ClosedNetwork& network) {
    const std::size_t k_count = network.size();
    p_offset.resize(k_count + 1);
    p_offset[0] = 0;
    for (std::size_t k = 0; k < k_count; ++k) {
      p_offset[k + 1] = p_offset[k] + network.station(k).servers;
    }
    p.assign(p_offset[k_count], 0.0);
    for (std::size_t k = 0; k < k_count; ++k) p[p_offset[k]] = 1.0;
  }
};

/// The calling thread's workspace.  Solvers are non-reentrant with respect
/// to it (no solver calls another solver mid-iteration), so one per thread
/// suffices.
SolverWorkspace& tls_solver_workspace();

}  // namespace mtperf::core::detail
