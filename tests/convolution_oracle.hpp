// Test oracle: exact closed product-form network solution by Buzen's
// convolution algorithm, in long double.
//
// Station k contributes the factor f_k(j) = D_k^j / prod_{i=1..j} alpha_k(i)
// (D_k = V_k S_k; a delay station, and the think time, have alpha(i) = i),
// the normalization constant is G(n) = (f_1 * ... * f_K * f_Z)(n), and
//
//   X(n)   = G(n-1) / G(n),
//   Q_k(n) = sum_j j f_k(j) G_{-k}(n-j) / G(n),
//
// with G_{-k} the convolution of every factor but f_k.  Every term of every
// sum is positive, so nothing cancels, and the computation shares no code
// with any MVA recursion — which makes it an independent reference for the
// load-dependent and multiserver kernels.  Cost O(K^2 N^2): test sizes only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/network.hpp"

namespace mtperf::test_oracle {

struct ConvolutionResult {
  std::vector<double> throughput;          ///< X(n), n = 1..N
  std::vector<double> response_time;       ///< n / X(n) - Z
  std::vector<std::vector<double>> queue;  ///< queue[n-1][k] = Q_k(n)
};

/// Solve `network` for populations 1..n_max with per-visit service times
/// `service_times` and rate profiles in load_dependent_mva's convention
/// (rate_profiles[k][j-1] = alpha_k(j), flat past the last entry; delay
/// stations ignore theirs).
inline ConvolutionResult convolution_solve(
    const core::ClosedNetwork& network, std::span<const double> service_times,
    const std::vector<std::vector<double>>& rate_profiles, unsigned n_max) {
  using Series = std::vector<long double>;
  const std::size_t k_count = network.size();
  const std::size_t len = static_cast<std::size_t>(n_max) + 1;

  const auto factor = [len](long double demand, const auto& alpha) {
    Series f(len);
    f[0] = 1.0L;
    for (std::size_t j = 1; j < len; ++j) {
      f[j] = f[j - 1] * demand / alpha(j);
    }
    return f;
  };
  const auto infinite_server = [](std::size_t j) {
    return static_cast<long double>(j);
  };
  const auto convolve = [len](const Series& a, const Series& b) {
    Series c(len, 0.0L);
    for (std::size_t n = 0; n < len; ++n) {
      for (std::size_t j = 0; j <= n; ++j) c[n] += a[j] * b[n - j];
    }
    return c;
  };

  std::vector<Series> factors;
  factors.reserve(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const core::Station& st = network.station(k);
    const long double demand =
        static_cast<long double>(st.visits) * service_times[k];
    if (st.kind == core::StationKind::kDelay) {
      factors.push_back(factor(demand, infinite_server));
    } else {
      const std::vector<double>& profile = rate_profiles[k];
      factors.push_back(factor(demand, [&profile](std::size_t j) {
        return static_cast<long double>(
            profile[std::min(j, profile.size()) - 1]);
      }));
    }
  }
  const Series think = factor(network.think_time(), infinite_server);

  // G_{-k} for every k, then G itself from any one of them.
  std::vector<Series> without(k_count, think);
  for (std::size_t k = 0; k < k_count; ++k) {
    for (std::size_t i = 0; i < k_count; ++i) {
      if (i != k) without[k] = convolve(without[k], factors[i]);
    }
  }
  const Series g = k_count == 0 ? think : convolve(without[0], factors[0]);

  ConvolutionResult out;
  for (std::size_t n = 1; n < len; ++n) {
    const long double x = g[n - 1] / g[n];
    out.throughput.push_back(static_cast<double>(x));
    out.response_time.push_back(static_cast<double>(
        static_cast<long double>(n) / x -
        static_cast<long double>(network.think_time())));
    std::vector<double>& row = out.queue.emplace_back(k_count);
    for (std::size_t k = 0; k < k_count; ++k) {
      long double q = 0.0L;
      for (std::size_t j = 1; j <= n; ++j) {
        q += static_cast<long double>(j) * factors[k][j] * without[k][n - j];
      }
      row[k] = static_cast<double>(q / g[n]);
    }
  }
  return out;
}

}  // namespace mtperf::test_oracle
