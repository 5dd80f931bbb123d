#include "core/detail/load_dependent_engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mtperf::core::detail {

LoadDependentLevel load_dependent_step(std::span<LoadDependentStation> stations,
                                       unsigned n, double think) {
  double total_vr = 0.0;
  for (LoadDependentStation& u : stations) {
    if (u.delay) {
      u.residence = u.visits * u.service;
      total_vr += u.residence;
      continue;
    }
    const double a = u.alpha[std::min(n, u.support)];
    double f = 0.0;
    const unsigned lim = std::min(n, u.support - 1);
    for (unsigned j = 1; j <= lim; ++j) {
      f += static_cast<double>(j) * (a / u.alpha[j] - 1.0) * u.p[j - 1];
    }
    u.residence = u.visits * u.service / a * (1.0 + u.queue + f);
    total_vr += u.residence;
  }
  const double cycle = total_vr + think;
  MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
  const double x = static_cast<double>(n) / cycle;

  // Marginal updates, queues, utilizations.
  for (LoadDependentStation& u : stations) {
    if (u.delay) {
      u.queue = x * u.residence;
      u.util = x * u.visits * u.service;
      continue;
    }
    const double y = x * u.visits * u.service;
    u.queue = x * u.residence;
    // Utilization is pure reporting (nothing downstream reads it back):
    // offered capacity-in-use over the profile's full truncation-depth
    // capacity — X V S / C for a C-server station.
    u.util = y / u.alpha[u.support];
    const double a = u.alpha[std::min(n, u.support)];
    if (y >= a) {
      // Fully saturated: the correction vanishes and zero marginals are
      // the exact asymptote (R -> (S/a)(1 + Q)).
      std::fill(u.p.begin(), u.p.end(), 0.0);
      continue;
    }
    const unsigned jm = std::min(n, u.support - 1);
    double weighted = 0.0;
    for (unsigned j = jm; j >= 1; --j) {
      u.p[j] = y * u.p[j - 1] / u.alpha[j];
      weighted += (a - u.alpha[j]) * u.p[j];
    }
    // Flow-balance identity for p(0), projected when floating-point
    // drift near saturation overdraws the idle budget.
    const double idle = a - y;
    if (weighted > idle && weighted > 0.0) {
      const double scale = idle / weighted;
      for (unsigned j = 1; j <= jm; ++j) u.p[j] *= scale;
      u.p[0] = 0.0;
    } else {
      u.p[0] = (idle - weighted) / a;
    }
  }
  return LoadDependentLevel{x, total_vr, cycle};
}

}  // namespace mtperf::core::detail
