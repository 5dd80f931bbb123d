#include "core/mva_interval.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/demand_model.hpp"
#include "core/mvasd.hpp"

namespace mtperf::core {

double IntervalMvaResult::throughput_band_relative(unsigned n) const {
  const double lo = pessimistic.throughput[pessimistic.row_for(n)];
  const double hi = optimistic.throughput[optimistic.row_for(n)];
  const double mid = 0.5 * (lo + hi);
  return mid > 0.0 ? (hi - lo) / mid : 0.0;
}

IntervalMvaResult interval_mva(const ClosedNetwork& network,
                               std::span<const DemandInterval> demands,
                               unsigned max_population) {
  MTPERF_REQUIRE(demands.size() == network.size(),
                 "one demand interval per station required");
  std::vector<double> lower, upper;
  lower.reserve(demands.size());
  upper.reserve(demands.size());
  for (const auto& d : demands) {
    MTPERF_REQUIRE(d.lower >= 0.0 && d.upper >= d.lower,
                   "demand intervals must satisfy 0 <= lower <= upper");
    lower.push_back(d.lower);
    upper.push_back(d.upper);
  }
  IntervalMvaResult result;
  result.optimistic =
      mvasd(network, DemandModel::constant(std::move(lower)), max_population);
  result.pessimistic =
      mvasd(network, DemandModel::constant(std::move(upper)), max_population);
  return result;
}

std::vector<DemandInterval> intervals_around(std::span<const double> nominal,
                                             double relative_half_width) {
  MTPERF_REQUIRE(relative_half_width >= 0.0 && relative_half_width < 1.0,
                 "relative half-width must be in [0, 1)");
  std::vector<DemandInterval> out;
  out.reserve(nominal.size());
  for (double d : nominal) {
    MTPERF_REQUIRE(d >= 0.0, "nominal demands must be non-negative");
    out.push_back(DemandInterval{d * (1.0 - relative_half_width),
                                 d * (1.0 + relative_half_width)});
  }
  return out;
}

}  // namespace mtperf::core
