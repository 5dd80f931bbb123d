#include "core/mva_load_dependent.hpp"

#include <cmath>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "core/detail/load_dependent_engine.hpp"

namespace mtperf::core {

MvaResult load_dependent_mva(
    const ClosedNetwork& network, std::span<const double> service_times,
    const std::vector<std::vector<double>>& rate_profiles,
    unsigned max_population) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(service_times.size() == k_count,
                 "one service time per station required");
  MTPERF_REQUIRE(rate_profiles.size() == k_count,
                 "one rate profile per station required");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  for (std::size_t k = 0; k < k_count; ++k) {
    const std::vector<double>& profile = rate_profiles[k];
    const std::string& name = network.station(k).name;
    MTPERF_REQUIRE(!profile.empty(),
                   "station '" + name + "': rate profile is empty");
    double prev = 0.0;
    for (std::size_t j = 0; j < profile.size(); ++j) {
      MTPERF_REQUIRE(std::isfinite(profile[j]) && profile[j] > 0.0,
                     "station '" + name + "': rate multiplier at population " +
                         std::to_string(j + 1) +
                         " must be finite and positive");
      MTPERF_REQUIRE(profile[j] >= prev,
                     "station '" + name +
                         "': rate profile decreases at population " +
                         std::to_string(j + 1) +
                         " (service capacity cannot shrink with occupancy)");
      prev = profile[j];
    }
  }

  std::vector<std::string> names;
  names.reserve(k_count);
  std::vector<detail::LoadDependentStation> stations(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const Station& st = network.station(k);
    names.push_back(st.name);
    detail::LoadDependentStation& u = stations[k];
    u.delay = st.kind == StationKind::kDelay;
    u.visits = st.visits;
    u.service = service_times[k];
    if (!u.delay) u.set_rates(rate_profiles[k]);
  }
  MvaResult result;
  result.reset(std::move(names), max_population);

  for (unsigned n = 1; n <= max_population; ++n) {
    const detail::LoadDependentLevel step =
        detail::load_dependent_step(stations, n, network.think_time());
    const std::size_t level = n - 1;
    result.throughput[level] = step.throughput;
    result.response_time[level] = step.response_time;
    result.cycle_time[level] = step.cycle_time;
    double* const queue_row = result.queue_row(level);
    double* const util_row = result.utilization_row(level);
    double* const residence_row = result.residence_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      queue_row[k] = stations[k].queue;
      util_row[k] = stations[k].util;
      residence_row[k] = stations[k].residence;
    }
  }
  return result;
}

std::vector<std::vector<double>> multiserver_profiles(
    const ClosedNetwork& network) {
  std::vector<std::vector<double>> profiles;
  profiles.reserve(network.size());
  for (const Station& st : network.stations()) {
    std::vector<double>& profile = profiles.emplace_back(st.servers);
    std::iota(profile.begin(), profile.end(), 1.0);
  }
  return profiles;
}

}  // namespace mtperf::core
