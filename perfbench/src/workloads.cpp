#include "workloads.hpp"

#include <cmath>
#include <cstdio>

#include "common/rng.hpp"

namespace perfbench {

std::vector<std::string> ServerFlags::argv(
    const std::string& server_bin) const {
  return {server_bin,
          "--port", "0",
          "--threads", std::to_string(threads),
          "--batch-size", std::to_string(batch_size),
          "--batch-deadline-us", std::to_string(batch_deadline_us),
          "--queue-capacity", std::to_string(queue_capacity),
          "--cache-capacity", std::to_string(cache_capacity)};
}

namespace {

// --- deterministic draws ---------------------------------------------------

/// A uniform 64-bit draw keyed by (seed, stream, a, b).
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                   std::uint64_t b = 0) {
  mtperf::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull ^ stream << 56 ^
                        a * 0xD1B54A32D192ED03ull ^ b * 0x8CB92BA72F3D8DD7ull);
  sm.next();
  return sm.next();
}

/// A uniform draw in [0, 1).
double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
            std::uint64_t b = 0) {
  return static_cast<double>(draw(seed, stream, a, b) >> 11) * 0x1.0p-53;
}

enum Stream : std::uint64_t {
  kPick = 1,      // request class of an id
  kVariant = 2,   // which structure an id reuses
  kDepth = 3,     // population of an id
  kDemand = 4,    // per-station demand jitter of a structure
  kWmDepth = 5,   // deepest population of a workmodel structure
  kFleetDepth = 6,
};

// --- fleet (bench/loadgen_serve's 12-station corpus) -----------------------

constexpr const char* kStations[] = {
    "load/cpu", "load/disk", "load/net-tx", "load/net-rx",
    "app/cpu",  "app/disk",  "app/net-tx",  "app/net-rx",
    "db/cpu",   "db/disk",   "db/net-tx",   "db/net-rx",
};
constexpr double kBaseDemand[] = {0.004, 0.010, 0.002, 0.002, 0.012, 0.008,
                                  0.003, 0.003, 0.020, 0.034, 0.004, 0.004};
constexpr std::size_t kStationCount = 12;
constexpr int servers_of(std::size_t k) { return k % 4 == 0 ? 128 : 1; }

/// Knots of the concurrency-axis demand splines: measured demands fall as
/// concurrency rises and level off (the paper's varying service demands).
constexpr double kKnots[] = {1, 100, 300, 600, 1000, 1500};

void append(std::string& s, const char* fmt, auto... args) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  s.append(buf, static_cast<std::size_t>(n));
}

void append_header(std::string& line, std::uint64_t id, const char* prefix,
                   std::uint64_t variant) {
  append(line, "{\"id\":%llu,\"label\":\"%s-%llu\",",
         static_cast<unsigned long long>(id), prefix,
         static_cast<unsigned long long>(variant));
}

/// One fleet request.  `variant` fixes the demand curves (same variant and
/// seed = same fingerprint); `population` is the requested depth.
std::string fleet_line(std::uint64_t seed, std::uint64_t id,
                       std::uint64_t variant, unsigned population,
                       bool series) {
  std::string line;
  line.reserve(1600);
  append_header(line, id, "fleet", variant);
  line += "\"think\":2.0,\"stations\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    append(line, "%s{\"name\":\"%s\",\"servers\":%d}", k == 0 ? "" : ",",
           kStations[k], servers_of(k));
  }
  line += "],\"demands\":{\"type\":\"spline\",\"axis\":\"concurrency\",\"x\":[";
  for (std::size_t j = 0; j < std::size(kKnots); ++j) {
    append(line, "%s%g", j == 0 ? "" : ",", kKnots[j]);
  }
  line += "],\"y\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    const double scale =
        kBaseDemand[k] * (1.0 + 0.25 * unit(seed, kDemand, variant, k));
    line += k == 0 ? "[" : ",[";
    for (std::size_t j = 0; j < std::size(kKnots); ++j) {
      const double d = scale * (0.8 + 0.2 * std::exp(-kKnots[j] / 400.0));
      append(line, "%s%.9g", j == 0 ? "" : ",", d);
    }
    line += "]";
  }
  append(line, "]},\"solver\":\"mvasd\",\"max_population\":%u%s}\n",
         population, series ? ",\"series\":true" : "");
  return line;
}

/// One three-class request on the fleet's stations (single-server), like
/// loadgen_serve --multiclass.
std::string multiclass_line(std::uint64_t seed, std::uint64_t id,
                            std::uint64_t variant) {
  std::string line;
  line.reserve(1600);
  append_header(line, id, "mc", variant);
  line += "\"stations\":[";
  for (std::size_t k = 0; k < kStationCount; ++k) {
    append(line, "%s{\"name\":\"%s\",\"servers\":1}", k == 0 ? "" : ",",
           kStations[k]);
  }
  line += "],\"classes\":[";
  constexpr const char* kClassNames[] = {"browse", "search", "buy"};
  constexpr double kClassThink[] = {2.0, 4.0, 1.0};
  constexpr double kClassScale[] = {1.0, 0.6, 1.8};
  const unsigned pops[] = {
      8, 6, 40 + static_cast<unsigned>(draw(seed, kDepth, variant) % 4) * 8};
  for (std::size_t c = 0; c < 3; ++c) {
    append(line,
           "%s{\"name\":\"%s\",\"population\":%u,\"think\":%.1f,"
           "\"demands\":[",
           c == 0 ? "" : ",", kClassNames[c], pops[c], kClassThink[c]);
    for (std::size_t k = 0; k < kStationCount; ++k) {
      const double d = kBaseDemand[k] * kClassScale[c] *
                       (1.0 + 0.25 * unit(seed, kDemand, variant, c * 17 + k));
      append(line, "%s%.9g", k == 0 ? "" : ",", d);
    }
    line += "]}";
  }
  line += "],\"solver\":\"schweitzer-multiclass\"}\n";
  return line;
}

// --- workmodel (examples/workmodel_mesh.jsonl's 11-service mesh) ----------

struct MeshService {
  const char* name;
  double demand;
  const char* rest;  ///< the service's other fields, verbatim
};

constexpr MeshService kMesh[] = {
    {"gateway", 0.002,
     ",\"calls\":[{\"to\":\"auth\"},{\"to\":\"catalog\",\"p\":0.65},"
     "{\"to\":\"orders\",\"p\":0.3},{\"to\":\"cdn\",\"calls\":2}]"},
    {"auth", 0.001, ",\"calls\":[{\"to\":\"redis\"}]"},
    {"catalog", 0.003,
     ",\"calls\":[{\"to\":\"search\",\"p\":0.5},{\"to\":\"redis\","
     "\"calls\":2}]"},
    {"search", 0.004,
     ",\"servers\":2,\"calls\":[{\"to\":\"index\",\"calls\":2}]"},
    {"index", 0.006, ",\"replicas\":2,\"balancer\":\"round-robin\""},
    {"redis", 0.0005, ",\"cache_hit_rate\":0.8,\"calls\":[{\"to\":\"db\"}]"},
    {"db", 0.008, ",\"servers\":2,\"replicas\":3"},
    {"orders", 0.005,
     ",\"calls\":[{\"to\":\"db\",\"calls\":2},{\"to\":\"payment\",\"p\":0.8}]"},
    {"payment", 0.01, ",\"calls\":[{\"to\":\"notify\"}]"},
    {"notify", 0.002, ""},
    {"cdn", 0.02, ",\"kind\":\"delay\""},
};

std::string workmodel_line(std::uint64_t seed, std::uint64_t id,
                           std::uint64_t variant, unsigned population) {
  std::string line;
  line.reserve(1200);
  append(line, "{\"cmd\":\"workmodel\",\"id\":%llu,\"label\":\"mesh-%llu\",",
         static_cast<unsigned long long>(id),
         static_cast<unsigned long long>(variant));
  line += "\"entry\":\"gateway\",\"think\":1.0,\"services\":{";
  for (std::size_t s = 0; s < std::size(kMesh); ++s) {
    const double d =
        kMesh[s].demand * (1.0 + 0.25 * unit(seed, kDemand, variant, s));
    append(line, "%s\"%s\":{\"demand\":%.9g", s == 0 ? "" : ",", kMesh[s].name,
           d);
    line += kMesh[s].rest;
    line += "}";
  }
  append(line,
         "},\"solver\":\"exact-multiserver\",\"max_population\":%u}\n",
         population);
  return line;
}

// --- workload shapes -------------------------------------------------------

// warm_interactive: a working set far below the cache (48 structures in a
// 256-entry, 8-shard LRU), most requests reusing it at its deepest depth
// (exact hit) or shallower (prefix hit).
constexpr std::uint64_t kWarmFleet = 40;
constexpr std::uint64_t kWarmMesh = 8;

unsigned warm_fleet_depth(std::uint64_t seed, std::uint64_t v) {
  return 400 + 100 * static_cast<unsigned>(draw(seed, kFleetDepth, v) % 5);
}
unsigned warm_mesh_depth(std::uint64_t seed, std::uint64_t v) {
  return 100 + 25 * static_cast<unsigned>(draw(seed, kWmDepth, v) % 5);
}

// cold_sweep: every request a new fingerprint.
constexpr unsigned kColdDepth = 1500;

// series_churn: a working set twice the cache, skewed so a hot eighth of
// it fits and the rest keeps evicting.
constexpr std::uint64_t kSeriesHot = 64;
constexpr std::uint64_t kSeriesSet = 512;
constexpr unsigned kSeriesDepths[] = {300, 600, 900, 1200, 1500};

/// Fresh variants live far above any reused variant index.
constexpr std::uint64_t kFreshBase = 1ull << 32;
/// Prefill ids live far above any window id.
constexpr std::uint64_t kPrefillBase = 1ull << 40;

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {WorkloadId::kWarmInteractive, "warm_interactive", true, 800.0, 0,
       kWarmFleet + kWarmMesh,
       "~70% fleet exact/prefix hits, 25% workmodel hits, 5% new fleet "
       "fingerprints",
       "request parse (incl. graph::compile), fingerprint, engine cache, "
       "serialize, admission queue",
       "lane-major kernels except for the 5% cold solves",
       "open loop, Poisson 800 rps, 2 conns; 48-structure working set vs "
       "256-entry cache; 70% fleet + 25% workmodel hits, 5% new; loads "
       "parse/fingerprint/serialize/queue, not kernels"},
      {WorkloadId::kColdSweep, "cold_sweep", false, 0.0, 16, 0,
       "80% single-class spline mvasd to N=1500, 20% three-class "
       "schweitzer-multiclass; every request a new fingerprint",
       "lane-major batch kernels, DemandGrid tabulation (interp), batch plan",
       "engine cache hits",
       "closed loop, 2 conns x 16 in flight; every request a new "
       "fingerprint, 80% spline mvasd N=1500 + 20% 3-class schweitzer; "
       "loads lane-major kernels and interp, bypasses cache hits"},
      {WorkloadId::kSeriesChurn, "series_churn", false, 0.0, 8, kSeriesSet,
       "every request series:true at N in 300..1500; 95% from a 64-structure "
       "hot set, 5% from the other 448",
       "serialize (10-50 KB responses), socket transfer, cache "
       "hits/prefix hits/deepen/evictions",
       "multiclass kernels",
       "closed loop, 2 conns x 8 in flight; series:true N=300..1500; 512 "
       "structures vs 256-entry cache, 95% to 64 hot; loads serialize, "
       "socket, LRU churn; bypasses multiclass"},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Request> prefill(const Workload& w, std::uint64_t seed) {
  std::vector<Request> out;
  std::uint64_t id = kPrefillBase;
  switch (w.id) {
    case WorkloadId::kWarmInteractive:
      for (std::uint64_t v = 0; v < kWarmFleet; ++v, ++id) {
        out.push_back({id, RequestKind::kFleet,
                       fleet_line(seed, id, v, warm_fleet_depth(seed, v),
                                  false)});
      }
      for (std::uint64_t v = 0; v < kWarmMesh; ++v, ++id) {
        out.push_back({id, RequestKind::kWorkmodel,
                       workmodel_line(seed, id, v, warm_mesh_depth(seed, v))});
      }
      break;
    case WorkloadId::kColdSweep:
      break;
    case WorkloadId::kSeriesChurn:
      for (std::uint64_t v = 0; v < kSeriesHot; ++v, ++id) {
        out.push_back({id, RequestKind::kFleet,
                       fleet_line(seed, id, v, kSeriesDepths[4], true)});
      }
      break;
  }
  return out;
}

namespace {

/// Position of `id` within its block of `block` consecutive ids, rotated
/// by a seed-chosen offset per block.  Request classes are assigned by
/// position, so every block carries exactly the workload's shares (a
/// stratified mix: the seed moves where in a block each class falls, not
/// how many there are, which keeps run-to-run spread down).
std::uint64_t slot(std::uint64_t seed, std::uint64_t id, std::uint64_t block) {
  return (id % block + draw(seed, kPick, id / block)) % block;
}

}  // namespace

Request make_request(const Workload& w, std::uint64_t seed, std::uint64_t id) {
  const std::uint64_t h = draw(seed, kVariant, id);
  const std::uint64_t d = draw(seed, kDepth, id);
  switch (w.id) {
    case WorkloadId::kWarmInteractive: {
      // Per block of 20: 1 new fingerprint, 5 workmodels, 14 fleet reuses.
      const std::uint64_t p = slot(seed, id, 20);
      if (p == 0) {
        const unsigned depth = 300 + 100 * static_cast<unsigned>(id / 20 % 4);
        return {id, RequestKind::kFleet,
                fleet_line(seed, id, kFreshBase + id, depth, false)};
      }
      // Half the reuses ask for the cached depth (exact hit), half for a
      // shallower one (prefix hit).
      const bool shallower = d % 2 == 1;
      if (p <= 5) {
        const std::uint64_t v = h % kWarmMesh;
        const unsigned top = warm_mesh_depth(seed, v);
        const unsigned depth =
            shallower ? top - 25 * (1 + static_cast<unsigned>(d / 2 % 3)) : top;
        return {id, RequestKind::kWorkmodel,
                workmodel_line(seed, id, v, depth)};
      }
      const std::uint64_t v = h % kWarmFleet;
      const unsigned top = warm_fleet_depth(seed, v);
      const unsigned depth =
          shallower ? top - 50 * (1 + static_cast<unsigned>(d / 2 % 4)) : top;
      return {id, RequestKind::kFleet,
              fleet_line(seed, id, v, depth, false)};
    }
    case WorkloadId::kColdSweep:
      // Per block of 5: 1 multiclass, 4 single-class.
      if (slot(seed, id, 5) == 0) {
        return {id, RequestKind::kMulticlass,
                multiclass_line(seed, id, kFreshBase + id)};
      }
      return {id, RequestKind::kFleet,
              fleet_line(seed, id, kFreshBase + id, kColdDepth, false)};
    case WorkloadId::kSeriesChurn: {
      // Per block of 20: 1 request to the cold part of the working set.
      const std::uint64_t v = slot(seed, id, 20) != 0
                                  ? h % kSeriesHot
                                  : kSeriesHot + h % (kSeriesSet - kSeriesHot);
      const unsigned depth = kSeriesDepths[d % std::size(kSeriesDepths)];
      return {id, RequestKind::kFleet,
              fleet_line(seed, id, v, depth, true)};
    }
  }
  return {};
}

}  // namespace perfbench
