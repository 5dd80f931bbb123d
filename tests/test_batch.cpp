// Tests for the lane-major batched MVA kernel: structure grouping,
// lockstep parity against per-spec scalar solves (VINS- and
// JPetStore-shaped fixtures, multi-server + delay stations, both demand
// axes, ragged populations), the solve_batch facade, and the scenario
// engine's batch dedup + cached-grid deepening.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/demand_model.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "interp/cubic_spline.hpp"
#include "service/engine.hpp"

namespace mtperf {
namespace {

using core::ClosedNetwork;
using core::DemandModel;
using core::MvaResult;
using core::ScenarioSpec;
using core::SolverKind;
using core::Station;
using core::StationKind;

// The ISSUE-level parity budget; the kernel mirrors the scalar engine's
// arithmetic operation-for-operation, so the observed difference is zero.
constexpr double kParityTol = 1e-12;

void expect_parity(const MvaResult& got, const MvaResult& want) {
  ASSERT_EQ(got.levels(), want.levels());
  ASSERT_EQ(got.stations(), want.stations());
  for (std::size_t i = 0; i < got.levels(); ++i) {
    EXPECT_LE(std::abs(got.throughput[i] - want.throughput[i]), kParityTol);
    EXPECT_LE(std::abs(got.response_time[i] - want.response_time[i]),
              kParityTol);
    EXPECT_LE(std::abs(got.cycle_time[i] - want.cycle_time[i]), kParityTol);
    for (std::size_t k = 0; k < got.stations(); ++k) {
      EXPECT_LE(std::abs(got.queue(i, k) - want.queue(i, k)), kParityTol);
      EXPECT_LE(std::abs(got.residence(i, k) - want.residence(i, k)),
                kParityTol);
      EXPECT_LE(std::abs(got.utilization(i, k) - want.utilization(i, k)),
                kParityTol);
    }
  }
}

/// Batched results must match per-spec facade solves within kParityTol.
void expect_batch_matches_scalar(const std::vector<ScenarioSpec>& specs) {
  const std::vector<MvaResult> batched = core::solve_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_parity(batched[i], scalar);
  }
}

std::shared_ptr<interp::PiecewiseCubic> spline_of(std::vector<double> x,
                                                  std::vector<double> y) {
  return std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
      interp::SampleSet(std::move(x), std::move(y))));
}

/// The VINS deployment shape (paper §4.3): load injector / app server /
/// database, each with a multi-core CPU and single-server disk + NICs.
ClosedNetwork vins_network(unsigned cpu_cores = 16) {
  return core::make_network(
      {"load-cpu", "load-disk", "load-tx", "load-rx", "app-cpu", "app-disk",
       "app-tx", "app-rx", "db-cpu", "db-disk", "db-tx", "db-rx"},
      {cpu_cores, 1, 1, 1, cpu_cores, 1, 1, 1, cpu_cores, 1, 1, 1}, 1.0);
}

const std::vector<double>& vins_base_demands() {
  static const std::vector<double> base = {0.004, 0.010, 0.002, 0.002,
                                           0.012, 0.008, 0.003, 0.003,
                                           0.020, 0.034, 0.004, 0.004};
  return base;
}

/// VINS-style decreasing demand splines (caching warm-up), scaled per lane.
DemandModel vins_spline_demands(double scale,
                                DemandModel::Axis axis =
                                    DemandModel::Axis::kConcurrency) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double d : vins_base_demands()) {
    const double b = d * scale;
    fns.push_back(spline_of({1.0, 60.0, 250.0, 900.0},
                            {b, 0.93 * b, 0.88 * b, 0.86 * b}));
  }
  return DemandModel::interpolated(std::move(fns), axis);
}

ScenarioSpec vins_spec(std::string label, double scale, unsigned users,
                       SolverKind solver = SolverKind::kMvasd) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = vins_network();
  spec.demands = vins_spline_demands(scale);
  spec.options.solver = solver;
  spec.options.max_population = users;
  return spec;
}

/// JPetStore-ish shape: fewer stations, a delay station (external payment
/// gateway), contention-increasing DB demands — a different structure key
/// than VINS in every respect.
ScenarioSpec jpetstore_spec(std::string label, double scale, unsigned users) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = ClosedNetwork(
      {Station{"web-cpu", 1.0, 8, StationKind::kQueueing},
       Station{"web-disk", 1.0, 1, StationKind::kQueueing},
       Station{"db-cpu", 1.0, 16, StationKind::kQueueing},
       Station{"db-disk", 1.0, 1, StationKind::kQueueing},
       Station{"gateway", 0.4, 1, StationKind::kDelay}},
      1.0);
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  const std::vector<double> base = {0.011, 0.007, 0.024, 0.016, 0.150};
  for (const double d : base) {
    const double b = d * scale;
    fns.push_back(spline_of({1.0, 70.0, 140.0, 280.0},
                            {b, 1.02 * b, 1.10 * b, 1.16 * b}));
  }
  spec.demands = DemandModel::interpolated(std::move(fns));
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

// ---------------------------------------------------------------- planning

TEST(BatchPlan, GroupsByStructureAndSplitsOffScalars) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(vins_spec("a", 1.0, 100));
  specs.push_back(jpetstore_spec("b", 1.0, 80));
  specs.push_back(vins_spec("c", 1.1, 300));
  {  // constant-demand Schweitzer: no batched kernel covers it
    ScenarioSpec s;
    s.label = "schweitzer";
    s.network = core::make_network({"cpu", "disk"}, {4, 1}, 1.0);
    s.demands = DemandModel::constant({0.01, 0.02});
    s.options.solver = SolverKind::kSchweitzer;
    s.options.max_population = 40;
    specs.push_back(std::move(s));
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs, 1);

  ASSERT_EQ(plan.blocks.size(), 2u);
  ASSERT_EQ(plan.scalars.size(), 1u);
  EXPECT_EQ(plan.scalars[0], 3u);
  // VINS group ordered deepest-first for lane retirement.
  EXPECT_EQ(plan.blocks[0], (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(plan.blocks[1], (std::vector<std::size_t>{1}));
}

TEST(BatchPlan, StructureKeySeparatesServerCountsAndKinds) {
  const auto key = [](const ClosedNetwork& n) {
    return core::detail::batch_structure_key(n, SolverKind::kMvasd);
  };
  const ClosedNetwork base = core::make_network({"a", "b"}, {16, 1}, 1.0);
  EXPECT_EQ(key(base), key(core::make_network({"x", "y"}, {16, 1}, 9.0)));
  EXPECT_NE(key(base), key(core::make_network({"a", "b"}, {8, 1}, 1.0)));
  EXPECT_NE(key(base), key(core::make_network({"a", "b", "c"}, {16, 1, 1},
                                              1.0)));
  const ClosedNetwork delayed(
      {Station{"a", 1.0, 16, StationKind::kQueueing},
       Station{"b", 1.0, 1, StationKind::kDelay}},
      1.0);
  EXPECT_NE(key(base), key(delayed));
  EXPECT_NE(core::detail::batch_structure_key(base, SolverKind::kMvasd),
            core::detail::batch_structure_key(
                base, SolverKind::kExactMultiserver));
}

/// A cheap single-class spec for planning: only structure, kind and depth
/// matter to the plan.
ScenarioSpec plan_spec(unsigned users) {
  ScenarioSpec spec;
  spec.label = "p" + std::to_string(users);
  spec.network = core::make_network({"cpu", "disk"}, {4, 1}, 1.0);
  spec.demands = DemandModel::constant({0.01, 0.02});
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

/// `lanes` planning specs with scrambled, partly tied depths.
std::vector<ScenarioSpec> plan_group(std::size_t lanes) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < lanes; ++i) {
    specs.push_back(plan_spec(10 + static_cast<unsigned>((i * 37) % 23)));
  }
  return specs;
}

std::vector<const ScenarioSpec*> pointers(const std::vector<ScenarioSpec>& s) {
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& spec : s) ptrs.push_back(&spec);
  return ptrs;
}

std::vector<std::size_t> block_sizes(
    const std::vector<std::vector<std::size_t>>& blocks) {
  std::vector<std::size_t> sizes;
  for (const auto& block : blocks) sizes.push_back(block.size());
  return sizes;
}

/// Lanes the kernel runs for `blocks`: each block pads to 8-lane chunks.
std::size_t padded_lanes(const std::vector<std::vector<std::size_t>>& blocks) {
  std::size_t total = 0;
  for (const auto& block : blocks) total += (block.size() + 7) / 8 * 8;
  return total;
}

TEST(BatchPlan, OneThreadKeepsWholeBlocksInDepthOrder) {
  const auto specs = plan_group(26);
  const auto plan = core::detail::plan_batch(pointers(specs), 1);
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return specs[a].options.max_population > specs[b].options.max_population;
  });
  ASSERT_EQ(plan.blocks.size(), 2u);
  EXPECT_EQ(plan.blocks[0],
            std::vector<std::size_t>(order.begin(), order.begin() + 16));
  EXPECT_EQ(plan.blocks[1],
            std::vector<std::size_t>(order.begin() + 16, order.end()));
  EXPECT_TRUE(plan.mc_blocks.empty());
  EXPECT_TRUE(plan.scalars.empty());
}

TEST(BatchPlan, CutsAnOversizeGroupLargestFirst) {
  const auto specs = plan_group(26);
  const auto ptrs = pointers(specs);
  const auto whole = core::detail::plan_batch(ptrs, 1);
  const auto cut = core::detail::plan_batch(ptrs, 3);
  EXPECT_EQ(block_sizes(cut.blocks), (std::vector<std::size_t>{10, 8, 8}));
  EXPECT_EQ(padded_lanes(cut.blocks), padded_lanes(whole.blocks));
  // The same depth order, cut at other places.
  std::vector<std::size_t> flat;
  for (const auto& block : cut.blocks) {
    flat.insert(flat.end(), block.begin(), block.end());
  }
  std::vector<std::size_t> flat_whole = whole.blocks[0];
  flat_whole.insert(flat_whole.end(), whole.blocks[1].begin(),
                    whole.blocks[1].end());
  EXPECT_EQ(flat, flat_whole);
}

TEST(BatchPlan, BalancedBlocksAreContiguousDepthOrderedSlices) {
  for (std::size_t lanes = 1; lanes <= 70; ++lanes) {
    const auto specs = plan_group(lanes);
    const auto ptrs = pointers(specs);
    const auto whole = core::detail::plan_batch(ptrs, 1);
    std::vector<std::size_t> order;
    for (const auto& block : whole.blocks) {
      order.insert(order.end(), block.begin(), block.end());
    }
    for (std::size_t threads = 1; threads <= 9; ++threads) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes on " +
                   std::to_string(threads) + " threads");
      const auto plan = core::detail::plan_batch(ptrs, threads);
      // Every index exactly once, in the one-thread plan's depth order.
      std::vector<std::size_t> flat;
      for (const auto& block : plan.blocks) {
        ASSERT_FALSE(block.empty());
        ASSERT_LE(block.size(), core::detail::kBatchLaneBlock);
        flat.insert(flat.end(), block.begin(), block.end());
      }
      ASSERT_EQ(flat, order);
      for (std::size_t b = 1; b < plan.blocks.size(); ++b) {
        EXPECT_GE(plan.blocks[b - 1].size(), plan.blocks[b].size());
      }
      EXPECT_LE(padded_lanes(plan.blocks), padded_lanes(whole.blocks));
      const std::size_t whole_blocks = (lanes + 15) / 16;
      if (lanes > 16 && whole_blocks < threads) {
        EXPECT_EQ(plan.blocks.size(), std::min(threads, (lanes + 7) / 8));
      } else {
        EXPECT_EQ(plan.blocks, whole.blocks);
      }
    }
  }
}

TEST(BatchPlan, GroupsThatFitOneBlockStayWhole) {
  for (const std::size_t lanes : {1u, 7u, 9u, 16u}) {
    const auto specs = plan_group(lanes);
    const auto ptrs = pointers(specs);
    const auto whole = core::detail::plan_batch(ptrs, 1);
    ASSERT_EQ(whole.blocks.size(), 1u);
    EXPECT_EQ(core::detail::plan_batch(ptrs, 8).blocks, whole.blocks)
        << lanes << " lanes";
  }
}

// ------------------------------------------------------------------ parity

TEST(BatchParity, VinsSplineLanes) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 9; ++i) {
    specs.push_back(vins_spec("vins-" + std::to_string(i),
                              0.9 + 0.03 * static_cast<double>(i), 220));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, JPetStoreDelayStations) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(jpetstore_spec("jps-" + std::to_string(i),
                                   0.85 + 0.06 * static_cast<double>(i), 160));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, ThroughputAxisSectionSeven) {
  // Section 7's variant: demands interpolated against throughput, looked up
  // with the previous iteration's X.  These lanes cannot be pre-tabulated;
  // the kernel evaluates them through per-lane monotone cursors.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 5; ++i) {
    ScenarioSpec spec;
    spec.label = "xaxis-" + std::to_string(i);
    spec.network = vins_network();
    spec.demands = vins_spline_demands(1.0 + 0.05 * static_cast<double>(i),
                                       DemandModel::Axis::kThroughput);
    spec.options.solver = SolverKind::kMvasd;
    spec.options.max_population = 180;
    specs.push_back(std::move(spec));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, RaggedPopulationsRetireLanes) {
  const std::vector<unsigned> depths = {400, 1, 37, 220, 37, 3, 128, 399};
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(vins_spec("ragged-" + std::to_string(i),
                              1.0 + 0.02 * static_cast<double>(i), depths[i]));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, SingleLaneBatch) {
  expect_batch_matches_scalar({vins_spec("solo", 1.0, 300)});
}

TEST(BatchParity, ConstantDemandsAndMixedStructures) {
  std::vector<ScenarioSpec> specs;
  // Constant-demand Algorithm 2 lanes batch alongside spline lanes of the
  // same structure; a different structure and a scalar-only solver ride in
  // the same call.
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.label = "const-" + std::to_string(i);
    spec.network = vins_network();
    std::vector<double> demands = vins_base_demands();
    for (double& d : demands) d *= 1.0 + 0.1 * static_cast<double>(i);
    spec.demands = DemandModel::constant(std::move(demands));
    spec.options.solver = SolverKind::kExactMultiserver;
    spec.options.max_population = 250;
    specs.push_back(std::move(spec));
  }
  specs.push_back(vins_spec("spline", 1.0, 250, SolverKind::kMvasd));
  specs.push_back(jpetstore_spec("jps", 1.0, 120));
  {
    ScenarioSpec s;
    s.label = "exact-single";
    s.network = core::make_network({"cpu", "disk"}, {1, 1}, 0.5);
    s.demands = DemandModel::constant({0.02, 0.05});
    s.options.solver = SolverKind::kExactSingleServer;
    s.options.max_population = 64;
    specs.push_back(std::move(s));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, GroupsLargerThanOneBlock) {
  // More lanes than kBatchLaneBlock: the plan must chunk and stay exact.
  std::vector<ScenarioSpec> specs;
  const std::size_t lanes = core::detail::kBatchLaneBlock + 7;
  for (std::size_t i = 0; i < lanes; ++i) {
    specs.push_back(vins_spec("wide-" + std::to_string(i),
                              0.8 + 0.01 * static_cast<double>(i),
                              40 + static_cast<unsigned>(i % 5) * 30));
  }
  ThreadPool pool(4);
  const std::vector<MvaResult> batched = core::solve_batch(specs, &pool);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(batched[i], scalar);
  }
}

// ------------------------------------------------------- kernel arithmetic

/// Every exported array of `got` has the bits of `want` — no tolerance.
void expect_bitwise(const MvaResult& got, const MvaResult& want) {
  const auto same = [](const auto& a, const auto& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof a[i]), 0)
          << what << "[" << i << "]: " << a[i] << " vs " << b[i];
    }
  };
  same(got.population, want.population, "population");
  same(got.throughput, want.throughput, "throughput");
  same(got.response_time, want.response_time, "response_time");
  same(got.cycle_time, want.cycle_time, "cycle_time");
  same(got.station_queue, want.station_queue, "station_queue");
  same(got.station_residence, want.station_residence, "station_residence");
  same(got.station_utilization, want.station_utilization,
       "station_utilization");
}

/// The served fleet's shape (perfbench's cold_sweep): twelve VINS-like
/// stations, three of them 128-server CPU tiers, think time 2 s.
ClosedNetwork fleet_network() {
  return core::make_network(
      {"load-cpu", "load-disk", "load-tx", "load-rx", "app-cpu", "app-disk",
       "app-tx", "app-rx", "db-cpu", "db-disk", "db-tx", "db-rx"},
      {128, 1, 1, 1, 128, 1, 1, 1, 128, 1, 1, 1}, 2.0);
}

/// Falling concurrency-axis demand splines for lane `lane`, jittered per
/// station; `cpu_scale` multiplies the three CPU tiers' demands.
DemandModel fleet_demands(std::size_t lane, double cpu_scale) {
  const std::vector<double> knots = {1, 100, 300, 600, 1000, 1500};
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (std::size_t k = 0; k < 12; ++k) {
    const double jitter =
        std::fmod(0.618 * static_cast<double>(lane * 12 + k), 1.0);
    const double scale = vins_base_demands()[k] * (1.0 + 0.25 * jitter) *
                         (k % 4 == 0 ? cpu_scale : 1.0);
    std::vector<double> y;
    for (const double x : knots) {
      y.push_back(scale * (0.8 + 0.2 * std::exp(-x / 400.0)));
    }
    fns.push_back(spline_of(knots, std::move(y)));
  }
  return DemandModel::interpolated(std::move(fns));
}

/// One lockstep block of `lanes` fleet lanes at `users`, each lane
/// compared with its scalar solve array by array, bit for bit.
void expect_fleet_block_bitwise(std::size_t lanes, unsigned users,
                                double cpu_scale) {
  const ClosedNetwork network = fleet_network();
  std::vector<DemandModel> demands;
  for (std::size_t l = 0; l < lanes; ++l) {
    demands.push_back(fleet_demands(l, cpu_scale));
  }
  std::vector<core::detail::BatchLane> block(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    block[l].network = &network;
    block[l].demands = &demands[l];
    block[l].max_population = users;
  }
  const std::vector<MvaResult> batched =
      core::detail::solve_lane_block(block);
  ASSERT_EQ(batched.size(), lanes);
  core::SolveOptions options;
  options.solver = SolverKind::kMvasd;
  options.max_population = users;
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l) + " of " +
                 std::to_string(lanes));
    expect_bitwise(batched[l], core::solve(network, &demands[l], options));
  }
}

TEST(BatchParity, FleetTiersAreBitIdenticalToScalar) {
  // Three 128-server tiers at N = 1500: every level's marginal tails run
  // down past DBL_MIN, so the flush, the FMA division and flush-to-zero
  // all act on every level.  Blocks of one chunk, one group, and a group
  // plus a chunk.
  for (const std::size_t lanes : {8u, 16u, 24u}) {
    expect_fleet_block_bitwise(lanes, 1500, 1.0);
  }
}

TEST(BatchParity, SaturatedFleetTiersAreBitIdenticalToScalar) {
  // CPU tiers 300x heavier: the 128-server stations saturate, so the
  // clamps rescale the tail (weighted tail above the idle budget) and
  // zero the marginals (expected busy servers >= C) on many levels.
  for (const std::size_t lanes : {8u, 16u, 24u}) {
    expect_fleet_block_bitwise(lanes, 1500, 300.0);
  }
}

TEST(BatchKernel, FmaQuotientEqualsDivisionBitwise) {
  // The AVX2/AVX-512 walk divides with a reciprocal and two FMAs, the
  // baseline with `/`; both must give the scalar engine's xs * p / j, or
  // zero where that falls below DBL_MIN.  A quotient of exactly DBL_MIN
  // may read zero under flush-to-zero (see batch_engine.cpp); nothing else
  // may differ.
  std::mt19937_64 rng(20151);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-1022, 900);
  std::uniform_real_distribution<double> busy(0.0, 128.0);
  std::uniform_real_distribution<double> prob(0.0, 1.0);
  std::size_t cases = 0, normal = 0, flushed = 0, boundary = 0;
  std::size_t mismatches = 0;
  const auto check = [&](double xs, double p, unsigned j) {
    ++cases;
    const double want = xs * p / static_cast<double>(j);
    for (const bool fma : {true, false}) {
      const double got = core::detail::marginal_step(xs, p, j, fma);
      bool ok;
      if (want > DBL_MIN) {
        ok = std::memcmp(&got, &want, sizeof got) == 0;
      } else if (want < DBL_MIN) {
        const double zero = 0.0;
        ok = std::memcmp(&got, &zero, sizeof got) == 0;
      } else {
        ok = got == 0.0 || got == DBL_MIN;
      }
      if (!ok && ++mismatches <= 5) {
        ADD_FAILURE() << std::hexfloat << "xs " << xs << " p " << p << " j "
                      << j << (fma ? " fma " : " div ") << got << " want "
                      << want;
      }
    }
    (want > DBL_MIN ? normal : want < DBL_MIN ? flushed : boundary) += 1;
  };
  for (unsigned j = 1; j <= 1024; ++j) {
    const double dj = static_cast<double>(j);
    for (int i = 0; i < 400; ++i) {
      // Any normal dividend (xs = 1 passes p through unrounded).
      check(1.0, std::ldexp(mantissa(rng), exponent(rng)), j);
    }
    for (int i = 0; i < 100; ++i) {
      // The kernel's own range: busy servers times a probability.
      check(busy(rng), prob(rng), j);
    }
    // Dividends within a few ulps of j * DBL_MIN, where the quotient
    // crosses DBL_MIN, and below it, where the quotient is subnormal.
    double a = dj * DBL_MIN;
    for (int i = 0; i < 8; ++i) a = std::nextafter(a, 0.0);
    for (int i = 0; i < 16; ++i) {
      check(1.0, a, j);
      a = std::nextafter(a, 1.0);
    }
    for (int i = 0; i < 20; ++i) {
      check(1.0, std::ldexp(mantissa(rng), -1022), j);
      check(prob(rng), std::ldexp(mantissa(rng), -1000 - i), j);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(cases, normal + flushed + boundary);
  EXPECT_GT(normal, 500000u);
  EXPECT_GT(flushed, 20000u);
}

#if defined(__x86_64__) || defined(__i386__)
TEST(BatchKernel, LeavesMxcsrAsItFoundIt) {
  // MXCSR's control bits (DAZ, exception masks, rounding, FTZ); the low six
  // are sticky exception flags that any arithmetic may raise.
  constexpr unsigned kControl = ~0x3Fu;
  const ClosedNetwork network = fleet_network();
  std::vector<DemandModel> demands;
  for (std::size_t l = 0; l < 3; ++l) demands.push_back(fleet_demands(l, 1.0));
  const auto run_block = [&] {
    std::vector<core::detail::BatchLane> block(demands.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      block[l].network = &network;
      block[l].demands = &demands[l];
      block[l].max_population = 300;
    }
    return core::detail::solve_lane_block(block);
  };

  const unsigned before = _mm_getcsr() & kControl;
  EXPECT_EQ(before & _MM_FLUSH_ZERO_ON, 0u);
  (void)run_block();
  EXPECT_EQ(_mm_getcsr() & kControl, before);

  // A lane that throws: zero think time and zero demands make the first
  // level's cycle time zero.
  const ClosedNetwork zero = core::make_network({"cpu", "disk"}, {4, 1}, 0.0);
  const DemandModel none = DemandModel::constant({0.0, 0.0});
  std::vector<core::detail::BatchLane> bad(1);
  bad[0].network = &zero;
  bad[0].demands = &none;
  bad[0].max_population = 10;
  EXPECT_THROW(core::detail::solve_lane_block(bad), std::exception);
  EXPECT_EQ(_mm_getcsr() & kControl, before);

  // A scalar solve next on the same pool thread must return what it
  // returns on a fresh thread.  Its subnormal demand makes utilization
  // and residence subnormal, which a leaked flush-to-zero would zero.
  const ClosedNetwork tiny =
      core::make_network({"cpu", "tiny"}, {4, 1}, 1.0);
  const DemandModel tiny_demands = DemandModel::constant({0.02, 1e-310});
  core::SolveOptions options;
  options.solver = SolverKind::kMvasd;
  options.max_population = 10;
  const auto scalar = [&] { return core::solve(tiny, &tiny_demands, options); };
  ThreadPool pool(1);
  pool.submit(run_block).get();
  const MvaResult on_pool = pool.submit(scalar).get();
  const MvaResult fresh = std::async(std::launch::async, scalar).get();
  ASSERT_GT(fresh.utilization(0, 1), 0.0);
  ASSERT_LT(fresh.utilization(0, 1), DBL_MIN);
  expect_bitwise(on_pool, fresh);
}
#endif

TEST(RunScenarios, DefaultEvaluatorUsesBatchedKernel) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(vins_spec("rs-" + std::to_string(i),
                              1.0 + 0.04 * static_cast<double>(i), 150));
  }
  ThreadPool pool(4);
  const auto rows = core::run_scenarios(specs, &pool);
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(rows[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(rows[i].result, scalar);
  }
}

// ------------------------------------------------------------------ engine

TEST(EngineBatch, DedupesIdenticalFingerprints) {
  service::Engine engine;
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {90, 30, 90, 60, 30, 90};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(vins_spec("dup-" + std::to_string(i), 1.0, depths[i]));
  }
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  const auto metrics = engine.metrics();
  // One structure → one solve; every other slot is a dedup hit.
  EXPECT_EQ(metrics.misses, 1u);
  EXPECT_EQ(metrics.hits, specs.size() - 1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    ASSERT_EQ(evals[i].result->levels(), depths[i]);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(*evals[i].result, scalar);
  }
  // The three depth-90 duplicates share one MvaResult instance.
  EXPECT_EQ(evals[0].result.get(), evals[2].result.get());
  EXPECT_EQ(evals[0].result.get(), evals[5].result.get());
}

TEST(EngineBatch, MixedHitsAndMissesKeepOrderAndParity) {
  service::Engine engine;
  // Warm one structure, then batch it together with cold structures.
  (void)engine.evaluate_batch({vins_spec("warm", 1.0, 200)});
  std::vector<ScenarioSpec> specs;
  specs.push_back(jpetstore_spec("cold-jps", 1.0, 100));
  specs.push_back(vins_spec("warm-prefix", 1.0, 120));  // prefix of warm
  specs.push_back(vins_spec("cold-scaled", 1.25, 140));
  const auto before = engine.metrics();
  const auto evals = engine.evaluate_batch(specs);
  const auto after = engine.metrics();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_TRUE(evals[1].cache_hit);
  EXPECT_TRUE(evals[1].prefix_hit);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(*evals[i].result, scalar);
  }
}

TEST(EngineBatch, DeepenedResolveReusesCachedGridAndStaysExact) {
  service::Engine engine;
  const auto shallow = engine.evaluate(vins_spec("shallow", 1.0, 80));
  EXPECT_FALSE(shallow.cache_hit);
  // Deeper request, same structure: re-solves (prefix can't answer it) but
  // reuses the cached tabulation for rows 1..80, so the numbers must still
  // match a from-scratch scalar solve exactly.
  const auto deep = engine.evaluate(vins_spec("deep", 1.0, 320));
  EXPECT_FALSE(deep.cache_hit);
  const ScenarioSpec reference = vins_spec("ref", 1.0, 320);
  const MvaResult scalar =
      core::solve(reference.network, &reference.demands, reference.options);
  expect_parity(*deep.result, scalar);
  // And the deepened entry now answers both depths from cache.
  EXPECT_TRUE(engine.evaluate(vins_spec("again", 1.0, 320)).cache_hit);
  EXPECT_TRUE(engine.evaluate(vins_spec("again80", 1.0, 80)).cache_hit);
}

TEST(EngineBatch, BatchedDeepenReusesCachedGrid) {
  service::Engine engine;
  (void)engine.evaluate_batch({vins_spec("seed", 1.0, 60)});
  // The batched miss path leases the cached grid and deepens it in place.
  const auto evals = engine.evaluate_batch({vins_spec("deeper", 1.0, 240),
                                            jpetstore_spec("jps", 1.0, 90)});
  for (const auto& ev : evals) EXPECT_FALSE(ev.cache_hit);
  const ScenarioSpec reference = vins_spec("ref", 1.0, 240);
  const MvaResult scalar =
      core::solve(reference.network, &reference.demands, reference.options);
  expect_parity(*evals[0].result, scalar);
}

// ------------------------------------------------------- multiclass lanes

using core::CustomerClass;

/// Three-class JPetStore-ish mix over queueing CPU/disk/net plus a delay
/// station (external payment gateway); the axis class is the last one
/// ("buy").  `scale` varies per-lane demand values without changing the
/// structure key.
std::vector<CustomerClass> mix_classes(double scale, unsigned axis_users,
                                       unsigned browse_pop = 4,
                                       unsigned search_pop = 3) {
  std::vector<CustomerClass> classes;
  classes.push_back(
      {"browse", browse_pop, 1.0,
       {0.010 * scale, 0.024 * scale, 0.006 * scale, 0.150}});
  classes.push_back(
      {"search", search_pop, 2.0,
       {0.016 * scale, 0.009 * scale, 0.004 * scale, 0.080}});
  classes.push_back(
      {"buy", axis_users, 0.5,
       {0.007 * scale, 0.031 * scale, 0.005 * scale, 0.400}});
  return classes;
}

ScenarioSpec mix_spec(std::string label, double scale, unsigned axis_users,
                      SolverKind solver = SolverKind::kSchweitzerMulticlass) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network =
      ClosedNetwork({Station{"cpu", 1.0, 1, StationKind::kQueueing},
                     Station{"disk", 1.0, 1, StationKind::kQueueing},
                     Station{"net", 1.0, 1, StationKind::kQueueing},
                     Station{"gateway", 1.0, 1, StationKind::kDelay}},
                    0.0);
  spec.options.solver = solver;
  spec.options.classes = mix_classes(scale, axis_users);
  core::finalize_multiclass_options(spec.options);
  return spec;
}

/// A mix with one spline-demand class (demands falling with *total*
/// concurrency) alongside constant-demand classes.
ScenarioSpec mixed_model_spec(std::string label, double scale,
                              unsigned axis_users,
                              SolverKind solver =
                                  SolverKind::kSchweitzerMulticlass) {
  ScenarioSpec spec = mix_spec(std::move(label), scale, axis_users, solver);
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double b : {0.010 * scale, 0.024 * scale, 0.006 * scale, 0.150}) {
    fns.push_back(
        spline_of({1.0, 10.0, 40.0}, {b, 0.90 * b, 0.85 * b}));
  }
  spec.options.classes[0].demand_model = std::make_shared<DemandModel>(
      DemandModel::interpolated(std::move(fns)));
  return spec;
}

/// Batched multiclass results must be bit-identical to the scalar facade
/// (kParityTol is the acceptance ceiling; the lockstep kernel mirrors the
/// scalar engines operation-for-operation, so equality is exact).
void expect_mc_parity(const MvaResult& got, const MvaResult& want) {
  ASSERT_EQ(got.levels(), want.levels());
  ASSERT_EQ(got.stations(), want.stations());
  ASSERT_EQ(got.classes(), want.classes());
  EXPECT_EQ(got.class_names, want.class_names);
  EXPECT_EQ(got.class_population, want.class_population);
  EXPECT_EQ(got.mc_axis, want.mc_axis);
  EXPECT_EQ(got.mc_iterations, want.mc_iterations);
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.response_time, want.response_time);
  EXPECT_EQ(got.cycle_time, want.cycle_time);
  EXPECT_EQ(got.station_queue, want.station_queue);
  EXPECT_EQ(got.station_residence, want.station_residence);
  EXPECT_EQ(got.station_utilization, want.station_utilization);
  EXPECT_EQ(got.class_throughput, want.class_throughput);
  EXPECT_EQ(got.class_response_time, want.class_response_time);
  EXPECT_EQ(got.class_station_queue, want.class_station_queue);
}

void expect_mc_batch_matches_scalar(const std::vector<ScenarioSpec>& specs) {
  const std::vector<MvaResult> batched = core::solve_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_mc_parity(batched[i], scalar);
  }
}

TEST(McBatchPlan, RoutesMulticlassSeriesKindsToMcBlocks) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(mix_spec("schw-a", 1.0, 6));
  specs.push_back(vins_spec("vins", 1.0, 100));
  specs.push_back(mix_spec("exact-a", 1.0, 4, SolverKind::kExactMulticlass));
  specs.push_back(mix_spec("schw-b", 1.2, 9));
  specs.push_back(mix_spec("mom", 1.0, 5, SolverKind::kMomMulticlass));
  specs.push_back(mix_spec("exact-b", 0.9, 7, SolverKind::kExactMulticlass));
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs, 1);

  ASSERT_EQ(plan.blocks.size(), 1u);  // the VINS lane
  // Schweitzer and exact mixes group separately (kind is in the key),
  // each ordered deepest-axis-first for lane retirement.
  ASSERT_EQ(plan.mc_blocks.size(), 2u);
  EXPECT_EQ(plan.mc_blocks[0], (std::vector<std::size_t>{3, 0}));
  EXPECT_EQ(plan.mc_blocks[1], (std::vector<std::size_t>{5, 2}));
  // MoM is a single-level moment recursion with no shared axis — scalar.
  ASSERT_EQ(plan.scalars.size(), 1u);
  EXPECT_EQ(plan.scalars[0], 4u);
}

TEST(McBatchPlan, MulticlassGroupsIgnoreTheThreadCount) {
  // Schweitzer mixes chunk at 32 lanes, exact mixes at 16; more threads
  // than blocks cuts neither.
  std::vector<ScenarioSpec> specs;
  for (unsigned i = 0; i < 40; ++i) {
    specs.push_back(mix_spec("schw", 1.0 + 0.01 * i, 2 + i % 7));
  }
  for (unsigned i = 0; i < 20; ++i) {
    specs.push_back(mix_spec("exact", 1.0 + 0.01 * i, 2 + i % 5,
                             SolverKind::kExactMulticlass));
  }
  const auto ptrs = pointers(specs);
  const auto whole = core::detail::plan_batch(ptrs, 1);
  EXPECT_EQ(block_sizes(whole.mc_blocks),
            (std::vector<std::size_t>{32, 8, 16, 4}));
  EXPECT_EQ(core::detail::plan_batch(ptrs, 8).mc_blocks, whole.mc_blocks);
}

TEST(McBatchPlan, KeySeparatesClassStructureNotLaneData) {
  const auto key = [](const ScenarioSpec& s) {
    return core::detail::multiclass_batch_key(s);
  };
  const ScenarioSpec base = mix_spec("base", 1.0, 6);
  // Demand values, think times, and axis depth are per-lane data.
  EXPECT_EQ(key(base), key(mix_spec("scaled", 1.4, 6)));
  EXPECT_EQ(key(base), key(mix_spec("deeper", 1.0, 30)));
  // Kind, demand-model shape, and the activity pattern are structure.
  EXPECT_NE(key(base), key(mix_spec("exact", 1.0, 6,
                                    SolverKind::kExactMulticlass)));
  EXPECT_NE(key(base), key(mixed_model_spec("spline", 1.0, 6)));
  {
    ScenarioSpec idle = mix_spec("idle-class", 1.0, 6);
    idle.options.classes[1].population = 0;
    core::finalize_multiclass_options(idle.options);
    EXPECT_NE(key(base), key(idle));
  }
  // Schweitzer lanes may differ in non-axis populations (only the
  // zero/nonzero pattern is structural); exact lanes may not (lattice
  // strides must agree).
  {
    ScenarioSpec grown = mix_spec("grown", 1.0, 6);
    grown.options.classes[0].population = 9;
    core::finalize_multiclass_options(grown.options);
    EXPECT_EQ(key(base), key(grown));
  }
  {
    const ScenarioSpec exact_base =
        mix_spec("eb", 1.0, 6, SolverKind::kExactMulticlass);
    ScenarioSpec exact_grown =
        mix_spec("eg", 1.0, 6, SolverKind::kExactMulticlass);
    exact_grown.options.classes[0].population = 9;
    core::finalize_multiclass_options(exact_grown.options);
    EXPECT_NE(key(exact_base), key(exact_grown));
  }
}

TEST(McBatchParity, SchweitzerRaggedLanes) {
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {12, 3, 7, 1, 9, 12, 5, 2, 10};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(mix_spec("schw-" + std::to_string(i),
                             0.8 + 0.07 * static_cast<double>(i), depths[i]));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, ExactRaggedLanes) {
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {6, 2, 5, 1, 4, 6};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(mix_spec("exact-" + std::to_string(i),
                             0.85 + 0.06 * static_cast<double>(i), depths[i],
                             SolverKind::kExactMulticlass));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, SingleLaneBatches) {
  expect_mc_batch_matches_scalar({mix_spec("solo-schw", 1.0, 8)});
  expect_mc_batch_matches_scalar(
      {mix_spec("solo-exact", 1.0, 5, SolverKind::kExactMulticlass)});
}

TEST(McBatchParity, MixedConstantAndSplineClassModels) {
  for (const SolverKind kind :
       {SolverKind::kSchweitzerMulticlass, SolverKind::kExactMulticlass}) {
    std::vector<ScenarioSpec> specs;
    for (int i = 0; i < 5; ++i) {
      specs.push_back(mixed_model_spec(
          "mixed-" + std::to_string(i), 0.9 + 0.08 * static_cast<double>(i),
          static_cast<unsigned>(3 + 2 * i), kind));
    }
    expect_mc_batch_matches_scalar(specs);
  }
}

TEST(McBatchParity, GroupsLargerThanOneBlock) {
  // More Schweitzer lanes than kMcSchweitzerLaneBlock, with colliding
  // depths, so the plan must chunk and stay exact.
  std::vector<ScenarioSpec> specs;
  const int lanes = static_cast<int>(core::detail::kMcSchweitzerLaneBlock) + 8;
  for (int i = 0; i < lanes; ++i) {
    specs.push_back(mix_spec("wide-" + std::to_string(i),
                             0.7 + 0.02 * static_cast<double>(i),
                             static_cast<unsigned>(1 + (i * 7) % 13)));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, ZeroPopulationClassesStayInactive) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec = mix_spec("idle-" + std::to_string(i),
                                 1.0 + 0.1 * static_cast<double>(i),
                                 static_cast<unsigned>(4 + i));
    spec.options.classes[1].population = 0;
    core::finalize_multiclass_options(spec.options);
    specs.push_back(std::move(spec));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, NonConvergenceThrowsTheScalarError) {
  ScenarioSpec strict = mix_spec("strict", 1.0, 6);
  strict.options.schweitzer.tolerance = 1e-300;
  strict.options.schweitzer.max_iterations = 3;
  std::string scalar_error;
  try {
    (void)core::solve(strict.network, nullptr, strict.options);
    FAIL() << "scalar solve unexpectedly converged";
  } catch (const numeric_error& e) {
    scalar_error = e.what();
  }
  // Batched alongside a healthy lane: the strict lane throws the scalar
  // engine's exact error.
  try {
    (void)core::solve_batch({mix_spec("healthy", 1.1, 8), strict});
    FAIL() << "batched solve unexpectedly converged";
  } catch (const numeric_error& e) {
    EXPECT_EQ(scalar_error, std::string(e.what()));
  }
}

TEST(McEngineBatch, LanesAndScalarFallbacksAreCounted) {
  service::Engine engine;
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 5; ++i) {
    specs.push_back(mix_spec("lane-" + std::to_string(i),
                             1.0 + 0.05 * static_cast<double>(i),
                             static_cast<unsigned>(4 + i)));
  }
  specs.push_back(mix_spec("mom", 1.0, 5, SolverKind::kMomMulticlass));
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_mc_parity(*evals[i].result, scalar);
  }
  const auto metrics = engine.metrics();
  // Five Schweitzer lanes in one lockstep block; MoM fell back to scalar.
  EXPECT_EQ(metrics.batch_blocks, 1u);
  EXPECT_EQ(metrics.batch_lanes, 5u);
  EXPECT_EQ(metrics.batch_scalar_fallbacks, 1u);
  EXPECT_EQ(metrics.misses, specs.size());
}

TEST(McEngineBatch, CachedClassGridDeepensThroughTheBatchPath) {
  service::Engine engine;
  // Seed a varying-class structure shallow, then batch it deeper: the
  // lockstep kernel must lease the cached MulticlassGrid, deepen it in
  // place, and still match a from-scratch scalar solve bit-for-bit.
  (void)engine.evaluate_batch({mixed_model_spec("seed", 1.0, 4)});
  const auto before = engine.metrics();
  const auto evals =
      engine.evaluate_batch({mixed_model_spec("deeper", 1.0, 12),
                             mixed_model_spec("sibling", 1.3, 9)});
  const auto after = engine.metrics();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.batch_blocks - before.batch_blocks, 1u);
  EXPECT_EQ(after.batch_scalar_fallbacks, before.batch_scalar_fallbacks);
  for (const auto& ev : evals) EXPECT_FALSE(ev.cache_hit);
  {
    const ScenarioSpec reference = mixed_model_spec("ref", 1.0, 12);
    const MvaResult scalar =
        core::solve(reference.network, nullptr, reference.options);
    expect_mc_parity(*evals[0].result, scalar);
  }
  // The deepened entry answers both depths from cache now.
  EXPECT_TRUE(engine.evaluate(mixed_model_spec("hit", 1.0, 12)).cache_hit);
  EXPECT_TRUE(engine.evaluate(mixed_model_spec("hit4", 1.0, 4)).cache_hit);
}

TEST(EngineBatch, BalancedFleetFlushIsBitIdenticalToScalar) {
  // 26 fleet lanes on a 2-worker pool plan for 3 threads: blocks of
  // 10 | 8 | 8 lanes, next to one multiclass block.
  ThreadPool pool(2);
  service::EngineOptions options;
  options.pool = &pool;
  service::Engine engine(options);
  std::vector<ScenarioSpec> specs;
  for (std::size_t l = 0; l < 26; ++l) {
    ScenarioSpec spec;
    spec.label = "fleet-" + std::to_string(l);
    spec.network = fleet_network();
    spec.demands = fleet_demands(l, 1.0);
    spec.options.solver = SolverKind::kMvasd;
    spec.options.max_population = 150 + static_cast<unsigned>((l * 53) % 250);
    specs.push_back(std::move(spec));
  }
  for (unsigned i = 0; i < 3; ++i) {
    specs.push_back(mix_spec("mix-" + std::to_string(i), 1.0 + 0.1 * i,
                             5 + 2 * i));
  }
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + specs[i].label);
    EXPECT_FALSE(evals[i].cache_hit);
    expect_bitwise(*evals[i].result, core::solve(specs[i].network,
                                                 &specs[i].demands,
                                                 specs[i].options));
  }
  const auto m = engine.metrics();
  EXPECT_EQ(m.batch_blocks, 4u);
  EXPECT_EQ(m.batch_occupancy[10], 1u);
  EXPECT_EQ(m.batch_occupancy[8], 2u);
  EXPECT_EQ(m.batch_occupancy[3], 1u);  // the multiclass block
  EXPECT_EQ(m.batch_occupancy[16], 0u);
  EXPECT_GT(m.batch_busy_ms, 0.0);
  EXPECT_LE(m.batch_busy_ms, m.batch_capacity_ms);
}

TEST(DemandGrid, DeepeningConstructorMatchesFreshTabulation) {
  const DemandModel model = vins_spline_demands(1.0);
  const core::DemandGrid shallow(model, 50);
  const core::DemandGrid deepened(model, 200, &shallow);
  const core::DemandGrid fresh(model, 200);
  ASSERT_TRUE(deepened.tabulated());
  ASSERT_EQ(deepened.max_population(), 200u);
  for (unsigned n = 1; n <= 200; ++n) {
    for (std::size_t k = 0; k < model.stations(); ++k) {
      EXPECT_EQ(deepened.at(n, k), fresh.at(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace mtperf
