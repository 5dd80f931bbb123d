// Unit and statistical tests for mtperf::sim — the discrete-event
// simulator that substitutes for the paper's physical testbed.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include <algorithm>
#include <random>

#include "common/error.hpp"
#include "core/demand_model.hpp"
#include "core/mva_exact.hpp"
#include "core/mvasd.hpp"
#include "core/network.hpp"
#include "sim/closed_network_sim.hpp"
#include "sim/event_engine.hpp"

namespace mtperf::sim {
namespace {

// ------------------------------------------------------------- EventEngine

TEST(EventEngine, DispatchesInTimeOrderWithPayload) {
  EventEngine eng;
  std::vector<std::pair<EventOp, std::uint32_t>> seen;
  eng.schedule(3.0, EventOp::kDeparture, 30);
  eng.schedule(1.0, EventOp::kThinkDone, 10);
  eng.schedule(2.0, EventOp::kPsFire, 20);
  eng.run_until(10.0, [&](const Event& ev) { seen.push_back({ev.op, ev.a}); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair{EventOp::kThinkDone, 10u}));
  EXPECT_EQ(seen[1], (std::pair{EventOp::kPsFire, 20u}));
  EXPECT_EQ(seen[2], (std::pair{EventOp::kDeparture, 30u}));
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(EventEngine, SimultaneousEventsDispatchFifo) {
  EventEngine eng;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 8; ++i) eng.schedule(1.0, EventOp::kTick, i);
  eng.run_until(1.0, [&](const Event& ev) { order.push_back(ev.a); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventEngine, StepDispatchesOneEvent) {
  EventEngine eng;
  int fired = 0;
  eng.schedule(1.0, EventOp::kTick);
  eng.schedule(2.0, EventOp::kTick);
  auto count = [&](const Event&) { ++fired; };
  EXPECT_TRUE(eng.step(count));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
  EXPECT_TRUE(eng.step(count));
  EXPECT_FALSE(eng.step(count));
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EventEngine, HandlersCanRescheduleDuringDispatch) {
  EventEngine eng;
  int chain = 0;
  eng.schedule(1.0, EventOp::kTick);
  eng.run_until(100.0, [&](const Event&) {
    if (++chain < 5) eng.schedule(1.0, EventOp::kTick);
  });
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 100.0);
}

TEST(EventEngine, RunUntilStopsAtBoundary) {
  EventEngine eng;
  int fired = 0;
  const auto count = [&](const Event&) { ++fired; };
  eng.schedule(1.0, EventOp::kTick);
  eng.schedule(2.5, EventOp::kTick);
  eng.run_until(2.0, count);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  eng.run_until(3.0, count);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EventEngine, RejectsPastScheduling) {
  EventEngine eng;
  eng.run_until(5.0, [](const Event&) {});
  EXPECT_THROW(eng.schedule(-1.0, EventOp::kTick), invalid_argument_error);
  EXPECT_THROW(eng.run_until(4.0, [](const Event&) {}),
               invalid_argument_error);
}

TEST(EventEngine, HeapStressMatchesSortedReference) {
  // Push a few thousand events with random times (duplicates included) and
  // check the 4-ary heap drains them in exactly stable-sorted order.
  EventEngine eng;
  std::mt19937_64 gen(12345);
  std::uniform_int_distribution<int> coarse(0, 99);
  std::vector<std::pair<double, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const double t = static_cast<double>(coarse(gen)) * 0.25;
    eng.schedule(t, EventOp::kTick, i);
    expected.push_back({t, i});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<double, std::uint32_t>> seen;
  eng.run_until(1e9, [&](const Event& ev) { seen.push_back({ev.time, ev.a}); });
  EXPECT_EQ(seen, expected);
}

// ----------------------------------------------------------------- Station
//
// Station-level behaviour (FCFS here, processor sharing below) through the
// typed runner.  Deterministic service and think times plus ramp-up
// staggering make every arrival and completion instant a closed-form
// number; the per-bucket timeline reads back each completion's time and
// response time, and the station stats read back the utilization and
// queue-length integrals.

/// `customers` arrive at c * stagger and each runs one transaction: the
/// deterministic think time outlasts every horizon used here.
SimOptions scripted(unsigned customers, double stagger, double horizon) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = 1e6;
  o.exponential_think = false;
  o.ramp_up_interval = stagger;
  o.warmup_time = 0.0;
  o.measure_time = horizon;
  return o;
}

SimVisit fixed_visit(std::size_t station, double service) {
  return {station, service, {DistributionKind::kDeterministic, 0.0}};
}

/// One timeline bucket that saw completions.
struct Departures {
  double at = 0.0;        ///< bucket start
  double count = 0.0;     ///< completions in the bucket
  double response = 0.0;  ///< their mean response time
};

/// The non-empty buckets of a run recorded with `width`-second buckets.
std::vector<Departures> departures(const SimResult& r, double width) {
  std::vector<Departures> out;
  for (const auto& b : r.timeline) {
    if (b.throughput > 0.0) {
      out.push_back({b.start_time, b.throughput * width, b.response_time});
    }
  }
  return out;
}

void expect_departures(const std::vector<Departures>& got,
                       const std::vector<Departures>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i].at, want[i].at, 1e-9) << "bucket " << i;
    EXPECT_NEAR(got[i].count, want[i].count, 1e-9) << "bucket " << i;
    EXPECT_NEAR(got[i].response, want[i].response, 1e-9) << "bucket " << i;
  }
}

TEST(Station, ServesImmediatelyWhenIdle) {
  // Two servers, arrivals at 0, 0.5, 1 needing 2 s each: the first two
  // start on arrival (response = service); the third waits for the first
  // departure at t = 2 and leaves at 4.
  SimOptions o = scripted(3, 0.5, 5.0);
  o.timeline_bucket = 0.5;
  const auto r =
      simulate_closed_network({{"cpu", 2}}, {fixed_visit(0, 2.0)}, o);
  expect_departures(departures(r, 0.5),
                    {{2.0, 1, 2.0}, {2.5, 1, 2.0}, {4.0, 1, 3.0}});
  EXPECT_EQ(r.transactions, 3u);
  EXPECT_EQ(r.stations[0].completions, 3u);
}

TEST(Station, QueuesBeyondServerCount) {
  // One server, arrivals at 0, 0.5, 1 needing 2 s each: strict FCFS
  // departures at 2, 4, 6 in arrival order (LIFO would give the t = 1
  // arrival a response of 3 and the t = 0.5 one 5.5).
  SimOptions o = scripted(3, 0.5, 8.0);
  o.timeline_bucket = 0.5;
  const auto r =
      simulate_closed_network({{"disk", 1}}, {fixed_visit(0, 2.0)}, o);
  expect_departures(departures(r, 0.5),
                    {{2.0, 1, 2.0}, {4.0, 1, 3.5}, {6.0, 1, 5.0}});
  EXPECT_NEAR(r.response_time, 3.5, 1e-9);
}

TEST(Station, UtilizationOfDeterministicLoad) {
  // Two servers, arrivals at 0, 1, 2 needing 3 s each (the third queues
  // until t = 3): 9 busy-server-seconds over 8 s of 2 servers -> 9/16.
  const auto r = simulate_closed_network({{"cpu", 2}}, {fixed_visit(0, 3.0)},
                                         scripted(3, 1.0, 8.0));
  EXPECT_NEAR(r.stations[0].utilization, 9.0 / 16.0, 1e-9);
  // Jobs present: 1, 2, 3, 2, 1, 1, 0, 0 over the eight seconds.
  EXPECT_NEAR(r.stations[0].mean_jobs, 10.0 / 8.0, 1e-9);
}

TEST(Station, MeanJobsTimeAverage) {
  // One server, arrivals at 0, 0.5, 1 needing 2 s each: 1 job on [0, 0.5),
  // 2 on [0.5, 1), 3 on [1, 2), 2 on [2, 4), 1 on [4, 6), none after —
  // 10.5 job-seconds over 8 s.
  const auto r = simulate_closed_network({{"cpu", 1}}, {fixed_visit(0, 2.0)},
                                         scripted(3, 0.5, 8.0));
  EXPECT_NEAR(r.stations[0].mean_jobs, 10.5 / 8.0, 1e-9);
  EXPECT_NEAR(r.stations[0].utilization, 6.0 / 8.0, 1e-9);
}

TEST(Station, ResetStatsDropsHistoryKeepsJobs) {
  // One server, two jobs of 2 s arriving together; the warm-up ends at
  // t = 1 with one in service and one queued.  Both complete in the
  // measure window [1, 4], during which the server is never idle.
  SimOptions o = scripted(2, 0.0, 3.0);
  o.warmup_time = 1.0;
  const auto r =
      simulate_closed_network({{"cpu", 1}}, {fixed_visit(0, 2.0)}, o);
  EXPECT_EQ(r.stations[0].completions, 2u);
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_NEAR(r.stations[0].utilization, 1.0, 1e-9);
  // 2 jobs on [1, 2), 1 on [2, 4): 4 job-seconds over 3 s.
  EXPECT_NEAR(r.stations[0].mean_jobs, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.response_time, (2.0 + 4.0) / 2.0, 1e-9);
}

TEST(Station, ZeroServiceTimeCompletes) {
  // One customer with a 1 s deterministic think cycle arrives at
  // t = 0, 1, ..., 10; zero service means every visit completes at once.
  for (const auto discipline :
       {Discipline::kFcfs, Discipline::kProcessorSharing}) {
    SimOptions o;
    o.customers = 1;
    o.think_time_mean = 1.0;
    o.exponential_think = false;
    o.warmup_time = 0.5;
    o.measure_time = 10.0;
    const auto r = simulate_closed_network({{"nic", 1, discipline}},
                                           {fixed_visit(0, 0.0)}, o);
    EXPECT_EQ(r.transactions, 10u);
    EXPECT_EQ(r.stations[0].completions, 10u);
    EXPECT_EQ(r.response_time, 0.0);
    EXPECT_EQ(r.stations[0].utilization, 0.0);
  }
}

TEST(Station, RejectsInvalidConfig) {
  const SimOptions o = scripted(1, 0.0, 1.0);
  EXPECT_THROW(simulate_closed_network({{"x", 0}}, {fixed_visit(0, 1.0)}, o),
               invalid_argument_error);
  EXPECT_THROW(simulate_closed_network({{"x", 1}}, {fixed_visit(0, -1.0)}, o),
               invalid_argument_error);
}

// ------------------------------------------------------------ PS station

std::vector<SimStation> ps_cpu(unsigned servers) {
  return {{"cpu", servers, Discipline::kProcessorSharing}};
}

TEST(ProcessorSharing, SingleJobRunsAtFullRate) {
  const auto r =
      simulate_closed_network(ps_cpu(1), {fixed_visit(0, 2.0)},
                              scripted(1, 0.0, 10.0));
  EXPECT_EQ(r.transactions, 1u);
  EXPECT_NEAR(r.response_time, 2.0, 1e-9);
  EXPECT_EQ(r.stations[0].completions, 1u);
}

TEST(ProcessorSharing, TwoJobsShareCapacity) {
  // Both jobs proceed at rate 1/2: both finish at t = 2.
  const auto r =
      simulate_closed_network(ps_cpu(1), {fixed_visit(0, 1.0)},
                              scripted(2, 0.0, 10.0));
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_NEAR(r.response_time, 2.0, 1e-9);
  EXPECT_NEAR(r.response_percentiles.p50, 2.0, 1e-9);
  EXPECT_NEAR(r.response_percentiles.p99, 2.0, 1e-9);
}

TEST(ProcessorSharing, ShortJobOvertakesLongJob) {
  // Each transaction visits the cpu twice: a 1 s job, then a 4 s job.
  // Customer 0's short job runs alone on [0, 1]; its long job starts at
  // t = 1 and runs alone until customer 1's short job arrives at t = 1.5.
  // Sharing at rate 1/2, the short job leaves at t = 3.5 — while the long
  // job that entered before it is still in service (FCFS would hold the
  // short job until t = 5).
  const std::vector<SimVisit> flow{fixed_visit(0, 1.0), fixed_visit(0, 4.0)};
  const auto by_4s = simulate_closed_network(ps_cpu(1), flow,
                                             scripted(2, 1.5, 4.0));
  EXPECT_EQ(by_4s.stations[0].completions, 2u);  // both short jobs
  EXPECT_EQ(by_4s.transactions, 0u);             // no long job yet
  // Customer 0's long job has 2.5 s left at t = 3.5 and shares with
  // customer 1's long job until it leaves at t = 8.5; customer 1's long
  // job then has 1.5 s left and leaves at t = 10.  Both transactions take
  // 8.5 s.
  SimOptions o = scripted(2, 1.5, 12.0);
  o.timeline_bucket = 1.0;
  const auto full = simulate_closed_network(ps_cpu(1), flow, o);
  EXPECT_EQ(full.stations[0].completions, 4u);
  expect_departures(departures(full, 1.0), {{8.0, 1, 8.5}, {10.0, 1, 8.5}});
}

TEST(ProcessorSharing, MultiServerRunsUpToCJobsAtFullSpeed) {
  // Two jobs on two servers both run at full rate...
  const auto two = simulate_closed_network(ps_cpu(2), {fixed_visit(0, 1.0)},
                                           scripted(2, 0.0, 10.0));
  EXPECT_EQ(two.transactions, 2u);
  EXPECT_NEAR(two.response_time, 1.0, 1e-9);
  // ...while a third shares the capacity: each runs at rate 2/3.
  const auto three = simulate_closed_network(ps_cpu(2), {fixed_visit(0, 1.0)},
                                             scripted(3, 0.0, 10.0));
  EXPECT_EQ(three.transactions, 3u);
  EXPECT_NEAR(three.response_time, 1.5, 1e-9);
}

TEST(ProcessorSharing, UtilizationAccounting) {
  // One job for 3 s on a 2-server station: busy integral 3 of capacity 12.
  const auto r = simulate_closed_network(ps_cpu(2), {fixed_visit(0, 3.0)},
                                         scripted(1, 0.0, 6.0));
  EXPECT_NEAR(r.stations[0].utilization, 0.25, 1e-9);
  EXPECT_NEAR(r.stations[0].mean_jobs, 0.5, 1e-9);
}

// -------------------------------------------------- closed network (stats)

SimOptions quick_options(unsigned customers, std::uint64_t seed) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = 1.0;
  o.warmup_time = 50.0;
  o.measure_time = 400.0;
  o.seed = seed;
  return o;
}

TEST(ClosedNetworkSim, SingleUserThroughputMatchesCycleTime) {
  // One customer, one queue: X = 1 / (S + Z) exactly in expectation.
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.5}};
  const auto r = simulate_closed_network(stations, flow, quick_options(1, 3));
  EXPECT_NEAR(r.throughput, 1.0 / 1.5, 0.03);
  EXPECT_NEAR(r.response_time, 0.5, 0.03);
  EXPECT_NEAR(r.cycle_time, 1.5, 0.03);
}

TEST(ClosedNetworkSim, UtilizationLawHolds) {
  // U = X * D must hold for the measured window (operational identity).
  const std::vector<SimStation> stations{{"cpu", 1}, {"disk", 1}};
  const std::vector<SimVisit> flow{{0, 0.05}, {1, 0.02}, {0, 0.05}};
  const auto r = simulate_closed_network(stations, flow, quick_options(5, 7));
  EXPECT_NEAR(r.stations[0].utilization, r.throughput * 0.10, 0.01);
  EXPECT_NEAR(r.stations[1].utilization, r.throughput * 0.02, 0.005);
}

TEST(ClosedNetworkSim, MatchesExactMvaOnProductFormNetwork) {
  // The central validation: DES and exact MVA must agree on a product-form
  // closed network (single-server stations, exponential everything).
  const std::vector<SimStation> stations{{"a", 1}, {"b", 1}};
  const std::vector<SimVisit> flow{{0, 0.08}, {1, 0.12}};
  const auto net = core::make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> demands{0.08, 0.12};
  const auto mva = core::exact_mva(net, demands, 20);
  for (unsigned n : {1u, 5u, 12u, 20u}) {
    SimOptions o = quick_options(n, 100 + n);
    o.measure_time = 800.0;
    const auto sim = simulate_closed_network(stations, flow, o);
    const double predicted = mva.throughput[mva.row_for(n)];
    EXPECT_NEAR(sim.throughput, predicted, 0.04 * predicted) << "n=" << n;
  }
}

TEST(ClosedNetworkSim, MatchesMultiServerMvaWithMultiCoreStation) {
  const std::vector<SimStation> stations{{"cpu", 4}};
  const std::vector<SimVisit> flow{{0, 0.8}};
  const core::ClosedNetwork net(
      {core::Station{"cpu", 1.0, 4, core::StationKind::kQueueing}}, 1.0);
  const auto mva = core::mvasd(net, core::DemandModel::constant({0.8}), 16);
  for (unsigned n : {2u, 6u, 10u, 16u}) {
    SimOptions o = quick_options(n, 200 + n);
    o.measure_time = 800.0;
    const auto sim = simulate_closed_network(stations, flow, o);
    const double predicted = mva.throughput[mva.row_for(n)];
    EXPECT_NEAR(sim.throughput, predicted, 0.05 * predicted) << "n=" << n;
  }
}

TEST(ClosedNetworkSim, DeterministicForSeed) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  const auto a = simulate_closed_network(stations, flow, quick_options(4, 9));
  const auto b = simulate_closed_network(stations, flow, quick_options(4, 9));
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.response_time, b.response_time);
}

TEST(ClosedNetworkSim, SeedChangesRealization) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  const auto a = simulate_closed_network(stations, flow, quick_options(4, 1));
  const auto b = simulate_closed_network(stations, flow, quick_options(4, 2));
  EXPECT_NE(a.transactions, b.transactions);
}

TEST(ClosedNetworkSim, ConfidenceIntervalCoversMeanEstimate) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.4}};
  SimOptions o = quick_options(3, 17);
  o.measure_time = 1500.0;
  const auto r = simulate_closed_network(stations, flow, o);
  EXPECT_GT(r.response_time_ci.half_width, 0.0);
  EXPECT_TRUE(r.response_time_ci.contains(r.response_time));
}

TEST(ClosedNetworkSim, TimelineShowsRampUpTransient) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.05}};
  SimOptions o = quick_options(50, 23);
  o.ramp_up_interval = 2.0;       // users trickle in over 100 s
  o.warmup_time = 150.0;
  o.measure_time = 300.0;
  o.timeline_bucket = 15.0;
  const auto r = simulate_closed_network(stations, flow, o);
  ASSERT_FALSE(r.timeline.empty());
  // Early bucket throughput well below late-bucket steady state.
  const double early = r.timeline[0].throughput;
  const double late = r.timeline[r.timeline.size() - 2].throughput;
  EXPECT_LT(early, 0.6 * late);
}

TEST(ClosedNetworkSim, DeterministicThinkTimeSupported) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.2}};
  SimOptions o = quick_options(1, 31);
  o.exponential_think = false;
  const auto r = simulate_closed_network(stations, flow, o);
  EXPECT_NEAR(r.throughput, 1.0 / 1.2, 0.02);
}


TEST(ClosedNetworkSim, ResponsePercentilesOrderedAndBracketMean) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  SimOptions o = quick_options(5, 77);
  o.measure_time = 1000.0;
  const auto r = simulate_closed_network(stations, flow, o);
  const auto& p = r.response_percentiles;
  EXPECT_LT(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p95);
  EXPECT_LE(p.p95, p.p99);
  // Exponential-ish right skew: median below mean, p99 well above.
  EXPECT_LT(p.p50, r.response_time);
  EXPECT_GT(p.p99, 2.0 * r.response_time);
}

TEST(ClosedNetworkSim, Validation) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.1}};
  EXPECT_THROW(simulate_closed_network({}, flow, quick_options(1, 1)),
               invalid_argument_error);
  EXPECT_THROW(simulate_closed_network(stations, {}, quick_options(1, 1)),
               invalid_argument_error);
  EXPECT_THROW(
      simulate_closed_network(stations, {{3, 0.1}}, quick_options(1, 1)),
      invalid_argument_error);
  SimOptions bad = quick_options(0, 1);
  EXPECT_THROW(simulate_closed_network(stations, flow, bad),
               invalid_argument_error);
}

}  // namespace
}  // namespace mtperf::sim
