// Tests of the benchmark's own logic: the percentile rule, span self-time
// arithmetic, failed-operation accounting against a server that sheds,
// and the open-loop due-time clock.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/socket.hpp"
#include "measure.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// --- percentile rule -------------------------------------------------------

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(tail_supported(1000, 99));   // 10 beyond
  EXPECT_FALSE(tail_supported(999, 99));   // 9.99 beyond
  EXPECT_TRUE(tail_supported(100, 90));
  EXPECT_FALSE(tail_supported(99, 90));
  EXPECT_TRUE(tail_supported(10000, 99.9));
  EXPECT_FALSE(tail_supported(9999, 99.9));
}

TEST(PercentileRule, UnsupportedTailIsOmittedNotZero) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(percentile_if_supported(v, 99).has_value());
  v.push_back(1000);
  const auto p99 = percentile_if_supported(v, 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 1.0 + 0.99 * 999.0);  // type-7 interpolation
  EXPECT_FALSE(percentile_if_supported({}, 50).has_value());
}

TEST(PercentileRule, MedianNeedsOneSample) {
  const auto p50 = percentile_if_supported({3.0}, 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 3.0);
  EXPECT_DOUBLE_EQ(*percentile_if_supported({1, 2, 3, 4}, 50), 2.5);
}

// --- span self time --------------------------------------------------------

TEST(SpanSelfTime, ChildrenCoverPartOfTheParent) {
  std::vector<Span> spans = {
      {"parent", 0, 100, kNoParent, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // overlaps a: the union 10..50 counts once
      {"c", 90, 120, 0, 1},   // runs past the parent: clipped to 90..100
      {"a.child", 12, 18, 1, 1},
      {"other", 0, 40, kNoParent, 2},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);  // a grandchild counts against its own parent
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 40);
}

TEST(SpanSelfTime, DisjointAndAdjacentChildren) {
  std::vector<Span> spans = {
      {"parent", 0, 100, kNoParent, 0},
      {"a", 0, 25, 0, 0},
      {"b", 25, 50, 0, 0},   // adjacent to a
      {"c", 60, 70, 0, 0},
      {"outside", 200, 300, 0, 0},  // entirely outside the parent
  };
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 50 - 10);
}

TEST(SpanSelfTime, TracerRecordsParentAndRequest) {
  Tracer t;
  const auto root = t.begin("root", kNoParent, 7);
  const auto child = t.begin("child", root, 7);
  t.end(child);
  t.end(root);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[1].request, 7u);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
  const auto self = self_times_ns(t.spans());
  EXPECT_EQ(self[0], t.spans()[0].duration_ns() - t.spans()[1].duration_ns());
}

// --- failed-operation accounting -------------------------------------------

TEST(ResponseClassification, ReadsTheFieldsTheBenchmarkNeeds) {
  const ResponseInfo ok = classify_response(
      "{\"bottleneck\":\"db\",\"cache_hit\":true,\"id\":42,\"prefix_hit\":"
      "true,\"throughput\":1.5}");
  EXPECT_EQ(ok.outcome, Outcome::kOk);
  EXPECT_EQ(ok.id, 42u);
  EXPECT_TRUE(ok.cache_hit);
  const ResponseInfo shed =
      classify_response("{\"error\":\"overloaded\",\"id\":3}");
  EXPECT_EQ(shed.outcome, Outcome::kOverloaded);
  EXPECT_EQ(shed.id, 3u);
  const ResponseInfo bad =
      classify_response("{\"error\":\"mtperf: bad request\"}");
  EXPECT_EQ(bad.outcome, Outcome::kError);
  EXPECT_FALSE(bad.id.has_value());
  EXPECT_EQ(classify_response("garbage").outcome, Outcome::kError);
}

TEST(Ledger, CountsLostDuplicatedUnmatchedAndWrong) {
  Ledger ledger;
  for (std::uint64_t id = 0; id < 10; ++id) ledger.sent(id);
  for (std::uint64_t id = 0; id < 6; ++id) ledger.received(id, Outcome::kOk);
  ledger.received(6, Outcome::kError);
  ledger.received(7, Outcome::kOverloaded);
  EXPECT_FALSE(ledger.received(3, Outcome::kOk));    // duplicate
  EXPECT_FALSE(ledger.received(99, Outcome::kOk));   // never sent
  ledger.unmatched();
  ledger.wrong(5);
  EXPECT_EQ(ledger.attempted(), 10u);
  EXPECT_EQ(ledger.ok(), 5u);
  EXPECT_EQ(ledger.lost(), 2u);  // ids 8 and 9
  EXPECT_EQ(ledger.duplicates(), 2u);
  EXPECT_EQ(ledger.failed(), 1u + 1u + 2u + 2u + 1u + 1u);
  EXPECT_DOUBLE_EQ(ledger.failed_share(), 8.0 / 10.0);
}

TEST(Ledger, ServerWithATinyQueueShedsAndEverySheddingCounts) {
  mtperf::service::ServerOptions options;
  options.queue_capacity = 1;
  options.max_batch = 1;
  options.engine.threads = 1;
  mtperf::service::Server server(options);
  server.start();

  // A burst of cold N=1500 solves: the batcher works on one while the
  // queue holds one more, so the rest of the burst is shed.
  const Workload& w = *find_workload("cold_sweep");
  constexpr std::uint64_t kBurst = 40;
  std::string burst;
  Ledger ledger;
  for (std::uint64_t id = 0; id < kBurst; ++id) {
    burst += make_request(w, 7, id).line;
    ledger.sent(id);
  }
  mtperf::Socket sock = mtperf::connect_tcp(server.port());
  ASSERT_TRUE(sock.send_all(burst));
  mtperf::LineReader reader(sock);
  std::string line;
  for (std::uint64_t n = 0; n < kBurst; ++n) {
    ASSERT_TRUE(reader.next_line(line));
    const ResponseInfo info = classify_response(line);
    ASSERT_TRUE(info.id.has_value()) << line;
    ledger.received(*info.id, info.outcome);
  }
  const auto counters = server.metrics();
  server.stop();

  EXPECT_GT(ledger.overloaded(), 0u);
  EXPECT_EQ(ledger.overloaded(),
            counters.rejected_overloaded + counters.rejected_inflight);
  EXPECT_EQ(ledger.ok() + ledger.overloaded(), kBurst);
  EXPECT_EQ(ledger.lost(), 0u);
  EXPECT_EQ(ledger.failed(), ledger.overloaded());
  EXPECT_DOUBLE_EQ(ledger.failed_share(),
                   static_cast<double>(ledger.overloaded()) / kBurst);
}

// --- open-loop clock -------------------------------------------------------

TEST(OpenLoopClock, DueTimesAreAbsoluteAndSeeded) {
  const OpenLoopClock a(0, 800.0, 11, 10.0);
  const OpenLoopClock b(5'000, 800.0, 11, 10.0);
  const OpenLoopClock other(0, 800.0, 12, 10.0);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b.due_ns(i), a.due_ns(i) + 5'000);  // offsets fixed by seed
    if (i > 0) {
      EXPECT_GE(a.due_ns(i), a.due_ns(i - 1));
    }
    if (i < other.size() && other.due_ns(i) != a.due_ns(i)) differs = true;
  }
  EXPECT_TRUE(differs);
  EXPECT_LT(a.due_ns(a.size() - 1), 10'000'000'000);
}

TEST(OpenLoopClock, OffersTheConfiguredRate) {
  // Poisson count over 100 s at 800/s: mean 80000, sd ~283.
  const OpenLoopClock clock(0, 800.0, 3, 100.0);
  EXPECT_NEAR(static_cast<double>(clock.size()), 80'000.0, 1'500.0);
  std::size_t first_half = 0;
  while (clock.due_ns(first_half) < 50'000'000'000) ++first_half;
  EXPECT_NEAR(static_cast<double>(first_half), 40'000.0, 1'200.0);
}

TEST(OpenLoopClock, AStalledSenderDoesNotShiftLaterDueTimes) {
  // The sender stalls 50 ms before request 10: that request and the ones
  // it delays are timed from when they were due, so the stall shows in
  // their latency instead of vanishing (no coordinated omission).
  const OpenLoopClock clock(0, 1000.0, 5, 1.0);
  const OpenLoopClock replan(0, 1000.0, 5, 1.0);
  const std::int64_t stall = 50'000'000;
  std::int64_t now = 0;
  std::int64_t stalled_at = 0;
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < 20; ++i) {
    const std::int64_t due = clock.due_ns(i);
    if (i == 10) {
      stalled_at = std::max(now, due);
      now = stalled_at + stall;
    }
    now = std::max(now, due);  // send no earlier than due
    const std::int64_t served = now + 100'000;  // 0.1 ms service
    latency_ms.push_back(static_cast<double>(served - due) / 1e6);
  }
  EXPECT_DOUBLE_EQ(latency_ms[9], 0.1);
  // Request 10 went out 50 ms after it was due and is timed from its due
  // time; the requests it held up carry the rest of the stall.
  EXPECT_NEAR(latency_ms[10], 0.1 + 50.0, 1e-6);
  const double held =
      static_cast<double>(stalled_at + stall - clock.due_ns(19));
  EXPECT_NEAR(latency_ms[19], 0.1 + held / 1e6, 1e-6);
  EXPECT_GT(latency_ms[19], 0.1);
  // The schedule itself is unchanged by what the sender did.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(clock.due_ns(i), replan.due_ns(i));
  }
}

}  // namespace
}  // namespace perfbench
