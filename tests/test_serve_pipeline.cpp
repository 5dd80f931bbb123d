// Tests for the serving pipeline: the bounded submission queue, the
// hostile-input behavior of the request core, single-flight dedup of
// concurrent identical misses, batched-vs-scalar parity, and the socket
// Server end to end (including overload shedding).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/socket.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace {

using namespace mtperf;
using service::Json;

// --- helpers ---------------------------------------------------------------

core::ScenarioSpec make_spec(double demand_scale, unsigned population,
                             unsigned servers = 4) {
  std::vector<core::Station> stations;
  for (int k = 0; k < 4; ++k) {
    core::Station st;
    st.name = "st" + std::to_string(k);
    st.servers = servers;
    stations.push_back(std::move(st));
  }
  core::ScenarioSpec spec;
  spec.label = "t";
  spec.network = core::ClosedNetwork(std::move(stations), 1.0);
  spec.demands = core::DemandModel::constant(
      {0.010 * demand_scale, 0.020 * demand_scale, 0.005 * demand_scale,
       0.015 * demand_scale});
  spec.options.solver = core::SolverKind::kMvasd;
  spec.options.max_population = population;
  return spec;
}

std::string spec_request(std::uint64_t id, double demand_scale,
                         unsigned population) {
  const core::ScenarioSpec spec = make_spec(demand_scale, population);
  Json::Object request;
  request["id"] = static_cast<unsigned long long>(id);
  request["label"] = spec.label;
  request["think"] = spec.network.think_time();
  Json::Array stations;
  for (const auto& st : spec.network.stations()) {
    Json::Object js;
    js["name"] = st.name;
    js["servers"] = static_cast<unsigned long long>(st.servers);
    stations.push_back(Json(std::move(js)));
  }
  request["stations"] = Json(std::move(stations));
  Json::Object demands;
  demands["type"] = std::string("constant");
  Json::Array values;
  for (unsigned k = 0; k < 4; ++k) {
    values.emplace_back(spec.demands.at(k, 1.0));
  }
  demands["values"] = Json(std::move(values));
  request["demands"] = Json(std::move(demands));
  request["solver"] = std::string("mvasd");
  request["max_population"] = static_cast<unsigned long long>(population);
  return Json(std::move(request)).dump() + "\n";
}

/// spec_request with "series":true.
std::string series_request(std::uint64_t id, double demand_scale,
                           unsigned population) {
  std::string line = spec_request(id, demand_scale, population);
  line.insert(line.size() - 2, ",\"series\":true");
  return line;
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, TryPushShedsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: fast-reject, no blocking
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));  // space again
}

TEST(BoundedQueue, PopUntilTimesOut) {
  BoundedQueue<int> q(4);
  int out = 0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(
      out, start + std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));  // closed: reject new work
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // queued work still drains
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // drained + closed
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&q] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

// --- hostile request lines -------------------------------------------------

TEST(RequestParsing, HostileInputsThrowInsteadOfCrashing) {
  const char* hostile[] = {
      "",                          // empty
      "{",                         // truncated object
      "{\"a\":",                   // truncated value
      "{\"a\":1,}",                // trailing comma
      "nonsense",                  // not JSON at all
      "{\"x\":NaN}",               // NaN literal is not JSON
      "{\"x\":Infinity}",          // neither is Infinity
      "{\"x\":1e999999}",          // overflows double
      "{\"x\":--5}",               // malformed number
      "{\"cmd\":\"format-disk\"}", // unknown command
      "\"just a string\"",         // not an object
      "{\"label\":\"\xff\xfe\"}",  // invalid UTF-8 in a string
  };
  for (const char* line : hostile) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
}

TEST(RequestParsing, DeepNestingIsBounded) {
  std::string bomb;
  for (int i = 0; i < 2000; ++i) bomb += "[";
  EXPECT_THROW(Json::parse(bomb), std::exception);
  // At the boundary: kMaxParseDepth levels parse, one more does not.
  std::string ok, over;
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) {
    ok += "[";
    over += "[";
  }
  over += "[";
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) ok += "]";
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) over += "]";
  EXPECT_NO_THROW(Json::parse(ok));
  EXPECT_THROW(Json::parse(over), std::exception);
}

TEST(RequestParsing, SchemaViolationsThrow) {
  // Valid JSON, invalid scenarios: the request core must reject these
  // before they reach a solver.
  const char* bad[] = {
      // no stations
      "{\"stations\":[],\"demands\":{\"type\":\"constant\",\"values\":[]},"
      "\"max_population\":10}",
      // demand count mismatch
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2]},"
      "\"max_population\":10}",
      // negative demand
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[-0.1]},"
      "\"max_population\":10}",
      // zero population
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":0}",
      // absurd population
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":1e15}",
      // negative think time
      "{\"think\":-1,\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      // zero servers
      "{\"stations\":[{\"name\":\"a\",\"servers\":0}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      // unknown solver
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"solver\":\"quantum\",\"max_population\":10}",
      // two stations named alike: one would vanish from "utilization"
      "{\"stations\":[{\"name\":\"db\"},{\"name\":\"db\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2]},"
      "\"max_population\":10}",
      // fractional servers / population would be truncated
      "{\"stations\":[{\"name\":\"a\",\"servers\":2.7}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":4.9}",
  };
  for (const char* line : bad) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
}

TEST(RequestParsing, IdRecoveryFromBrokenRequests) {
  EXPECT_EQ(service::recover_request_id("{\"id\":41,\"cmd\":\"nope\"}")
                .as_number(),
            41.0);
  EXPECT_TRUE(service::recover_request_id("{\"id\":41").is_null());
  EXPECT_TRUE(service::recover_request_id("{}").is_null());
}

// --- multiclass request lines ----------------------------------------------

TEST(RequestParsing, HostileClassesInputsThrow) {
  // Valid JSON, invalid class mixes: every one must be rejected at parse
  // time, before a solver or the cache sees it.
  const char* bad[] = {
      // classes next to single-class demands
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2]},"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // classes next to max_population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"max_population\":10,"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // single-class solver kind with a class mix
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"solver\":\"mvasd\","
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // empty mix
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[]}",
      // missing class name
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"population\":5,\"demands\":[0.1,0.2]}]}",
      // empty class name
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // missing population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"demands\":[0.1,0.2]}]}",
      // negative population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":-3,"
      "\"demands\":[0.1,0.2]}]}",
      // absurd population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":2000000,"
      "\"demands\":[0.1,0.2]}]}",
      // every class idle
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":0,"
      "\"demands\":[0.1,0.2]},{\"name\":\"b\",\"population\":0,"
      "\"demands\":[0.2,0.1]}]}",
      // demand vector narrower than the station list
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1]}]}",
      // negative demand in the vector shorthand
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[-0.1,0.2]}]}",
      // two classes named alike: one would vanish from "classes"
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]},{\"name\":\"a\",\"population\":3,"
      "\"demands\":[0.2,0.1]}]}",
      // fractional class population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":2.5,"
      "\"demands\":[0.1,0.2]}]}",
      // spline demand object with one row for two stations
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"solver\":\"exact-multiclass\","
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":{\"type\":\"spline\",\"axis\":\"concurrency\","
      "\"x\":[1,10],\"y\":[[0.1,0.1]]}}]}",
  };
  for (const char* line : bad) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
}

TEST(RequestParsing, DuplicateClassNamesAreRejectedAtSolveTime) {
  // parse_request refuses repeated class names (see
  // DuplicateNamesAreRejectedAtParseTime); a spec built in code reaches
  // the solver, whose mix validation rejects it with the stable prefix.
  auto parsed = service::parse_request(
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]},{\"name\":\"b\",\"population\":3,"
      "\"demands\":[0.2,0.1]}]}");
  parsed.spec.options.classes[1].name = "a";
  service::Engine engine;
  try {
    (void)engine.evaluate(parsed.spec);
    FAIL() << "expected mtperf::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(Error::prefix(), 0), 0u) << what;
    EXPECT_NE(what.find("duplicate customer class name"), std::string::npos)
        << what;
  }
}

/// parse_request's error message for `line` ("" when it parses).
std::string parse_error(const std::string& line) {
  try {
    (void)service::parse_request(line);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(RequestParsing, DuplicateNamesAreRejectedAtParseTime) {
  const std::string two_stations =
      "\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],";
  const struct {
    std::string line;
    const char* message;
  } cases[] = {
      {"{\"stations\":[{\"name\":\"db\"},{\"name\":\"web\"},"
       "{\"name\":\"db\"}],"
       "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2,0.3]},"
       "\"max_population\":10}",
       "mtperf: duplicate station name 'db'"},
      // Round-robin replicas of "db" compile to stations db#0 and db#1,
      // so a service literally named "db#1" collides with one of them.
      {"{\"cmd\":\"workmodel\",\"entry\":\"db\",\"max_population\":10,"
       "\"services\":{\"db\":{\"demand\":0.01,\"replicas\":2,"
       "\"balancer\":\"round-robin\",\"calls\":[{\"to\":\"db#1\"}]},"
       "\"db#1\":{\"demand\":0.02}}}",
       "mtperf: duplicate station name 'db#1'"},
      {"{" + two_stations +
           "\"classes\":[{\"name\":\"a\",\"population\":5,"
           "\"demands\":[0.1,0.2]},{\"name\":\"a\",\"population\":3,"
           "\"demands\":[0.2,0.1]}]}",
       "mtperf: duplicate customer class name 'a'"},
      {"{\"cmd\":\"workmodel\",\"entry\":\"web\",\"services\":{"
       "\"web\":{\"demand\":0.01}},\"classes\":[{\"name\":\"a\","
       "\"population\":4},{\"name\":\"a\",\"population\":2}]}",
       "mtperf: duplicate customer class name 'a'"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_error(c.line), c.message) << c.line;
  }
}

TEST(RequestParsing, FractionalCountsAreRejected) {
  const std::string constant =
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]}";
  const struct {
    std::string line;
    const char* message;
  } cases[] = {
      {"{\"stations\":[{\"name\":\"a\",\"servers\":2.7}]," + constant +
           ",\"max_population\":10}",
       "mtperf: station 'a' servers must be a whole number, got 2.7"},
      {"{\"stations\":[{\"name\":\"a\"}]," + constant +
           ",\"max_population\":4.9}",
       "mtperf: max_population must be a whole number, got 4.9"},
      {"{\"stations\":[{\"name\":\"a\"}],\"classes\":[{\"name\":\"c\","
       "\"population\":1.5,\"demands\":[0.1]}]}",
       "mtperf: class 'c' population must be a whole number, got 1.5"},
      {"{\"cmd\":\"workmodel\",\"entry\":\"web\",\"max_population\":10,"
       "\"services\":{\"web\":{\"demand\":0.01,\"servers\":1.5}}}",
       "mtperf: service 'web': servers must be a whole number, got 1.5"},
      {"{\"cmd\":\"workmodel\",\"entry\":\"web\",\"max_population\":10.5,"
       "\"services\":{\"web\":{\"demand\":0.01}}}",
       "mtperf: max_population must be a whole number, got 10.5"},
      {"{\"cmd\":\"workmodel\",\"entry\":\"web\",\"services\":{"
       "\"web\":{\"demand\":0.01}},\"classes\":[{\"name\":\"c\","
       "\"population\":0.5}]}",
       "mtperf: class 'c' population must be a whole number, got 0.5"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_error(c.line), c.message) << c.line;
  }
  // Whole numbers in any JSON spelling still parse.
  const auto parsed = service::parse_request(
      "{\"stations\":[{\"name\":\"a\",\"servers\":2.0}]," + constant +
      ",\"max_population\":1e2}");
  EXPECT_EQ(parsed.spec.network.stations()[0].servers, 2u);
  EXPECT_EQ(parsed.spec.options.max_population, 100u);
}

TEST(RequestParsing, ZeroPopulationClassAmongNonZeroIsServed) {
  const auto parsed = service::parse_request(
      "{\"id\":3,\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"idle\",\"population\":0,"
      "\"demands\":[0.1,0.2]},{\"name\":\"busy\",\"population\":10,"
      "\"think\":1.0,\"demands\":[0.02,0.01]}]}");
  service::Engine engine;
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  const Json& classes = response.at("classes");
  EXPECT_EQ(classes.at("idle").at("population").as_number(), 0.0);
  EXPECT_EQ(classes.at("idle").at("throughput").as_number(), 0.0);
  EXPECT_GT(classes.at("busy").at("throughput").as_number(), 0.0);
}

TEST(ServePipeline, MomServesMixesBeyondTheExactGuard) {
  // 3 classes x 700 customers over one queueing and one delay station:
  // the exact recursion's state space (701^3 vectors x 2 stations) trips
  // its 2^28 guard, while MoM's moment space is a few million doubles.
  const std::string mix_body =
      "\"stations\":[{\"name\":\"cpu\"},{\"name\":\"net\","
      "\"kind\":\"delay\"}],"
      "\"classes\":["
      "{\"name\":\"browse\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.004,0.020]},"
      "{\"name\":\"search\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.006,0.015]},"
      "{\"name\":\"buy\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.002,0.030]}]}";
  service::Engine engine;

  const auto exact = service::parse_request(
      "{\"solver\":\"exact-multiclass\"," + mix_body);
  EXPECT_THROW((void)engine.evaluate(exact.spec), Error);

  // "solver" omitted: multiclass requests default to mom-multiclass.
  const auto parsed = service::parse_request("{\"id\":9," + mix_body);
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  EXPECT_EQ(response.at("id").as_number(), 9.0);
  EXPECT_GT(response.at("throughput").as_number(), 0.0);
  const Json& classes = response.at("classes");
  double total = 0.0;
  for (const char* name : {"browse", "search", "buy"}) {
    const Json& jc = classes.at(name);
    EXPECT_EQ(jc.at("population").as_number(), 700.0);
    EXPECT_GT(jc.at("throughput").as_number(), 0.0);
    EXPECT_GT(jc.at("response_time").as_number(), 0.0);
    total += jc.at("throughput").as_number();
  }
  EXPECT_NEAR(total, response.at("throughput").as_number(),
              1e-9 * std::max(1.0, total));
}

TEST(ServePipeline, WorkmodelClassMixEndToEnd) {
  // One compiled service graph, two traffic classes: the demand_scale=2
  // class exercises the same mesh with doubled demands, so it must see a
  // strictly larger response time.
  const auto parsed = service::parse_request(
      "{\"cmd\":\"workmodel\",\"entry\":\"web\",\"think\":1.0,"
      "\"services\":{\"web\":{\"demand\":0.005,"
      "\"calls\":[{\"to\":\"db\"}]},\"db\":{\"demand\":0.012}},"
      "\"classes\":[{\"name\":\"light\",\"population\":40},"
      "{\"name\":\"heavy\",\"population\":40,\"demand_scale\":2.0}]}");
  service::Engine engine;
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  const Json& classes = response.at("classes");
  const double light_r = classes.at("light").at("response_time").as_number();
  const double heavy_r = classes.at("heavy").at("response_time").as_number();
  EXPECT_GT(light_r, 0.0);
  EXPECT_GT(heavy_r, light_r);
}

TEST(Json, DumpToMatchesDump) {
  const Json parsed = Json::parse(
      "{\"a\":[1,2.5,-3e-2],\"b\":{\"c\":\"x\\ny\",\"d\":null},"
      "\"e\":true,\"f\":false}");
  std::string appended = "prefix:";
  parsed.dump_to(appended);
  EXPECT_EQ(appended, "prefix:" + parsed.dump());
}

// --- response writer parity ------------------------------------------------

// The response lines as a Json DOM prints them: the object model the
// direct writers in service/request.cpp must reproduce byte for byte.
std::string dom_evaluation(const service::Evaluation& evaluation, bool series,
                           const Json& id) {
  const core::MvaResult& r = *evaluation.result;
  const std::size_t top = r.levels() - 1;
  Json::Object line;
  line["label"] = evaluation.label;
  if (!id.is_null()) line["id"] = id;
  line["cache_hit"] = evaluation.cache_hit;
  line["prefix_hit"] = evaluation.prefix_hit;
  if (evaluation.coalesced) line["coalesced"] = true;
  line["solve_ms"] = evaluation.solve_ms;
  line["max_population"] = static_cast<unsigned long long>(r.population[top]);
  line["throughput"] = r.throughput[top];
  line["response_time"] = r.response_time[top];
  line["cycle_time"] = r.cycle_time[top];
  std::size_t busiest = 0;
  Json::Object utilization;
  for (std::size_t k = 0; k < r.stations(); ++k) {
    utilization[r.station_names[k]] = r.utilization(top, k);
    if (r.utilization(top, k) > r.utilization(top, busiest)) busiest = k;
  }
  line["bottleneck"] = r.station_names[busiest];
  line["utilization"] = std::move(utilization);
  if (r.classes() > 0) {
    Json::Object classes;
    for (std::size_t c = 0; c < r.classes(); ++c) {
      Json::Object jc;
      jc["population"] =
          static_cast<unsigned long long>(r.class_population[c]);
      jc["throughput"] = r.class_x(top, c);
      jc["response_time"] = r.class_r(top, c);
      classes[r.class_names[c]] = Json(std::move(jc));
    }
    line["classes"] = std::move(classes);
  }
  if (series) {
    Json::Array population, throughput, cycle;
    for (std::size_t i = 0; i < r.levels(); ++i) {
      population.emplace_back(static_cast<unsigned long long>(r.population[i]));
      throughput.emplace_back(r.throughput[i]);
      cycle.emplace_back(r.cycle_time[i]);
    }
    line["population"] = std::move(population);
    line["throughput_series"] = std::move(throughput);
    line["cycle_time_series"] = std::move(cycle);
  }
  return Json(std::move(line)).dump() + "\n";
}

std::string dom_error(const std::string& message, const Json& id,
                      std::size_t line_number) {
  Json::Object line;
  if (line_number != 0) {
    line["line"] = static_cast<unsigned long long>(line_number);
  }
  if (!id.is_null()) line["id"] = id;
  line["error"] = message;
  return Json(std::move(line)).dump() + "\n";
}

/// A result built by hand, for values no solver produces: non-finite
/// numbers, populations past 100000, names that need escaping.
std::shared_ptr<const core::MvaResult> hand_result(
    std::vector<std::string> stations, std::vector<unsigned> populations,
    std::vector<std::string> classes = {}) {
  auto r = std::make_shared<core::MvaResult>();
  const std::size_t levels = populations.size();
  const std::size_t stride = stations.size();
  r->reset(std::move(stations), levels);
  r->population = std::move(populations);
  const double specials[] = {0.25, std::nan(""), HUGE_VAL, -HUGE_VAL, -0.0,
                             1e-300, 6.02e23, 1.0 / 3.0};
  std::size_t next = 0;
  const auto pick = [&] { return specials[next++ % std::size(specials)]; };
  for (std::size_t i = 0; i < levels; ++i) {
    r->throughput[i] = pick();
    r->response_time[i] = pick();
    r->cycle_time[i] = pick();
    for (std::size_t k = 0; k < stride; ++k) {
      r->station_utilization[i * stride + k] = 0.1 * static_cast<double>(k);
    }
  }
  if (!classes.empty()) {
    std::vector<unsigned> class_populations;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      class_populations.push_back(99990u + 5u * static_cast<unsigned>(c));
    }
    r->reset_classes(std::move(classes), std::move(class_populations));
    for (double& x : r->class_throughput) x = pick();
    for (double& x : r->class_response_time) x = pick();
  }
  return r;
}

/// `shallow` answered as a cache hit is: its series sliced from a render
/// of `deep`, a result whose leading rows are `shallow.result`'s.
service::Evaluation through_render(service::Evaluation shallow,
                                   std::shared_ptr<const core::MvaResult> deep) {
  shallow.series = std::make_shared<const service::SeriesRender>(std::move(deep));
  return shallow;
}

TEST(ResponseWriter, EvaluationBytesMatchTheJsonDom) {
  std::vector<service::Evaluation> evaluations;
  service::Engine engine;
  // Solver output: single class (a cold solve, then a prefix hit of it,
  // whose series the engine serves rendered), and a three-class mix,
  // whose response carries "classes".  Each is also written as a
  // coalesced answer below.
  evaluations.push_back(engine.evaluate(make_spec(1.0, 60)));
  evaluations.push_back(engine.evaluate(make_spec(1.0, 45)));
  const auto mix = service::parse_request(
      "{\"label\":\"mix\",\"stations\":[{\"name\":\"cpu\"},"
      "{\"name\":\"net\",\"kind\":\"delay\"}],"
      "\"solver\":\"exact-multiclass\",\"classes\":["
      "{\"name\":\"search\",\"population\":4,\"think\":1.0,"
      "\"demands\":[0.006,0.015]},"
      "{\"name\":\"browse\",\"population\":6,\"think\":1.0,"
      "\"demands\":[0.004,0.020]},"
      "{\"name\":\"buy\",\"population\":0,\"demands\":[0.002,0.030]}]}");
  evaluations.push_back(engine.evaluate(mix.spec));
  // Hand-built: non-finite values, counts on both sides of 100000 (where
  // to_chars alone would switch to "1e+05"), escapes and control
  // characters in names, a repeated station name (the DOM keeps the last).
  const std::vector<std::string> odd_stations = {
      "b\"q", "a\\b", "ctl\x02", "db", "tab\tnl\n", "db", "Z", "\x7f"};
  const std::vector<unsigned> odd_populations = {
      1, 9999, 10000, 99999, 100000, 120000, 1000000, 4294967295u};
  const std::vector<std::string> odd_classes = {"z", "\x1b[0m", "A", "m\"x"};
  service::Evaluation odd;
  odd.label = "quote\" back\\slash \t\n\x01\x1f \xc3\xa9 </x>";
  odd.solve_ms = 12.5;
  odd.result = hand_result(odd_stations, odd_populations, odd_classes);
  evaluations.push_back(odd);
  service::Evaluation lone = odd;
  lone.result = hand_result({"only"}, {100000});
  evaluations.push_back(lone);

  // The same answers with their series sliced from rendered bytes, as a
  // cache hit writes them: at depth 1, around a checkpoint, and at full
  // depth, each from a fresh render of the deepest result.
  const std::size_t plain = evaluations.size();
  const auto deep = engine.evaluate(make_spec(1.0, 100)).result;
  for (const unsigned depth :
       {1u, 31u, 32u, 33u, 65u, 99u, 100u}) {
    service::Evaluation hit = evaluations[0];
    hit.result = depth == deep->levels()
                     ? deep
                     : std::make_shared<const core::MvaResult>(
                           deep->prefix(depth));
    evaluations.push_back(through_render(hit, deep));
  }
  const auto mix_deep = evaluations[2].result;
  ASSERT_GE(mix_deep->levels(), 3u);
  for (const std::size_t depth :
       {std::size_t{1}, mix_deep->levels() / 2, mix_deep->levels()}) {
    service::Evaluation hit = evaluations[2];
    hit.result = std::make_shared<const core::MvaResult>(
        mix_deep->prefix(static_cast<unsigned>(depth)));
    evaluations.push_back(through_render(hit, mix_deep));
  }
  // hand_result gives every level the same values whatever the depth, so
  // a shorter population list builds a verbatim prefix of the odd result
  // (one whose population is not 1..N, so it is rendered, not shared).
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4},
                                  odd_populations.size()}) {
    service::Evaluation hit = odd;
    hit.result = hand_result(
        odd_stations,
        std::vector<unsigned>(odd_populations.begin(),
                              odd_populations.begin() +
                                  static_cast<std::ptrdiff_t>(depth)),
        odd_classes);
    evaluations.push_back(through_render(hit, odd.result));
  }
  evaluations.push_back(through_render(lone, lone.result));

  const Json ids[] = {
      Json(),
      Json(17),
      Json(-2.5),
      Json(9007199254740993ull),
      Json("req-\"7\"\n"),
      Json::parse("{\"b\":[1,true,null],\"a\":{\"x\":\"y\"}}"),
  };
  std::string out;
  for (std::size_t e = 0; e < evaluations.size(); ++e) {
    service::Evaluation evaluation = evaluations[e];
    if (e >= plain) ASSERT_NE(evaluation.series, nullptr) << e;
    for (const bool coalesced : {false, true}) {
      evaluation.coalesced = coalesced;
      for (const bool series : {false, true}) {
        for (const Json& id : ids) {
          out.clear();
          service::append_evaluation(out, evaluation, series, id);
          EXPECT_EQ(out, dom_evaluation(evaluation, series, id))
              << "evaluation " << e << " label " << evaluation.label
              << " levels " << evaluation.result->levels() << " coalesced "
              << coalesced << " series " << series << " id " << id.dump();
        }
      }
    }
  }
  // Appending continues an existing buffer rather than replacing it.
  out = "prefix\n";
  service::append_evaluation(out, evaluations[0], true, Json(1));
  EXPECT_EQ(out, "prefix\n" + dom_evaluation(evaluations[0], true, Json(1)));
}

TEST(ResponseWriter, ErrorBytesMatchTheJsonDom) {
  const std::string messages[] = {
      "overloaded",
      "mtperf: requirement failed: (x) at a.cpp:1 \xe2\x80\x94 \"q\"\n\t\x05",
      "",
  };
  const Json ids[] = {Json(), Json(3), Json("id"), Json::parse("[1,{}]")};
  std::string out;
  for (const std::string& message : messages) {
    for (const Json& id : ids) {
      for (const std::size_t line : {std::size_t{0}, std::size_t{1},
                                     std::size_t{100000}}) {
        out.clear();
        service::append_error(out, message, id, line);
        EXPECT_EQ(out, dom_error(message, id, line))
            << message << " id " << id.dump() << " line " << line;
      }
    }
  }
}

TEST(ResponseWriter, ScalarFormattersKeepTheirBytes) {
  // The DOM and the writer share these, so the parity tests above cannot
  // see a change in them; pin the bytes directly.
  std::string text;
  service::append_json_string(text, "a\"\\/\b\f\n\r\t\x01\x1f\x7f\xc3\xa9");
  EXPECT_EQ(text,
            "\"a\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9\"");
  std::string numbers;
  for (const double d : {0.1, -2.5, 1e21, 1e-7, 100000.0, HUGE_VAL,
                         std::nan("")}) {
    service::append_json_number(numbers, d);
    numbers.push_back(' ');
  }
  EXPECT_EQ(numbers, "0.1 -2.5 1e+21 1e-07 100000 null null ");

  for (const std::uint64_t n :
       {0ull, 1ull, 9ull, 10ull, 99ull, 1000ull, 9999ull, 10000ull, 12345ull,
        99999ull, 100000ull, 100001ull, 120000ull, 1000000ull, 4294967295ull,
        9007199254740993ull}) {
    std::string count, number;
    service::append_json_count(count, n);
    service::append_json_number(number, static_cast<double>(n));
    EXPECT_EQ(count, number) << n;
  }
  std::string big;
  service::append_json_count(big, 100000);
  EXPECT_EQ(big, "100000");
}

TEST(ResponseWriter, WholeNumbersPrintAsIntegers) {
  // Whole numbers up to 2^53 print as their digits, so integer ids echo
  // exactly; larger magnitudes, fractions and both zeros keep the
  // shortest round-trip form.
  const std::pair<double, const char*> cases[] = {
      {100000.0, "100000"},
      {200000.0, "200000"},
      {1000000.0, "1000000"},
      {-120000.0, "-120000"},
      {1e15, "1000000000000000"},
      {9007199254740992.0, "9007199254740992"},
      {-9007199254740992.0, "-9007199254740992"},
      {123456.5, "123456.5"},
      {1e21, "1e+21"},
      {0.0, "0"},
      {-0.0, "-0"},
  };
  for (const auto& [value, text] : cases) {
    std::string out;
    service::append_json_number(out, value);
    EXPECT_EQ(out, text) << value;
  }
  EXPECT_EQ(Json::parse("{\"id\":100000}").dump(), "{\"id\":100000}");
}

// --- rendered series of cache entries ------------------------------------

/// The series answer of `evaluation`, and the same answer formatted value
/// by value (no rendered bytes): the two must be equal.
std::pair<std::string, std::string> rendered_and_direct(
    const service::Evaluation& evaluation) {
  std::string rendered, direct;
  service::append_evaluation(rendered, evaluation, true, Json(1));
  service::Evaluation unrendered = evaluation;
  unrendered.series = nullptr;
  service::append_evaluation(direct, unrendered, true, Json(1));
  return {rendered, direct};
}

TEST(SeriesRender, HitsRenderOnceAndDeepeningRendersAgain) {
  service::Engine engine;
  // The miss that creates the entry does not render; its first series
  // hit does, and later hits (exact or prefix) slice the same bytes.
  const service::Evaluation miss = engine.evaluate(make_spec(1.0, 300));
  EXPECT_EQ(miss.series, nullptr);
  EXPECT_EQ(engine.metrics().series_renders, 0u);
  for (const unsigned depth : {300u, 300u, 17u, 299u}) {
    const service::Evaluation hit = engine.evaluate(make_spec(1.0, depth));
    ASSERT_NE(hit.series, nullptr);
    const auto [rendered, direct] = rendered_and_direct(hit);
    EXPECT_EQ(rendered, direct) << depth;
  }
  EXPECT_EQ(engine.metrics().series_renders, 1u);
  EXPECT_GT(engine.metrics().series_bytes, 0u);

  // Deepening to 1500 replaces the entry's render with an unrendered one;
  // a hit at 1200 renders the 1500-level result and slices 1200 levels.
  const service::Evaluation deeper = engine.evaluate(make_spec(1.0, 1500));
  EXPECT_FALSE(deeper.cache_hit);
  const service::Evaluation hit = engine.evaluate(make_spec(1.0, 1200));
  ASSERT_TRUE(hit.prefix_hit);
  ASSERT_NE(hit.series, nullptr);
  EXPECT_EQ(hit.series->levels(), 1500u);
  const auto [rendered, direct] = rendered_and_direct(hit);
  EXPECT_EQ(rendered, direct);
  EXPECT_EQ(rendered, dom_evaluation(hit, true, Json(1)));
  EXPECT_EQ(engine.metrics().series_renders, 2u);

  // A hit without the series renders nothing.
  std::string out;
  service::append_evaluation(out, engine.evaluate(make_spec(2.0, 10)), false,
                             Json());
  service::append_evaluation(out, engine.evaluate(make_spec(2.0, 10)), false,
                             Json());
  EXPECT_EQ(engine.metrics().series_renders, 2u);

  // Bytes are resident while an entry or an answer holds the render.
  engine.clear();
  EXPECT_GT(engine.metrics().series_bytes, 0u);  // `hit` still holds one
}

TEST(SeriesRender, BytesAreFreedWithTheirEntry) {
  service::EngineOptions options;
  options.cache_capacity = 1;
  options.shards = 1;
  service::Engine engine(options);
  engine.evaluate(make_spec(1.0, 200));
  std::string out;
  service::append_evaluation(out, engine.evaluate(make_spec(1.0, 200)), true,
                             Json());
  EXPECT_EQ(engine.metrics().series_renders, 1u);
  EXPECT_GT(engine.metrics().series_bytes, 0u);
  engine.evaluate(make_spec(3.0, 200));  // evicts the rendered entry
  EXPECT_EQ(engine.metrics().evictions, 1u);
  EXPECT_EQ(engine.metrics().series_bytes, 0u);
}

TEST(SeriesRender, ConcurrentFirstHitsRenderOnce) {
  service::Engine engine;
  engine.evaluate(make_spec(1.0, 900));
  const std::string expected = [&] {
    service::Evaluation hit = engine.evaluate(make_spec(1.0, 700));
    hit.series = nullptr;
    std::string out;
    service::append_evaluation(out, hit, true, Json(1));
    return out;
  }();
  // Every thread's first use of the entry's render races the others'; one
  // renders, the rest read what it published.
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::string> outs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const service::Evaluation hit = engine.evaluate(make_spec(1.0, 700));
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      service::append_evaluation(outs[t], hit, true, Json(1));
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(outs[t], expected) << t;
  EXPECT_EQ(engine.metrics().series_renders, 1u);
}

TEST(SeriesRender, BatchHitsAndDuplicatesUseTheRender) {
  service::Engine engine;
  // A batch with a miss and its duplicate: the miss formats directly, the
  // duplicate (served from the miss) slices the new entry's render.
  const auto first = engine.evaluate_batch(
      {make_spec(1.0, 400), make_spec(1.0, 250)});
  EXPECT_EQ(first[0].series, nullptr);
  ASSERT_NE(first[1].series, nullptr);
  // A later batch hits the entry.
  const auto second = engine.evaluate_batch({make_spec(1.0, 400)});
  ASSERT_NE(second[0].series, nullptr);
  EXPECT_EQ(second[0].series, first[1].series);
  for (const auto* evaluation : {&first[1], &second[0]}) {
    const auto [rendered, direct] = rendered_and_direct(*evaluation);
    EXPECT_EQ(rendered, direct);
  }
  EXPECT_EQ(engine.metrics().series_renders, 1u);
}

// --- request-line memo ------------------------------------------------------

/// The memo key of `line`: its bytes without the id member.
std::string cut_id(std::string_view line, const service::IdSpan& span) {
  if (!span.present) return std::string(line);
  return std::string(line.substr(0, span.cut_begin)) +
         std::string(line.substr(span.cut_end));
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(IdScanner, FindsTheTopLevelIdMember) {
  struct Case {
    std::string line;
    std::string key;  ///< the line without its id member
    std::string id;   ///< the id value's bytes; empty when absent
  };
  const Case cases[] = {
      // First, middle, last, absent.
      {R"({"id":7,"a":1})", R"({"a":1})", "7"},
      {R"({"a":1,"id":"x","b":2})", R"({"a":1,"b":2})", R"("x")"},
      {R"({"a":1,"b":2,"id":3})", R"({"a":1,"b":2})", "3"},
      {R"({"a":1,"b":"id"})", R"({"a":1,"b":"id"})", ""},
      // Ids that are strings with escapes, objects and arrays.
      {R"({"id":"a\"b}\\","a":1})", R"({"a":1})", R"("a\"b}\\")"},
      {R"({"a":"\"id\":1","id":{"x":"}","y":[1,{"z":"]"}]},"b":2})",
       R"({"a":"\"id\":1","b":2})", R"({"x":"}","y":[1,{"z":"]"}]})"},
      {R"({"a":1,"id":[1,"]",{"id":2}]})", R"({"a":1})", R"([1,"]",{"id":2}])"},
      // Nested "id" keys are not the request's id.
      {R"({"a":{"id":1},"b":[{"id":2}]})", R"({"a":{"id":1},"b":[{"id":2}]})",
       ""},
      {R"({"a":{"id":1},"b":[{"id":2}],"id":3})",
       R"({"a":{"id":1},"b":[{"id":2}]})", "3"},
      // Whitespace around every token.
      {"  { \"a\" : 1 , \"id\" : 5 , \"b\" : 2 }  ",
       "  { \"a\" : 1 , \"b\" : 2 }  ", "5"},
      {"{ \"id\" :\t-2.5e3 ,\n \"a\":1}", "{ \"a\":1}", "-2.5e3"},
      {"{\"id\":null }", "{}", "null"},
      {"{}", "{}", ""},
      // A malformed id is still located; Json::parse rejects it later.
      {R"({"id":tru,"a":1})", R"({"a":1})", "tru"},
      // Nesting up to the parser's limit.
      {"{\"id\":" + nested_arrays(Json::kMaxParseDepth - 1) + "}", "{}",
       nested_arrays(Json::kMaxParseDepth - 1)},
  };
  for (const Case& c : cases) {
    service::IdSpan span;
    ASSERT_TRUE(service::scan_request_id(c.line, span)) << c.line;
    EXPECT_EQ(span.present, !c.id.empty()) << c.line;
    EXPECT_EQ(cut_id(c.line, span), c.key) << c.line;
    if (span.present) {
      EXPECT_EQ(c.line.substr(span.value_begin,
                              span.value_end - span.value_begin),
                c.id)
          << c.line;
    }
  }

  const std::string refused[] = {
      R"({"\u0069d":1,"a":2})",  // decodes to "id"
      R"({"a\"b":1,"id":2})",    // any escaped top-level key
      R"({"id":1,"id":2})",      // a second id
      R"({"id":1,"a":{},"id":2})",
      "[1]", "\"id\"", "7", "", "   ",  // not an object
      R"({"id":1)", R"({"id":1} x)", R"({"id":1}})", R"({"id":1,})",
      R"({"id" 1})", R"({"id":})", R"({,"id":1})", R"({"id":"open)",
      R"({"a":1 "id":2})", R"({"a":[1,"id":2})",
      // Deeper than the parser takes.
      "{\"id\":" + nested_arrays(Json::kMaxParseDepth) + "}",
  };
  for (const std::string& line : refused) {
    service::IdSpan span;
    EXPECT_FALSE(service::scan_request_id(line, span)) << line;
  }
  // The depth limit is the parser's: one level less parses, as above.
  EXPECT_NO_THROW(
      Json::parse("{\"id\":" + nested_arrays(Json::kMaxParseDepth - 1) + "}"));
  EXPECT_THROW(
      Json::parse("{\"id\":" + nested_arrays(Json::kMaxParseDepth) + "}"),
      std::exception);
}

TEST(RequestMemo, FindsLinesThatDifferOnlyInTheirId) {
  service::RequestMemo memo(4);
  Json id;
  const std::string line = spec_request(1, 1.0, 50);
  EXPECT_EQ(memo.find(line, id), nullptr);
  memo.remember({service::Fingerprint{1, 2}, 50, false, "t"});
  EXPECT_EQ(memo.size(), 1u);

  const service::RequestMemo::Entry* seen =
      memo.find(spec_request(77, 1.0, 50), id);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->fp, (service::Fingerprint{1, 2}));
  EXPECT_EQ(seen->depth, 50u);
  EXPECT_EQ(seen->label, "t");
  EXPECT_EQ(id.dump(), "77");
  // The same request without an id, or with another id value, is the
  // same memo line; an id that does not parse on its own is not.
  std::string no_id = line;
  service::IdSpan span;
  ASSERT_TRUE(service::scan_request_id(no_id, span));
  no_id = cut_id(no_id, span);
  ASSERT_NE(memo.find(no_id, id), nullptr);
  EXPECT_TRUE(id.is_null());
  std::string odd_id = line;
  odd_id.replace(span.value_begin, span.value_end - span.value_begin,
                 "{\"k\":[\"}\"]}");
  ASSERT_NE(memo.find(odd_id, id), nullptr);
  EXPECT_EQ(id.dump(), "{\"k\":[\"}\"]}");
  odd_id = line;
  odd_id.replace(span.value_begin, span.value_end - span.value_begin, "1e");
  EXPECT_EQ(memo.find(odd_id, id), nullptr);
  // Any other byte makes another line.
  EXPECT_EQ(memo.find(spec_request(1, 1.0, 51), id), nullptr);
}

TEST(RequestMemo, IsBoundedLeastRecentlyUsedFirst) {
  service::RequestMemo memo(2);
  Json id;
  for (const unsigned depth : {10u, 20u, 30u}) {
    memo.find(spec_request(1, 1.0, depth), id);
    memo.remember({service::Fingerprint{depth, 0}, depth, false, ""});
  }
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(spec_request(1, 1.0, 10), id), nullptr);
  ASSERT_NE(memo.find(spec_request(1, 1.0, 20), id), nullptr);  // bumped
  memo.find(spec_request(1, 1.0, 40), id);
  memo.remember({service::Fingerprint{40, 0}, 40, false, ""});
  EXPECT_NE(memo.find(spec_request(1, 1.0, 20), id), nullptr);
  EXPECT_EQ(memo.find(spec_request(1, 1.0, 30), id), nullptr);

  // A line longer than the byte budget is never kept; nor is one the
  // scanner refused.
  std::string huge = spec_request(1, 1.0, 10);
  huge.insert(1, "\"pad\":\"" +
                     std::string(service::RequestMemo::kMaxBytes, 'x') +
                     "\",");
  memo.find(huge, id);
  memo.remember({});
  EXPECT_EQ(memo.find(huge, id), nullptr);
  memo.find("[1]", id);
  memo.remember({});
  EXPECT_EQ(memo.size(), 2u);
}

/// A random edit of a request line: replace, drop, duplicate, move or
/// escape its id; add whitespace; or flip, drop or insert one byte.
std::string mutate(std::string line, std::mt19937_64& rng) {
  static const std::string kIds[] = {
      "5", "-0", "1e2", "1.50", "9007199254740993", "\"s\"", "\"a\\\"}b\"",
      "\"\\u00e9\"", "{\"k\":[1,{\"id\":2}]}", "[]", "null", "true", "tru",
      "1 2", "\"open", "{\"a\":1,\"a\":2}", "\"\x01\"",
      nested_arrays(Json::kMaxParseDepth - 1),
      nested_arrays(Json::kMaxParseDepth)};
  static const std::string kBytes = "{}[]\",:\\ \t0a-.e";
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  service::IdSpan span;
  const bool scanned = service::scan_request_id(line, span);
  switch (pick(9)) {
    case 0:  // another id value
      if (scanned && span.present) {
        line.replace(span.value_begin, span.value_end - span.value_begin,
                     kIds[pick(std::size(kIds))]);
      } else {
        line.insert(1, "\"id\":" + kIds[pick(std::size(kIds))] + ",");
      }
      break;
    case 1:  // no id
      if (scanned) line = cut_id(line, span);
      break;
    case 2:  // a second id
      line.insert(line.rfind('}'), ",\"id\":9");
      break;
    case 3:  // the id moved first
      if (scanned && span.present) {
        const std::string id = line.substr(
            span.value_begin, span.value_end - span.value_begin);
        line = cut_id(line, span);
        line.insert(line.find('{') + 1, "\"id\":" + id + ",");
      }
      break;
    case 4:
      line.insert(pick(line.size() + 1), std::string(1 + pick(3), ' '));
      break;
    case 8:  // a key that decodes to "id"
      if (scanned && span.present) {
        line = cut_id(line, span);
        line.insert(line.find('{') + 1, "\"\\u0069d\":" +
                                            kIds[pick(std::size(kIds))] + ",");
      }
      break;
    case 5:
      if (!line.empty()) line[pick(line.size())] = kBytes[pick(kBytes.size())];
      break;
    case 6:
      if (!line.empty()) line.erase(pick(line.size()), 1);
      break;
    default:
      line.insert(pick(line.size() + 1), 1, kBytes[pick(kBytes.size())]);
      break;
  }
  return line;
}

TEST(RequestMemo, MemoAnswersEqualTheFullParseOnMutatedLines) {
  // Seed lines: flat single-class and series requests, a multiclass mix,
  // and every committed example request.
  std::vector<std::string> seeds;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const double scale = 1.0 + 0.1 * static_cast<double>(i);
    seeds.push_back(spec_request(i, scale, 40 + 10 * static_cast<unsigned>(i)));
    seeds.push_back(series_request(i + 10, scale, 60));
  }
  seeds.push_back(
      "{\"id\":\"mc\",\"label\":\"mix\",\"stations\":[{\"name\":\"cpu\"},"
      "{\"name\":\"net\",\"kind\":\"delay\"}],\"solver\":\"exact-multiclass\","
      "\"series\":true,\"classes\":[{\"name\":\"search\",\"population\":4,"
      "\"think\":1.0,\"demands\":[0.006,0.015]},{\"name\":\"browse\","
      "\"population\":6,\"think\":1.0,\"demands\":[0.004,0.020]}]}");
  std::size_t examples = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(MTPERF_EXAMPLES_DIR)) {
    const std::string name = file.path().filename().string();
    if (file.path().extension() != ".jsonl" ||
        name.find(".expected.") != std::string::npos) {
      continue;
    }
    std::ifstream in(file.path());
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) {
        seeds.push_back(line);
        ++examples;
      }
    }
  }
  ASSERT_GT(examples, 0u);

  service::Engine engine;
  service::RequestMemo memo(1024);
  // The server's two paths for one line.  Full: parse, fingerprint, probe.
  // Memo: find, probe.  A line the memo answers must get the full path's
  // bytes; the full path memoizes every scenario line it parses.
  std::size_t memo_answers = 0;
  std::size_t full_failures = 0;
  const auto serve = [&](const std::string& line) {
    Json id;
    const service::RequestMemo::Entry* seen = memo.find(line, id);
    std::optional<std::string> memo_bytes;
    if (seen != nullptr) {
      if (auto hit = engine.probe(seen->fp, seen->depth, seen->label)) {
        memo_bytes.emplace();
        service::append_evaluation(*memo_bytes, *hit, seen->series, id);
      }
    }
    std::string full_bytes;
    try {
      service::ParsedRequest request = service::parse_request(line);
      if (request.kind != service::RequestKind::kScenario) return;
      const service::Fingerprint fp = service::fingerprint(request.spec);
      auto hit = engine.probe(fp, request.spec.options.max_population,
                              request.spec.label);
      if (!hit) hit = engine.evaluate(request.spec);
      service::append_evaluation(full_bytes, *hit, request.series, request.id);
      memo.remember({fp, request.spec.options.max_population, request.series,
                     request.spec.label});
    } catch (const std::exception& e) {
      ++full_failures;
      EXPECT_FALSE(memo_bytes.has_value())
          << "memo answered a line the parse rejects (" << e.what()
          << "): " << line;
      return;
    }
    if (memo_bytes) {
      ++memo_answers;
      EXPECT_EQ(*memo_bytes, full_bytes) << line;
    }
  };
  for (const std::string& seed : seeds) serve(seed);
  std::mt19937_64 rng(20261018);
  for (int round = 0; round < 1000; ++round) {
    for (const std::string& seed : seeds) {
      std::string line = mutate(seed, rng);
      if (rng() % 2 == 0) line = mutate(line, rng);
      serve(line);
    }
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GT(memo_answers, 1500u);
  EXPECT_GT(full_failures, 1500u);
}

// --- single-flight dedup ---------------------------------------------------

TEST(SingleFlight, ConcurrentIdenticalMissesCollapse) {
  service::Engine engine;
  // One expensive spec (deep population) requested by many threads at
  // once: the leader solves, everyone else must be served from the same
  // in-flight solve (coalesced) or from the cache right after it lands.
  const core::ScenarioSpec spec = make_spec(1.0, 20000, 64);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<service::Evaluation> evaluations(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      evaluations[t] = engine.evaluate(spec);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();

  const auto metrics = engine.metrics();
  // The collapse is what matters: 8 identical requests, at most 2 solver
  // runs even under adversarial scheduling (leader + one straggler that
  // started before the leader registered).
  EXPECT_LE(metrics.misses, 2u);
  EXPECT_EQ(metrics.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(metrics.hits + metrics.misses,
            static_cast<std::uint64_t>(kThreads));
  // Every thread got the same (shared) result, bit-identical.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(evaluations[t].result, nullptr);
    EXPECT_EQ(evaluations[t].result->throughput,
              evaluations[0].result->throughput);
  }
}

TEST(SingleFlight, ConcurrentBatchesDoNotDeadlock) {
  // Two threads evaluate overlapping batches (shared fingerprints) at
  // the same time; publish-own-before-await-foreign plus caller
  // participation in parallel_for must keep this deadlock-free even on a
  // single-thread pool.
  service::EngineOptions options;
  options.threads = 1;
  service::Engine engine(options);
  std::vector<core::ScenarioSpec> batch_a, batch_b;
  for (int i = 0; i < 12; ++i) {
    batch_a.push_back(make_spec(1.0 + 0.01 * i, 400));
    batch_b.push_back(make_spec(1.0 + 0.01 * (i + 6), 400));  // overlap 6..11
  }
  std::vector<service::Evaluation> out_a, out_b;
  std::thread ta([&] { out_a = engine.evaluate_batch(batch_a); });
  std::thread tb([&] { out_b = engine.evaluate_batch(batch_b); });
  ta.join();
  tb.join();
  ASSERT_EQ(out_a.size(), batch_a.size());
  ASSERT_EQ(out_b.size(), batch_b.size());
  for (int i = 0; i < 6; ++i) {
    // The overlapping specs must agree bit-for-bit across the two batches.
    EXPECT_EQ(out_a[6 + i].result->throughput, out_b[i].result->throughput);
  }
}

// --- batched vs scalar parity ----------------------------------------------

TEST(BatchParity, BatchedServingPathIsBitIdenticalToScalar) {
  service::Engine engine;
  std::vector<core::ScenarioSpec> specs;
  // Mixed corpus: one structure family at several demand variants and
  // ragged populations (exercises lane retirement), plus a structurally
  // different spec that lands in its own group.
  for (int i = 0; i < 21; ++i) {
    specs.push_back(make_spec(1.0 + 0.02 * i, 300 + 40 * (i % 5)));
  }
  specs.push_back(make_spec(1.0, 200, 16));
  const auto batched = engine.evaluate_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::MvaResult direct =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    ASSERT_EQ(batched[i].result->levels(), direct.levels());
    // Tolerance zero: the serving path must be the solver, exactly.
    EXPECT_EQ(batched[i].result->throughput, direct.throughput) << i;
    EXPECT_EQ(batched[i].result->response_time, direct.response_time) << i;
  }
  const auto metrics = engine.metrics();
  EXPECT_GT(metrics.batch_blocks, 0u);
  EXPECT_EQ(metrics.batch_lanes, 22u);
}

// --- socket server end to end ----------------------------------------------

/// Send `lines` to a connected socket and read until `expected` responses
/// arrive; returns them keyed by "id".  Responses without an id (errors
/// for unparseable lines) get unique descending sentinel keys so each one
/// still counts toward `expected`.
std::map<std::uint64_t, Json> exchange(Socket& sock,
                                       const std::vector<std::string>& lines,
                                       std::size_t expected) {
  for (const auto& line : lines) {
    EXPECT_TRUE(sock.send_all(line));
  }
  std::map<std::uint64_t, Json> responses;
  std::uint64_t sentinel = static_cast<std::uint64_t>(-1);
  LineReader reader(sock);
  std::string line;
  while (responses.size() < expected && reader.next_line(line)) {
    Json response = Json::parse(line);
    const std::uint64_t id =
        response.contains("id")
            ? static_cast<std::uint64_t>(response.at("id").as_number())
            : sentinel--;
    responses.emplace(id, std::move(response));
  }
  return responses;
}

TEST(SocketServer, ServesParityErrorsAndMetrics) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 8;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.valid());
  std::vector<std::string> lines;
  constexpr std::size_t kScenarios = 10;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    lines.push_back(spec_request(i, 1.0 + 0.05 * static_cast<double>(i), 250));
  }
  lines.push_back("{\"id\":97,\"cmd\":\"bogus\"}\n");
  lines.push_back("{\"id\":98,\"cmd\":\"metrics\"}\n");
  const auto responses = exchange(sock, lines, kScenarios + 2);
  ASSERT_EQ(responses.size(), kScenarios + 2);

  // Every scenario response matches a direct solve bit-for-bit (doubles
  // round-trip through the wire via shortest-round-trip formatting).
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const auto it = responses.find(i);
    ASSERT_NE(it, responses.end()) << "missing id " << i;
    const core::ScenarioSpec spec =
        make_spec(1.0 + 0.05 * static_cast<double>(i), 250);
    const core::MvaResult direct =
        core::solve(spec.network, &spec.demands, spec.options);
    EXPECT_EQ(it->second.at("throughput").as_number(),
              direct.throughput.back());
    EXPECT_EQ(it->second.at("response_time").as_number(),
              direct.response_time.back());
  }
  // The unknown command came back as an error with its id echoed.
  ASSERT_TRUE(responses.count(97));
  EXPECT_TRUE(responses.at(97).contains("error"));
  // The metrics line reports both engine and transport counters.
  ASSERT_TRUE(responses.count(98));
  const Json& metrics = responses.at(98);
  EXPECT_TRUE(metrics.contains("metrics"));
  EXPECT_TRUE(metrics.contains("server"));
  EXPECT_GE(metrics.at("server").at("accepted").as_number(), 1.0);

  server.stop();
}

TEST(SocketServer, HostileLinesGetErrorsAndServingContinues) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 4;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  std::string bomb = "{\"id\":1,\"x\":";
  for (int i = 0; i < 200; ++i) bomb += "[";
  std::vector<std::string> lines = {
      "{\"id\":1\n",                 // truncated
      bomb + "\n",                   // nesting bomb
      "{\"id\":3,\"x\":1e999999}\n", // overflow number
      "{\"id\":4,\"x\":NaN}\n",      // invalid literal
      std::string("{\"id\":5,\"label\":\"\xff\x80\"}\n"),  // invalid UTF-8
  };
  const auto errors = exchange(sock, lines, lines.size());
  ASSERT_EQ(errors.size(), lines.size());
  for (const auto& [id, response] : errors) {
    EXPECT_TRUE(response.contains("error"));
  }
  // The server is still healthy: a good request round-trips.
  const auto good = exchange(sock, {spec_request(42, 1.0, 100)}, 1);
  ASSERT_TRUE(good.count(42));
  EXPECT_TRUE(good.at(42).contains("throughput"));
  server.stop();
}

TEST(SocketServer, OverloadShedsFastAndKeepsServing) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 1;   // solve one at a time...
  options.batch_deadline = std::chrono::microseconds(100);
  options.queue_capacity = 1;  // ...with room for exactly one waiter
  options.engine.threads = 1;
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  // Pipeline a burst of slow, distinct solves without reading: with a
  // queue of one, most of the burst must be shed as "overloaded".
  constexpr std::uint64_t kBurst = 24;
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    lines.push_back(
        spec_request(i, 1.0 + 0.01 * static_cast<double>(i), 12000));
  }
  const auto responses = exchange(sock, lines, kBurst);
  ASSERT_EQ(responses.size(), kBurst);
  std::size_t served = 0, shed = 0;
  for (const auto& [id, response] : responses) {
    if (response.contains("error")) {
      EXPECT_EQ(response.at("error").as_string(), "overloaded");
      ++shed;
    } else {
      ++served;
    }
  }
  EXPECT_GE(shed, 1u) << "2x-capacity burst must shed";
  EXPECT_GE(served, 1u);
  EXPECT_EQ(server.metrics().rejected_overloaded, shed);

  // Shedding is not a failure mode: the connection still serves.
  const auto after = exchange(sock, {spec_request(99, 5.0, 50)}, 1);
  ASSERT_TRUE(after.count(99));
  EXPECT_TRUE(after.at(99).contains("throughput"));
  server.stop();
}

TEST(SocketServer, PerConnectionInflightCapIsEnforced) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 1;
  options.batch_deadline = std::chrono::microseconds(100);
  options.queue_capacity = 64;       // queue has room...
  options.max_inflight_per_conn = 2; // ...but each connection does not
  options.engine.threads = 1;
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  constexpr std::uint64_t kBurst = 12;
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    lines.push_back(
        spec_request(i, 2.0 + 0.01 * static_cast<double>(i), 12000));
  }
  const auto responses = exchange(sock, lines, kBurst);
  ASSERT_EQ(responses.size(), kBurst);
  std::size_t shed = 0;
  for (const auto& [id, response] : responses) {
    if (response.contains("error")) ++shed;
  }
  EXPECT_GE(shed, 1u);
  EXPECT_GE(server.metrics().rejected_inflight, 1u);
  server.stop();
}

TEST(SocketServer, ClientDisconnectMidResponseDropsConnectionNotServer) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 8;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  // A rude client floods series requests (responses of tens of kilobytes,
  // far past the socket buffer) and vanishes without reading a byte, so
  // batcher threads hit the dead socket mid-flush.  The failure must cost
  // that one connection — never a SIGPIPE to the process — and responses
  // for live connections in the same batches must keep flowing.
  {
    Socket rude = connect_tcp(server.port());
    ASSERT_TRUE(rude.valid());
    for (std::uint64_t i = 0; i < 48; ++i) {
      ASSERT_TRUE(rude.send_all(
          series_request(i, 1.0 + 0.01 * static_cast<double>(i), 2000)));
    }
    rude.close();  // gone before the first response can flush
  }

  // A polite client connected the whole time is served normally.
  Socket sock = connect_tcp(server.port());
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t id = 100 + static_cast<std::uint64_t>(round);
    const auto good = exchange(
        sock, {spec_request(id, 5.0 + 0.1 * round, 200)}, 1);
    ASSERT_TRUE(good.count(id)) << round;
    EXPECT_TRUE(good.at(id).contains("throughput")) << round;
  }
  server.stop();
}

TEST(SocketServer, StopAnswersAllAdmittedWork) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 4;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 6; ++i) {
    lines.push_back(spec_request(i, 3.0 + 0.01 * static_cast<double>(i), 800));
  }
  for (const auto& line : lines) ASSERT_TRUE(sock.send_all(line));
  // Stop with requests still in the pipeline: every admitted request
  // must still be answered before the connection closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper([&server] { server.stop(); });
  LineReader reader(sock);
  std::string line;
  std::size_t answered = 0;
  while (reader.next_line(line)) {
    if (line.find("\"throughput\"") != std::string::npos ||
        line.find("\"error\"") != std::string::npos) {
      ++answered;
    }
  }
  stopper.join();
  EXPECT_GE(answered, 1u);
}

/// Read exactly `n` raw response lines (without the '\n').
std::vector<std::string> read_lines(Socket& sock, std::size_t n) {
  std::vector<std::string> lines;
  LineReader reader(sock);
  std::string line;
  while (lines.size() < n && reader.next_line(line)) lines.push_back(line);
  return lines;
}

TEST(SocketServer, IntegerIdsEchoAsTheSameDigits) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  // The first request of a structure is a miss, answered by the batcher;
  // repeats are hits, answered by the reader.  Both echo the id digits.
  for (const std::uint64_t id : {100000ull, 200000ull, 1000000ull}) {
    ASSERT_TRUE(sock.send_all(spec_request(id, 1.0, 100)));
    const std::vector<std::string> lines = read_lines(sock, 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << lines[0];
  }
  server.stop();
}

TEST(SocketServer, HitsAnswerWhileTheBatcherIsBusy) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 1;
  options.batch_deadline = std::chrono::microseconds(100);
  options.engine.threads = 1;
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(exchange(sock, {spec_request(1, 1.0, 200)}, 1).count(1));

  // A slow cold solve, then a hit for the warm structure, in one write:
  // the hit must not wait for the solve ahead of it.
  ASSERT_TRUE(sock.send_all(spec_request(2, 7.0, 12000) +
                            spec_request(3, 1.0, 200)));
  const std::vector<std::string> lines = read_lines(sock, 2);
  ASSERT_EQ(lines.size(), 2u);
  const Json first = Json::parse(lines[0]);
  const Json second = Json::parse(lines[1]);
  EXPECT_EQ(first.at("id").as_number(), 3.0);
  EXPECT_TRUE(first.at("cache_hit").as_bool());
  EXPECT_EQ(second.at("id").as_number(), 2.0);
  EXPECT_FALSE(second.at("cache_hit").as_bool());
  server.stop();
}

TEST(SocketServer, ReaderHitsAreCountedAndSkipTheQueue) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  // One miss, then an exact hit and a prefix hit, one at a time.
  ASSERT_TRUE(exchange(sock, {spec_request(1, 1.0, 300)}, 1).count(1));
  const auto exact = exchange(sock, {spec_request(2, 1.0, 300)}, 1);
  ASSERT_TRUE(exact.count(2));
  EXPECT_TRUE(exact.at(2).at("cache_hit").as_bool());
  EXPECT_FALSE(exact.at(2).at("prefix_hit").as_bool());
  const auto prefix = exchange(sock, {spec_request(3, 1.0, 150)}, 1);
  ASSERT_TRUE(prefix.count(3));
  EXPECT_TRUE(prefix.at(3).at("prefix_hit").as_bool());

  const service::EngineMetrics engine = server.engine().metrics();
  EXPECT_EQ(engine.requests, 3u);
  EXPECT_EQ(engine.hits, 2u);
  EXPECT_EQ(engine.prefix_hits, 1u);
  EXPECT_EQ(engine.misses, 1u);
  const service::ServerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.requests, 3u);
  EXPECT_EQ(metrics.reader_hits, 2u);
  EXPECT_EQ(metrics.accepted, 1u);  // only the miss was queued
  EXPECT_EQ(metrics.batches, 1u);

  const auto line = exchange(sock, {"{\"id\":9,\"cmd\":\"metrics\"}\n"}, 1);
  ASSERT_TRUE(line.count(9));
  EXPECT_EQ(line.at(9).at("server").at("reader_hits").as_number(), 2.0);
  EXPECT_EQ(line.at(9).at("metrics").at("cache_hits").as_number(), 2.0);
  server.stop();
}

TEST(SocketServer, ReaderHitBytesMatchEngineEvaluate) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(exchange(sock, {series_request(1, 1.0, 400)}, 1).count(1));
  // Exact and prefix hits, with and without the series.
  const std::string requests[] = {
      series_request(2, 1.0, 400),
      spec_request(3, 1.0, 400),
      series_request(4, 1.0, 250),
      spec_request(5, 1.0, 30),
  };
  for (const std::string& request : requests) {
    ASSERT_TRUE(sock.send_all(request));
    const std::vector<std::string> lines = read_lines(sock, 1);
    ASSERT_EQ(lines.size(), 1u);
    const service::ParsedRequest parsed = service::parse_request(request);
    const service::Evaluation evaluation =
        server.engine().evaluate(parsed.spec);
    ASSERT_TRUE(evaluation.cache_hit);
    std::string expected;
    service::append_evaluation(expected, evaluation, parsed.series,
                               parsed.id);
    EXPECT_EQ(lines[0] + "\n", expected) << request;
  }
  EXPECT_EQ(server.metrics().reader_hits, 4u);
  server.stop();
}

TEST(SocketServer, PipelinedSeriesHitsAreAllAnswered) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(exchange(sock, {series_request(0, 1.0, 300)}, 1).count(0));

  // Every request is sent before the first answer is read.
  constexpr std::uint64_t kHits = 256;
  std::string burst;
  for (std::uint64_t i = 1; i <= kHits; ++i) {
    burst += series_request(i, 1.0, 100 + static_cast<unsigned>(i % 200));
  }
  ASSERT_TRUE(sock.send_all(burst));
  const std::vector<std::string> lines = read_lines(sock, kHits);
  ASSERT_EQ(lines.size(), kHits);
  std::vector<bool> seen(kHits + 1, false);
  for (const std::string& line : lines) {
    const Json response = Json::parse(line);
    ASSERT_TRUE(response.contains("throughput_series")) << line;
    const auto id = static_cast<std::uint64_t>(response.at("id").as_number());
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, kHits);
    EXPECT_FALSE(seen[id]) << "duplicate id " << id;
    seen[id] = true;
  }
  EXPECT_EQ(server.metrics().reader_hits, kHits);
  server.stop();
}

TEST(SocketServer, RepeatedLinesSkipTheParseAndRenderOnce) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  // One series line three times, with different ids: a miss, then two
  // hits that the memo answers without a parse, rendered once.
  std::vector<std::string> answers;
  for (const std::uint64_t id : {1ull, 22ull, 333ull}) {
    ASSERT_TRUE(sock.send_all(series_request(id, 1.0, 500)));
    const std::vector<std::string> lines = read_lines(sock, 1);
    ASSERT_EQ(lines.size(), 1u);
    std::string answer = lines[0];
    const std::string echoed = "\"id\":" + std::to_string(id) + ",";
    const std::size_t at = answer.find(echoed);
    ASSERT_NE(at, std::string::npos) << answer;
    answers.push_back(answer.erase(at, echoed.size()));
  }
  // The miss says so; the hits are identical apart from their ids.
  EXPECT_NE(answers[0], answers[1]);
  EXPECT_NE(answers[1].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(answers[1], answers[2]);
  EXPECT_EQ(server.metrics().memo_hits, 2u);
  EXPECT_EQ(server.metrics().reader_hits, 2u);
  EXPECT_EQ(server.metrics().requests, 3u);
  EXPECT_EQ(server.engine().metrics().series_renders, 1u);

  const auto line = exchange(sock, {"{\"id\":9,\"cmd\":\"metrics\"}\n"}, 1);
  ASSERT_TRUE(line.count(9));
  EXPECT_EQ(line.at(9).at("server").at("memo_hits").as_number(), 2.0);
  EXPECT_EQ(line.at(9).at("metrics").at("series_renders").as_number(), 1.0);
  EXPECT_GT(line.at(9).at("metrics").at("series_bytes").as_number(), 0.0);
  server.stop();
}

TEST(SocketServer, OverlongLinesAreRefusedAndServingContinues) {
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  // One line past the cap, sent in pieces, then a good request on the same
  // connection.  Read concurrently so neither side's buffers fill.
  std::thread sender([&sock] {
    const std::string chunk(64 * 1024, ' ');
    std::string first = "{\"id\":1,\"pad\":\"";
    std::size_t sent = 0;
    EXPECT_TRUE(sock.send_all(first));
    sent += first.size();
    while (sent <= service::kMaxRequestLineBytes) {
      EXPECT_TRUE(sock.send_all(chunk));
      sent += chunk.size();
    }
    EXPECT_TRUE(sock.send_all("\"}\n" + spec_request(2, 1.0, 100)));
  });
  const std::vector<std::string> lines = read_lines(sock, 2);
  sender.join();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"error\":\"mtperf: request line too long\"}");
  const Json good = Json::parse(lines[1]);
  EXPECT_EQ(good.at("id").as_number(), 2.0);
  EXPECT_TRUE(good.contains("throughput"));
  EXPECT_EQ(server.metrics().parse_errors, 1u);
  server.stop();
}

/// Open descriptors of this process.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(SocketServer, ClosedConnectionsReleaseTheirDescriptors) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors";
  }
  service::ServerOptions options;
  options.port = 0;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  const std::size_t baseline = open_fds();
  // One connection at a time: each asks one question, reads the answer
  // and hangs up.  Its server side must close once its reader is done.
  for (std::uint64_t i = 0; i < 200; ++i) {
    Socket sock = connect_tcp(server.port());
    ASSERT_TRUE(sock.send_all(spec_request(i, 1.0, 20)));
    ASSERT_EQ(read_lines(sock, 1).size(), 1u) << i;
  }
  std::size_t now = open_fds();
  for (int wait = 0; wait < 500 && now > baseline; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = open_fds();
  }
  EXPECT_LE(now, baseline);
  EXPECT_EQ(server.metrics().connections, 200u);
  server.stop();
}

}  // namespace
