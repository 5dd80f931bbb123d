#include "service/request.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/piecewise_cubic.hpp"
#include "service/workmodel.hpp"

namespace mtperf::service {

namespace {

core::ClosedNetwork parse_network(const Json& request) {
  std::vector<core::Station> stations;
  for (const Json& js : request.at("stations").as_array()) {
    core::Station st;
    st.name = js.at("name").as_string();
    st.servers = parse_count(js.number_or("servers", 1.0), 1.0, 1e6,
                             "station '" + st.name + "' servers");
    st.visits = js.number_or("visits", 1.0);
    MTPERF_REQUIRE(std::isfinite(st.visits) && st.visits >= 0.0,
                   "station visits must be finite and non-negative");
    const std::string kind = js.string_or("kind", "queueing");
    MTPERF_REQUIRE(kind == "queueing" || kind == "delay",
                   "station kind must be 'queueing' or 'delay'");
    st.kind = kind == "delay" ? core::StationKind::kDelay
                              : core::StationKind::kQueueing;
    stations.push_back(std::move(st));
  }
  MTPERF_REQUIRE(!stations.empty(), "request needs at least one station");
  const double think = request.number_or("think", 0.0);
  MTPERF_REQUIRE(std::isfinite(think) && think >= 0.0,
                 "think time must be finite and non-negative");
  return core::ClosedNetwork(std::move(stations), think);
}

core::DemandModel parse_demands(const Json& spec, std::size_t station_count) {
  const std::string type = spec.string_or("type", "constant");
  if (type == "constant") {
    std::vector<double> values;
    for (const Json& v : spec.at("values").as_array()) {
      const double d = v.as_number();
      MTPERF_REQUIRE(std::isfinite(d) && d >= 0.0,
                     "demand values must be finite and non-negative");
      values.push_back(d);
    }
    MTPERF_REQUIRE(values.size() == station_count,
                   "demands.values must list one demand per station");
    return core::DemandModel::constant(std::move(values));
  }
  MTPERF_REQUIRE(type == "spline", "demands.type must be 'constant' or 'spline'");
  const std::string axis_name = spec.string_or("axis", "concurrency");
  MTPERF_REQUIRE(axis_name == "concurrency" || axis_name == "throughput",
                 "demands.axis must be 'concurrency' or 'throughput'");
  const auto axis = axis_name == "throughput"
                        ? core::DemandModel::Axis::kThroughput
                        : core::DemandModel::Axis::kConcurrency;
  std::vector<double> xs;
  for (const Json& v : spec.at("x").as_array()) xs.push_back(v.as_number());
  const auto& per_station = spec.at("y").as_array();
  MTPERF_REQUIRE(per_station.size() == station_count,
                 "demands.y must hold one knot array per station");
  std::vector<std::shared_ptr<const interp::Interpolator1D>> splines;
  splines.reserve(per_station.size());
  for (const Json& ys_json : per_station) {
    std::vector<double> ys;
    for (const Json& v : ys_json.as_array()) ys.push_back(v.as_number());
    MTPERF_REQUIRE(ys.size() == xs.size(),
                   "each demands.y row needs one value per x knot");
    splines.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(interp::SampleSet(xs, std::move(ys)))));
  }
  return core::DemandModel::interpolated(std::move(splines), axis);
}

/// Strip the library's "mtperf: " prefix so a message rethrown inside a
/// larger one is not double-prefixed.
std::string without_prefix(const char* what) {
  std::string msg(what);
  const std::string prefix = Error::prefix();
  if (msg.rfind(prefix, 0) == 0) msg.erase(0, prefix.size());
  return msg;
}

std::vector<core::CustomerClass> parse_classes(const Json& list,
                                               std::size_t station_count) {
  std::vector<core::CustomerClass> classes;
  for (const Json& jc : list.as_array()) {
    core::CustomerClass cls;
    cls.name = jc.at("name").as_string();
    MTPERF_REQUIRE(!cls.name.empty(), "customer class names must be non-empty");
    cls.population = parse_count(jc.at("population").as_number(), 0.0,
                                 kMaxRequestPopulation,
                                 "class '" + cls.name + "' population");
    cls.think_time = jc.number_or("think", 0.0);
    MTPERF_REQUIRE(
        std::isfinite(cls.think_time) && cls.think_time >= 0.0,
        "class '" + cls.name + "' think time must be finite and non-negative");
    const Json& demands = jc.at("demands");
    if (demands.is_array()) {
      // Constant shorthand: a bare array of one demand per station.
      std::vector<double> values;
      for (const Json& v : demands.as_array()) {
        const double d = v.as_number();
        MTPERF_REQUIRE(
            std::isfinite(d) && d >= 0.0,
            "class '" + cls.name +
                "' demand values must be finite and non-negative");
        values.push_back(d);
      }
      MTPERF_REQUIRE(
          values.size() == station_count,
          "class '" + cls.name + "' demands must list one value per station");
      cls.demands = std::move(values);
    } else {
      // Same constant/spline schema the top-level "demands" takes; spline
      // classes become per-class concurrency-varying models.
      try {
        cls.demand_model = std::make_shared<const core::DemandModel>(
            parse_demands(demands, station_count));
      } catch (const Error& e) {
        throw invalid_argument_error("class '" + cls.name + "': " +
                                     without_prefix(e.what()));
      }
    }
    classes.push_back(std::move(cls));
  }
  MTPERF_REQUIRE(!classes.empty(), "'classes' needs at least one class");
  return classes;
}

core::ScenarioSpec parse_scenario(const Json& request) {
  core::ClosedNetwork network = parse_network(request);
  core::SolveOptions options;
  if (request.contains("classes")) {
    MTPERF_REQUIRE(
        !request.contains("demands"),
        "a request carries either 'demands' or 'classes', not both");
    MTPERF_REQUIRE(!request.contains("max_population"),
                   "multiclass requests derive max_population from the class "
                   "mix; omit it");
    options.solver =
        core::parse_solver_kind(request.string_or("solver", "mom-multiclass"));
    MTPERF_REQUIRE(
        core::is_multiclass(options.solver),
        std::string("'classes' requires a multiclass solver kind; '") +
            core::solver_kind_name(options.solver) + "' is single-class");
    options.classes = parse_classes(request.at("classes"), network.size());
    MTPERF_REQUIRE(
        core::multiclass_total_population(options.classes) <=
            kMaxRequestPopulation,
        "total class population out of range");
    core::finalize_multiclass_options(options);
    core::ScenarioSpec spec;
    spec.label = request.string_or("label", "");
    spec.network = std::move(network);
    spec.options = std::move(options);
    return spec;  // spec.demands stays the placeholder; multiclass ignores it
  }
  core::DemandModel demands =
      parse_demands(request.at("demands"), network.size());
  options.solver =
      core::parse_solver_kind(request.string_or("solver", "mvasd"));
  options.max_population =
      parse_count(request.at("max_population").as_number(), 1.0,
                  kMaxRequestPopulation, "max_population");
  return core::ScenarioSpec{request.string_or("label", ""),
                            std::move(network), std::move(demands), options};
}

/// Station and class names key the response's "utilization" and "classes"
/// objects, so a repeated name would silently drop one station's (or
/// class's) numbers from the answer.
template <typename Named>
void require_unique_names(const std::vector<Named>& items, const char* what) {
  std::vector<std::string_view> names;
  names.reserve(items.size());
  for (const Named& item : items) names.emplace_back(item.name);
  std::sort(names.begin(), names.end());
  const auto dup = std::adjacent_find(names.begin(), names.end());
  if (dup != names.end()) {
    throw invalid_argument_error(std::string("duplicate ") + what +
                                 " name '" + std::string(*dup) + "'");
  }
}

void require_unique_names(const core::ScenarioSpec& spec) {
  require_unique_names(spec.network.stations(), "station");
  require_unique_names(spec.options.classes, "customer class");
}

/// ,"key": — the start of any member but an object's first.  The keys
/// are the protocol's own field names, which need no escaping.
void append_key(std::string& out, std::string_view key) {
  out.append(",\"");
  out.append(key);
  out.append("\":");
}

void append_bool(std::string& out, bool b) {
  out.append(b ? "true" : "false");
}

/// ,"key":[...] — a population series as counts, the others as numbers.
/// Sliced from `rendered` when the answer carries one (a cache hit),
/// else formatted value by value; the bytes are the same.
template <typename T>
void append_series(std::string& out, std::string_view key,
                   const std::vector<T>& values, const SeriesRender* rendered,
                   SeriesRender::Series series) {
  append_key(out, key);
  if (rendered != nullptr) {
    rendered->append(out, series, values.size());
    return;
  }
  out.push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    if constexpr (std::is_floating_point_v<T>) {
      append_json_number(out, values[i]);
    } else {
      append_json_count(out, values[i]);
    }
  }
  out.push_back(']');
}

/// Indices of `names` in key order with the last of any repeated name
/// kept — the members a std::map<std::string, Json> built by assigning in
/// index order would hold.
void sorted_unique_keys(const std::vector<std::string>& names,
                        std::vector<std::size_t>& order) {
  order.resize(names.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return names[a] < names[b];
                   });
  const auto last_of_run = [&](std::size_t i) {
    return i + 1 == order.size() || names[order[i]] != names[order[i + 1]];
  };
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (last_of_run(i)) order[kept++] = order[i];
  }
  order.resize(kept);
}

}  // namespace

unsigned parse_count(double value, double lo, double hi,
                     const std::string& field) {
  if (!(value >= lo && value <= hi)) {
    throw invalid_argument_error(field + " out of range");
  }
  if (value != std::floor(value)) {
    std::string message = field + " must be a whole number, got ";
    append_json_number(message, value);
    throw invalid_argument_error(message);
  }
  return static_cast<unsigned>(value);
}

Json recover_request_id(std::string_view line) {
  try {
    const Json request = Json::parse(line);
    if (request.contains("id")) return request.at("id");
  } catch (...) {
  }
  return Json();
}

ParsedRequest parse_request(std::string_view line) {
  const Json request = Json::parse(line);
  ParsedRequest out;
  if (request.contains("id")) out.id = request.at("id");
  const std::string cmd = request.string_or("cmd", "");
  if (cmd == "metrics") {
    out.kind = RequestKind::kMetrics;
    return out;
  }
  if (cmd == "shutdown") {
    out.kind = RequestKind::kShutdown;
    return out;
  }
  if (cmd == "workmodel") {
    out.kind = RequestKind::kScenario;
    out.series = request.contains("series") && request.at("series").as_bool();
    out.spec = workmodel_scenario(request);
    require_unique_names(out.spec);
    return out;
  }
  MTPERF_REQUIRE(
      cmd.empty(),
      "unknown cmd (expected 'workmodel', 'metrics', or 'shutdown')");
  out.kind = RequestKind::kScenario;
  out.series = request.contains("series") && request.at("series").as_bool();
  out.spec = parse_scenario(request);
  require_unique_names(out.spec);
  return out;
}

// The two per-response writers emit members in the byte order of their
// keys, the order a Json::Object (a std::map) dumps in, so the lines match
// what the Json DOM would print for the same fields; the parity test in
// tests/test_serve_pipeline.cpp holds them to that.

void append_evaluation(std::string& out, const Evaluation& evaluation,
                       bool series, const Json& id) {
  const core::MvaResult& r = *evaluation.result;
  const std::size_t top = r.levels() - 1;
  const SeriesRender* rendered =
      evaluation.series != nullptr && evaluation.series->levels() >= r.levels()
          ? evaluation.series.get()
          : nullptr;
  std::size_t busiest = 0;
  for (std::size_t k = 0; k < r.stations(); ++k) {
    if (r.utilization(top, k) > r.utilization(top, busiest)) busiest = k;
  }
  std::vector<std::size_t> order;

  out.append("{\"bottleneck\":");
  append_json_string(out, r.station_names[busiest]);
  append_key(out, "cache_hit");
  append_bool(out, evaluation.cache_hit);
  if (r.classes() > 0) {
    append_key(out, "classes");
    out.push_back('{');
    sorted_unique_keys(r.class_names, order);
    for (std::size_t j = 0; j < order.size(); ++j) {
      const std::size_t c = order[j];
      if (j != 0) out.push_back(',');
      append_json_string(out, r.class_names[c]);
      out.append(":{\"population\":");
      append_json_count(out, r.class_population[c]);
      append_key(out, "response_time");
      append_json_number(out, r.class_r(top, c));
      append_key(out, "throughput");
      append_json_number(out, r.class_x(top, c));
      out.push_back('}');
    }
    out.push_back('}');
  }
  if (evaluation.coalesced) {
    append_key(out, "coalesced");
    append_bool(out, true);
  }
  append_key(out, "cycle_time");
  append_json_number(out, r.cycle_time[top]);
  if (series) {
    append_series(out, "cycle_time_series", r.cycle_time, rendered,
                  SeriesRender::kCycleTime);
  }
  if (!id.is_null()) {
    append_key(out, "id");
    id.dump_to(out);
  }
  append_key(out, "label");
  append_json_string(out, evaluation.label);
  append_key(out, "max_population");
  append_json_count(out, r.population[top]);
  if (series) {
    append_series(out, "population", r.population, rendered,
                  SeriesRender::kPopulation);
  }
  append_key(out, "prefix_hit");
  append_bool(out, evaluation.prefix_hit);
  append_key(out, "response_time");
  append_json_number(out, r.response_time[top]);
  append_key(out, "solve_ms");
  append_json_number(out, evaluation.solve_ms);
  append_key(out, "throughput");
  append_json_number(out, r.throughput[top]);
  if (series) {
    append_series(out, "throughput_series", r.throughput, rendered,
                  SeriesRender::kThroughput);
  }
  append_key(out, "utilization");
  out.push_back('{');
  sorted_unique_keys(r.station_names, order);
  for (std::size_t j = 0; j < order.size(); ++j) {
    if (j != 0) out.push_back(',');
    append_json_string(out, r.station_names[order[j]]);
    out.push_back(':');
    append_json_number(out, r.utilization(top, order[j]));
  }
  out.append("}}\n");
}

void append_error(std::string& out, const std::string& message,
                  const Json& id, std::size_t line_number) {
  out.append("{\"error\":");
  append_json_string(out, message);
  if (!id.is_null()) {
    append_key(out, "id");
    id.dump_to(out);
  }
  if (line_number != 0) {
    append_key(out, "line");
    append_json_count(out, line_number);
  }
  out.append("}\n");
}

void append_metrics(std::string& out, const EngineMetrics& m,
                    const Json* server, const Json& id) {
  Json::Object latency;
  latency["p50"] = m.solve_ms_p50;
  latency["p90"] = m.solve_ms_p90;
  latency["p99"] = m.solve_ms_p99;
  latency["max"] = m.solve_ms_max;
  Json::Object batch;
  batch["blocks"] = static_cast<unsigned long long>(m.batch_blocks);
  batch["lanes"] = static_cast<unsigned long long>(m.batch_lanes);
  batch["scalar_fallbacks"] =
      static_cast<unsigned long long>(m.batch_scalar_fallbacks);
  batch["occupancy_mean"] = m.batch_occupancy_mean;
  batch["busy_ms"] = m.batch_busy_ms;
  batch["capacity_ms"] = m.batch_capacity_ms;
  Json::Array hist;
  for (std::size_t l = 1; l < m.batch_occupancy.size(); ++l) {
    hist.emplace_back(static_cast<unsigned long long>(m.batch_occupancy[l]));
  }
  batch["occupancy_hist"] = std::move(hist);
  Json::Object inner;
  inner["requests"] = static_cast<unsigned long long>(m.requests);
  inner["cache_hits"] = static_cast<unsigned long long>(m.hits);
  inner["prefix_hits"] = static_cast<unsigned long long>(m.prefix_hits);
  inner["coalesced"] = static_cast<unsigned long long>(m.coalesced);
  inner["misses"] = static_cast<unsigned long long>(m.misses);
  inner["evictions"] = static_cast<unsigned long long>(m.evictions);
  inner["entries"] = static_cast<unsigned long long>(m.entries);
  inner["queue_depth"] = static_cast<unsigned long long>(m.queue_depth);
  inner["hit_rate"] = m.hit_rate;
  inner["fes_profile_hits"] =
      static_cast<unsigned long long>(m.fes_profile_hits);
  inner["fes_profile_misses"] =
      static_cast<unsigned long long>(m.fes_profile_misses);
  inner["series_renders"] = static_cast<unsigned long long>(m.series_renders);
  inner["series_bytes"] = static_cast<unsigned long long>(m.series_bytes);
  inner["solve_ms"] = Json(std::move(latency));
  inner["batch"] = Json(std::move(batch));
  Json::Object line;
  if (!id.is_null()) line["id"] = id;
  line["metrics"] = Json(std::move(inner));
  if (server != nullptr) line["server"] = *server;
  Json(std::move(line)).dump_to(out);
  out.push_back('\n');
}

namespace {

bool is_json_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void skip_space(std::string_view s, std::size_t& i) {
  while (i < s.size() && is_json_space(s[i])) ++i;
}

/// Past the string opening at s[i]; false when it never closes.
/// `escaped` is set when the string holds a backslash.
bool skip_string(std::string_view s, std::size_t& i, bool& escaped) {
  for (++i; i < s.size();) {
    const char c = s[i++];
    if (c == '"') return true;
    if (c == '\\') {
      escaped = true;
      ++i;
    }
  }
  return false;
}

/// Past the value starting at s[i], a member of a top-level object.
/// Containers are matched by depth alone and bare tokens (numbers,
/// literals) run to the next separator: enough to find where a value of a
/// valid line ends; the id's own bytes are parsed by Json::parse.
bool skip_value(std::string_view s, std::size_t& i) {
  if (i >= s.size()) return false;
  bool escaped = false;
  if (s[i] == '"') return skip_string(s, i, escaped);
  if (s[i] == '{' || s[i] == '[') {
    std::size_t depth = 1;  // the top-level object
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        if (!skip_string(s, i, escaped)) return false;
        continue;
      }
      ++i;
      if (c == '{' || c == '[') {
        if (++depth > Json::kMaxParseDepth) return false;
      } else if ((c == '}' || c == ']') && --depth == 1) {
        return true;
      }
    }
    return false;
  }
  const std::size_t start = i;
  while (i < s.size() && !is_json_space(s[i]) && s[i] != ',' && s[i] != '}' &&
         s[i] != ']') {
    ++i;
  }
  return i > start;
}

}  // namespace

bool scan_request_id(std::string_view line, IdSpan& span) {
  span = IdSpan{};
  std::size_t i = 0;
  skip_space(line, i);
  if (i == line.size() || line[i] != '{') return false;
  ++i;
  skip_space(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
    skip_space(line, i);
    return i == line.size();
  }
  std::size_t previous_value_end = 0;  // of the member before this one
  bool first = true;
  bool id_first = false;  // the id is the first member; cut_end pending
  for (;;) {
    if (i == line.size() || line[i] != '"') return false;
    const std::size_t key_begin = i;
    bool escaped = false;
    if (!skip_string(line, i, escaped) || escaped) return false;
    const std::string_view key = line.substr(key_begin, i - key_begin);
    skip_space(line, i);
    if (i == line.size() || line[i] != ':') return false;
    ++i;
    skip_space(line, i);
    const std::size_t value_begin = i;
    if (!skip_value(line, i)) return false;
    if (key == "\"id\"") {
      if (span.present) return false;
      span.present = true;
      span.value_begin = value_begin;
      span.value_end = i;
      // Cut ",<id member>" after an earlier member; a first id takes its
      // following ',' instead (or runs to the '}' when it is alone).
      span.cut_begin = first ? key_begin : previous_value_end;
      span.cut_end = i;
      id_first = first;
    }
    previous_value_end = i;
    first = false;
    skip_space(line, i);
    if (i == line.size()) return false;
    if (line[i] == ',') {
      ++i;
      skip_space(line, i);
      if (id_first) span.cut_end = i;
      id_first = false;
      continue;
    }
    if (line[i] != '}') return false;
    if (id_first) span.cut_end = i;
    ++i;
    skip_space(line, i);
    return i == line.size();
  }
}

const RequestMemo::Entry* RequestMemo::find(std::string_view line, Json& id) {
  keyed_ = false;
  IdSpan span;
  if (!scan_request_id(line, span)) return nullptr;
  if (span.present) {
    key_.assign(line.substr(0, span.cut_begin));
    key_.append(line.substr(span.cut_end));
  } else {
    key_.assign(line);
  }
  keyed_ = true;
  const auto it = index_.find(key_);
  if (it == index_.end()) return nullptr;
  id = Json();
  if (span.present) {
    try {
      id = Json::parse(
          line.substr(span.value_begin, span.value_end - span.value_begin));
    } catch (const std::exception&) {
      return nullptr;  // the full parse reports the malformed id
    }
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

void RequestMemo::remember(Entry entry) {
  if (!keyed_ || key_.size() > kMaxBytes) return;
  keyed_ = false;
  if (const auto it = index_.find(key_); it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key_, std::move(entry)});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += key_.size();
  while (bytes_ > kMaxBytes) evict_oldest();
}

void RequestMemo::evict_oldest() {
  bytes_ -= lru_.back().key.size();
  index_.erase(lru_.back().key);
  lru_.pop_back();
}

}  // namespace mtperf::service
