// The request-handling core shared by every front end of the scenario
// engine: the stdio loop and the socket server of mtperf_serve, the load
// generator, and the pipeline tests all parse and serialize through these
// functions, so the two transports cannot drift apart.
//
// Wire format (one JSON object per '\n'-terminated line, both directions):
//
//   request:   {"label": "...", "think": 1.0,
//               "stations": [{"name": "db/cpu", "servers": 16,
//                             "visits": 1.0, "kind": "queueing"}, ...],
//               "demands": {"type": "constant", "values": [...]}
//                        | {"type": "spline", "axis": "concurrency",
//                           "x": [...], "y": [[...], ...]},
//               "solver": "mvasd", "max_population": 300,
//               "series": false, "id": 17}
//   multiclass: replace "demands"/"max_population" with
//               "classes": [{"name": "renew", "population": 120,
//                            "think": 2.0, "demands": [0.01, 0.02]
//                                        | {"type": "spline", ...}}, ...]
//               ("solver" defaults to "mom-multiclass"; responses gain a
//               "classes" object with per-class population / throughput /
//               response_time)
//   workmodel: {"cmd": "workmodel", "entry": "gateway", "think": 2.0,
//               "services": {"gateway": {"demand": 0.004, "calls": [...]},
//                            ...},
//               "solver": "mvasd", "max_population": 200, "id": 18}
//              (service-graph schema — see service/workmodel.hpp; compiled
//              to the same ScenarioSpec as a flat request)
//   control:   {"cmd": "metrics"} | {"cmd": "shutdown"}
//   response:  {"label": ..., "id": 17, "throughput": ..., ...}
//            | {"error": "...", "id": 17}
//            | {"metrics": {...}, "server": {...}}
//
// The optional "id" comes back on the matching response (results may
// return out of request order on the socket transport, where requests
// from many connections are micro-batched together).  It is the same JSON
// value, not the same bytes: ids are parsed and re-serialized, so whole
// numbers up to 2^53 come back as plain integers ("1e2" as 100, 100000 as
// 100000), other numbers in shortest round-trip form ("1.50" as 1.5), and
// integers are exact only up to 2^53 (9007199254740993 comes back as
// 9007199254740992).  Strings, objects and arrays round-trip by value.
//
// Result and error lines are written straight into caller-owned buffers,
// member by member in key order, without building a Json value (the
// serve path's per-response cost is dominated by this serialization);
// numbers and strings go through the same formatters as Json::dump_to,
// so the bytes equal what dumping the equivalent Json object would give.
// The metrics line, a cold path, is built as a Json object.  A cache
// hit's series arrays are sliced from bytes rendered once per cache entry
// (SeriesRender in service/engine.hpp); the bytes are the same.
//
// The socket transport answers a line it has parsed before (the same bytes
// but for the "id" member) from a RequestMemo: scan_request_id cuts the id
// out without parsing the line, and only the id's own bytes are parsed.
#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/sweep.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"

namespace mtperf::service {

enum class RequestKind {
  kScenario,  ///< evaluate `spec`
  kMetrics,   ///< emit a metrics line
  kShutdown,  ///< stop serving (socket transport only; stdio ignores it)
};

/// One parsed request line.
struct ParsedRequest {
  RequestKind kind = RequestKind::kScenario;
  core::ScenarioSpec spec;
  bool series = false;  ///< response carries the full population series
  Json id;              ///< echoed on the response when non-null
};

/// Largest max_population a request may ask for — a guardrail against a
/// hostile line committing the server to an absurd solve.
inline constexpr unsigned kMaxRequestPopulation = 1'000'000;

/// Parse one request line.  Throws mtperf::Error (with a stable "mtperf: "
/// prefix) on malformed JSON, schema violations (including fractional
/// counts and repeated station or class names), unknown solvers, or
/// out-of-range populations; the caller answers with append_error and
/// keeps serving.
ParsedRequest parse_request(std::string_view line);

/// A count field ("servers", "max_population", a class "population", ...)
/// as unsigned.  Throws mtperf::Error naming `field` unless `value` is a
/// whole number in [lo, hi]: "servers": 2.7 is rejected, not solved with
/// 2 servers.
unsigned parse_count(double value, double lo, double hi,
                     const std::string& field);

/// Best-effort id recovery for error responses: when parse_request threw
/// after the line proved to be valid JSON (schema violation), the "id" is
/// still recoverable by re-parsing.  Error paths are cold, so the extra
/// parse does not matter; malformed JSON simply yields a null id.
Json recover_request_id(std::string_view line);

/// Append one result line (with trailing '\n') for an evaluation.
void append_evaluation(std::string& out, const Evaluation& evaluation,
                       bool series, const Json& id);

/// Append one {"error": ...} line (with trailing '\n').  `line_number`
/// is included when nonzero (the stdio transport reports positions);
/// `id` is echoed when non-null.
void append_error(std::string& out, const std::string& message,
                  const Json& id, std::size_t line_number = 0);

/// Append one metrics line (with trailing '\n').  `server` optionally
/// adds a transport-level "server" object next to the engine "metrics";
/// `id` is echoed when non-null (socket clients match responses by id).
void append_metrics(std::string& out, const EngineMetrics& metrics,
                    const Json* server = nullptr, const Json& id = Json());

/// Where a request line's top-level "id" member sits (byte offsets).
struct IdSpan {
  bool present = false;
  /// The bytes to cut to remove the member: its key, value and one
  /// adjacent ',' with the whitespace around them.
  std::size_t cut_begin = 0;
  std::size_t cut_end = 0;
  /// The id value's own bytes.
  std::size_t value_begin = 0;
  std::size_t value_end = 0;
};

/// Find the top-level "id" member of a request line without parsing it:
/// a byte scan that tracks strings, escapes and nesting.  Gives up
/// (returns false, and the line takes the full parse) unless `line` is
/// one object whose top-level keys hold no backslash ("\u0069d" decodes
/// to "id") and name "id" at most once, nested no deeper than
/// Json::kMaxParseDepth.  It checks the line's structure, not its
/// values: a true return does not make the line valid JSON.
bool scan_request_id(std::string_view line, IdSpan& span);

/// A connection's memo of scenario lines it has already parsed, so a
/// repeat — the same bytes but for the "id" — is answered without a
/// parse.  Keyed by the line's bytes with the id member cut out (compared
/// byte for byte); holds what the parse decided: the fingerprint, depth,
/// series flag and label.  The parse is a pure function of those bytes,
/// so a memoized line parses to the same request every time.
///
/// Bounded: at most `capacity` lines and kMaxBytes of keys, least
/// recently used first out.  Not thread-safe: each reader owns one.
class RequestMemo {
 public:
  struct Entry {
    Fingerprint fp;
    unsigned depth = 0;
    bool series = false;
    std::string label;
  };

  static constexpr std::size_t kMaxBytes = std::size_t{1} << 20;

  explicit RequestMemo(std::size_t capacity) : capacity_(capacity) {}

  // The index views keys inside the list's nodes; a copy would view the
  // original's.
  RequestMemo(const RequestMemo&) = delete;
  RequestMemo& operator=(const RequestMemo&) = delete;

  /// The entry memoized for `line`, with the line's id parsed from its own
  /// bytes into `id` (null when absent).  Null when the line is not
  /// memoized, the scanner gives up on it, or its id does not parse.
  /// Also keys `line` for a following remember().
  const Entry* find(std::string_view line, Json& id);

  /// Memoize the line last passed to find(), which has just passed the
  /// full parse and fingerprint as a scenario.  No-op when the scanner
  /// gave up on that line.
  void remember(Entry entry);

  std::size_t size() const noexcept { return lru_.size(); }

 private:
  struct Node {
    std::string key;
    Entry entry;
  };

  void evict_oldest();

  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::list<Node> lru_;  ///< front = most recently used
  std::unordered_map<std::string_view, std::list<Node>::iterator> index_;
  std::string key_;     ///< the last find()'s key
  bool keyed_ = false;  ///< key_ is valid for remember()
};

}  // namespace mtperf::service
