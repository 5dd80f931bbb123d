// Minimal JSON value type for the mtperf_serve wire protocol.
//
// Deliberately tiny and dependency-free: parse / inspect / dump of the
// standard six value kinds, with shortest-round-trip number formatting.
// Unicode escapes are decoded to UTF-8 for the basic multilingual plane
// (no surrogate pairs) — ample for the protocol's ASCII field names.
// Parse errors throw mtperf::invalid_argument_error with the offset;
// nesting deeper than kMaxParseDepth is rejected the same way, so hostile
// input cannot drive the recursive parser off the stack.  Duplicate object
// keys are parse errors too — last-wins would silently mask client bugs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mtperf::service {

class Json {
 public:
  using Array = std::vector<Json>;
  /// std::map keeps dumped objects in key order — deterministic output
  /// for tests and CI greps.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(unsigned u) : value_(static_cast<double>(u)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long long u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Containers nested deeper than this fail to parse (protocol lines are
  /// ~4 levels deep; the cap only exists to bound recursion on hostile
  /// input).
  static constexpr std::size_t kMaxParseDepth = 64;

  static Json parse(std::string_view text);

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_number() const noexcept { return holds<double>(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<Array>(); }
  bool is_object() const noexcept { return holds<Object>(); }

  /// Checked accessors; throw mtperf::invalid_argument_error on kind
  /// mismatch so protocol errors surface as one readable message.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // Object conveniences.
  bool contains(const std::string& key) const;
  /// Member lookup; throws when this is not an object or the key is absent.
  const Json& at(const std::string& key) const;
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  /// Compact single-line serialization.
  std::string dump() const;

  /// Append the compact serialization to `out` without intermediate
  /// strings or streams.
  void dump_to(std::string& out) const;

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

// The scalar formatters Json::dump_to is built on, exported so direct
// writers (service/request.cpp's response lines) emit the same bytes a
// Json DOM would without building one.

/// Whole numbers with |d| <= 2^53 (except -0) as plain integers
/// ("100000"); everything else in shortest round-trip form
/// (std::to_chars).  Inf and NaN print as null, since JSON has neither.
void append_json_number(std::string& out, double d);

/// Quoted string with JSON escapes; other control characters as \u00xx.
void append_json_string(std::string& out, std::string_view s);

/// A count (population, server total) in exactly the bytes
/// append_json_number(out, double(n)) gives, written by the integer
/// formatter up to 2^53.
void append_json_count(std::string& out, std::uint64_t n);

}  // namespace mtperf::service
