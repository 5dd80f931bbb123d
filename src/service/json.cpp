#include "service/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace mtperf::service {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    require(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw invalid_argument_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
  }

  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view literal) {
    require(text_.substr(pos_, literal.size()) == literal,
            "malformed literal");
    pos_ += literal.size();
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': {
        DepthGuard depth(*this);
        return parse_object();
      }
      case '[': {
        DepthGuard depth(*this);
        return parse_array();
      }
      case '"': return Json(parse_string());
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case 'n': expect_literal("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    take();  // '{'
    Json::Object object;
    skip_whitespace();
    if (consume('}')) return Json(std::move(object));
    while (true) {
      skip_whitespace();
      require(peek() == '"', "expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      require(consume(':'), "expected ':' after object key");
      Json value = parse_value();
      // Reject duplicates instead of last-wins: a request carrying
      // {"think":1,"think":2} is a client bug, and which value silently
      // won depended on map insertion order.
      if (!object.emplace(std::move(key), std::move(value)).second) {
        fail("duplicate object key");
      }
      skip_whitespace();
      if (consume(',')) continue;
      require(consume('}'), "expected ',' or '}' in object");
      return Json(std::move(object));
    }
  }

  Json parse_array() {
    take();  // '['
    Json::Array array;
    skip_whitespace();
    if (consume(']')) return Json(std::move(array));
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      if (consume(',')) continue;
      require(consume(']'), "expected ',' or ']' in array");
      return Json(std::move(array));
    }
  }

  std::string parse_string() {
    take();  // '"'
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': append_unicode(out); break;
          default: fail("unknown escape sequence");
        }
        continue;
      }
      require(static_cast<unsigned char>(c) >= 0x20,
              "unescaped control character in string");
      out.push_back(c);
    }
  }

  void append_unicode(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("malformed \\u escape");
    }
    require(code < 0xD800 || code > 0xDFFF,
            "surrogate pairs are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a JSON value");
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return Json(value);
  }

  /// Bounds container recursion: hostile inputs like "[[[[..." would
  /// otherwise recurse once per byte and overflow the stack.
  struct DepthGuard {
    Parser& parser;
    explicit DepthGuard(Parser& p) : parser(p) {
      parser.require(++parser.depth_ <= Json::kMaxParseDepth,
                     "nesting deeper than kMaxParseDepth levels");
    }
    ~DepthGuard() { --parser.depth_; }
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// 2^53: every whole double up to this magnitude is an exact integer.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

}  // namespace

void append_json_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out.append("null");
    return;
  }
  char buf[32];
  // Whole numbers print as plain integers ("100000", not the shorter
  // "1e+05"), so an integer id echoes digit for digit.  Both zeros keep
  // the double form ("0", "-0").
  if (d != 0.0 && std::fabs(d) <= static_cast<double>(kMaxExactInteger)) {
    const auto whole = static_cast<long long>(d);
    if (static_cast<double>(whole) == d) {
      const char* end = std::to_chars(buf, buf + sizeof buf, whole).ptr;
      out.append(buf, static_cast<std::size_t>(end - buf));
      return;
    }
  }
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf) : 0);
}

void append_json_count(std::string& out, std::uint64_t n) {
  // Past 2^53 the double append_json_number sees is rounded; match it.
  if (n > kMaxExactInteger) {
    append_json_number(out, static_cast<double>(n));
    return;
  }
  char buf[20];
  const char* end = std::to_chars(buf, buf + sizeof buf, n).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out.append("\\u00");
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  throw invalid_argument_error("JSON value is not a boolean");
}

double Json::as_number() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  throw invalid_argument_error("JSON value is not a number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw invalid_argument_error("JSON value is not a string");
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  throw invalid_argument_error("JSON value is not an array");
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  throw invalid_argument_error("JSON value is not an object");
}

bool Json::contains(const std::string& key) const {
  const auto* o = std::get_if<Object>(&value_);
  return o != nullptr && o->count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw invalid_argument_error("missing JSON field: '" + key + "'");
  }
  return it->second;
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

void Json::dump_to(std::string& out) const {
  struct Visitor {
    std::string& out;
    void operator()(std::nullptr_t) { out.append("null"); }
    void operator()(bool b) { out.append(b ? "true" : "false"); }
    void operator()(double d) { append_json_number(out, d); }
    void operator()(const std::string& s) { append_json_string(out, s); }
    void operator()(const Array& a) {
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) out.push_back(',');
        a[i].dump_to(out);
      }
      out.push_back(']');
    }
    void operator()(const Object& o) {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : o) {
        if (!first) out.push_back(',');
        first = false;
        append_json_string(out, key);
        out.push_back(':');
        value.dump_to(out);
      }
      out.push_back('}');
    }
  };
  std::visit(Visitor{out}, value_);
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace mtperf::service
