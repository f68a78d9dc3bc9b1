#pragma once

// Minimal JSON reader used by the observability schema tests and the
// obs_check CI tool to validate --trace-json / --metrics-json output.
// Covers the full value grammar (objects, arrays, strings with the common
// escapes, numbers, booleans, null); throws sdft::error with a byte offset
// on malformed input. Not a general-purpose library: no unicode surrogate
// handling, no streaming.

#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace sdft::json {

class value;
using object = std::map<std::string, value>;
using array = std::vector<value>;

class value {
 public:
  enum class kind { null, boolean, number, string, array, object };

  value() : kind_(kind::null) {}
  explicit value(bool b) : kind_(kind::boolean), boolean_(b) {}
  explicit value(double n) : kind_(kind::number), number_(n) {}
  explicit value(std::string s)
      : kind_(kind::string), string_(std::move(s)) {}
  explicit value(array a)
      : kind_(kind::array), array_(std::make_shared<array>(std::move(a))) {}
  explicit value(object o)
      : kind_(kind::object), object_(std::make_shared<object>(std::move(o))) {}

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_number() const { return kind_ == kind::number; }
  bool is_string() const { return kind_ == kind::string; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_object() const { return kind_ == kind::object; }

  bool as_bool() const {
    require(kind_ == kind::boolean, "not a boolean");
    return boolean_;
  }
  double as_number() const {
    require(kind_ == kind::number, "not a number");
    return number_;
  }
  /// The number as a count: a non-negative integer below 2^64. Empty for
  /// negative, fractional, non-finite and out-of-range numbers, which a
  /// cast to std::size_t would truncate or leave undefined.
  std::optional<std::size_t> as_count() const {
    const double x = as_number();
    if (!(x >= 0.0 && x < 0x1p64 && x == std::floor(x))) return std::nullopt;
    return static_cast<std::size_t>(x);
  }
  const std::string& as_string() const {
    require(kind_ == kind::string, "not a string");
    return string_;
  }
  const array& as_array() const {
    require(kind_ == kind::array, "not an array");
    return *array_;
  }
  const object& as_object() const {
    require(kind_ == kind::object, "not an object");
    return *object_;
  }

  /// Object member access; throws when absent or not an object.
  const value& at(const std::string& key) const {
    const object& o = as_object();
    const auto it = o.find(key);
    require(it != o.end(), "missing key '" + key + "'");
    return it->second;
  }
  bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }

 private:
  static void require(bool cond, const std::string& what) {
    if (!cond) throw error("json: " + what);
  }

  kind kind_;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<array> array_;
  std::shared_ptr<object> object_;
};

namespace detail {

class parser {
 public:
  explicit parser(const std::string& text) : text_(text) {}

  value parse() {
    const value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return value(parse_string());
      case 't':
        parse_literal("true");
        return value(true);
      case 'f':
        parse_literal("false");
        return value(false);
      case 'n':
        parse_literal("null");
        return value();
      default:
        return value(parse_number());
    }
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  value parse_object() {
    expect('{');
    object out;
    skip_ws();
    if (consume('}')) return value(std::move(out));
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return value(std::move(out));
    }
  }

  value parse_array() {
    expect('[');
    array out;
    skip_ws();
    if (consume(']')) return value(std::move(out));
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return value(std::move(out));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // ASCII only; anything else is preserved as '?' (the checker
          // never needs non-ASCII content).
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      std::size_t used = 0;
      const std::string tok = text_.substr(start, pos_ - start);
      const double v = std::stod(tok, &used);
      if (used != tok.size()) fail("malformed number");
      return v;
    } catch (const error&) {
      throw;
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` into a value tree; throws sdft::error on malformed input.
inline value parse(const std::string& text) {
  return detail::parser(text).parse();
}

}  // namespace sdft::json
