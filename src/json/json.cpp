#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace bifrost::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Result<Value> parse_document() {
    skip_ws();
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  util::Result<Value> fail(const std::string& what) {
    return util::Result<Value>::error("json: " + what + " at offset " +
                                      std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (!eof() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  util::Result<Value> parse_value() {
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
        if (consume_literal("true")) return Value(true);
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        return fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        return fail("invalid literal");
      default:
        return parse_number();
    }
  }

  util::Result<Value> parse_object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      auto key = parse_string_raw();
      if (!key.ok()) return util::Result<Value>::error(key.error_message());
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      skip_ws();
      auto value = parse_value();
      if (!value.ok()) return value;
      obj[key.value()] = std::move(value).value();
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Value(std::move(obj));
      return fail("expected ',' or '}' in object");
    }
  }

  util::Result<Value> parse_array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Value(std::move(arr));
      return fail("expected ',' or ']' in array");
    }
  }

  util::Result<Value> parse_string_value() {
    auto s = parse_string_raw();
    if (!s.ok()) return util::Result<Value>::error(s.error_message());
    return Value(std::move(s).value());
  }

  util::Result<std::string> parse_string_raw() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (eof()) {
        return util::Result<std::string>::error("json: unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) {
          return util::Result<std::string>::error("json: bad escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return util::Result<std::string>::error("json: bad \\u escape");
            }
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
                return util::Result<std::string>::error(
                    "json: bad \\u escape digit");
              }
            }
            // UTF-8 encode the BMP code point (surrogates passed through).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return util::Result<std::string>::error("json: bad escape char");
        }
      } else {
        out += c;
      }
    }
  }

  util::Result<Value> parse_number() {
    const size_t start = pos_;
    if (consume('-')) {
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (consume('.')) {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    return Value(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void append_number(std::string& out, double d) {
  // Integral values (timestamps, epochs, counts: most numbers the
  // journal writes) print through the integer path, several times
  // faster than printf-ing a double. -0 keeps its sign via %.17g.
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15 &&
      !(d == 0.0 && std::signbit(d))) {
    char buf[32];
    const auto printed = std::to_chars(buf, buf + sizeof buf,
                                       static_cast<std::int64_t>(d));
    out.append(buf, printed.ptr);
  } else if (std::isfinite(d)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else {
    out += "null";  // JSON has no NaN/Inf
  }
}

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string Value::get_string(const std::string& key,
                              std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string escape_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Value::dump_into(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                 : std::string();
  const std::string pad_close =
      indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    out += escape_string(as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_into(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    size_t i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      out += escape_string(key);
      out += indent > 0 ? ": " : ":";
      value.dump_into(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += '}';
  }
}

std::string Value::dump() const {
  std::string out;
  dump_into(out, 0, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  dump_into(out, 2, 0);
  return out;
}

util::Result<Value> parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace bifrost::json
