#include "support/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace sofia::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

void Writer::newline_indent() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void Writer::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (stack_.back().has_items) out_ += ',';
  newline_indent();
  stack_.back().has_items = true;
}

Writer& Writer::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back({false, false});
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back({true, false});
  return *this;
}

Writer& Writer::end_object() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ += '}';
  return *this;
}

Writer& Writer::end_array() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ += ']';
  return *this;
}

Writer& Writer::key(std::string_view name) {
  if (stack_.back().has_items) out_ += ',';
  newline_indent();
  stack_.back().has_items = true;
  out_ += '"';
  out_ += escape(name);
  out_ += indent_ < 0 ? "\":" : "\": ";
  pending_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
  return *this;
}

Writer& Writer::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(std::int64_t n) {
  before_value();
  out_ += std::to_string(n);
  return *this;
}

Writer& Writer::value(std::uint64_t n) {
  before_value();
  out_ += std::to_string(n);
  return *this;
}

Writer& Writer::value(double d) {
  before_value();
  if (!std::isfinite(d)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", d);
  out_ += buf;
  return *this;
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  return *this;
}

Writer& Writer::raw_number(std::string_view token) {
  before_value();
  out_ += token;
  return *this;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The writer only emits \u00xx for control bytes; decode the
          // BMP point as UTF-8 for generality.
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
        default: fail("bad escape character");
      }
    }
  }

  Value value() {
    // Every container level recurses once; cap the depth so a deeply nested
    // document fails with an error instead of exhausting the stack.
    if (depth_ == kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    ++depth_;
    Value v = parse_value();
    --depth_;
    return v;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    Value v;
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (peek() == '}') { ++pos_; return v; }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (peek() == ']') { ++pos_; return v; }
      for (;;) {
        v.array.push_back(value());
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number: keep the verbatim token.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if ((d >= '0' && d <= '9') || d == '.' || d == 'e' || d == 'E' ||
          d == '+' || d == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("unexpected character");
    v.kind = Value::Kind::kNumber;
    v.number = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key, std::string_view context) const {
  const Value* v = find(key);
  if (v == nullptr)
    throw Error(std::string(context) + " is missing '" + std::string(key) +
                "'");
  return *v;
}

const std::string& Value::as_string(std::string_view context) const {
  if (kind != Kind::kString)
    throw Error("json: " + std::string(context) + " is not a string");
  return string;
}

std::uint64_t Value::as_uint(std::string_view context) const {
  if (kind != Kind::kNumber)
    throw Error("json: " + std::string(context) + " is not a number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(number.c_str(), &end, 10);
  if (errno != 0 || end != number.c_str() + number.size())
    throw Error("json: " + std::string(context) + " is not an unsigned integer");
  return v;
}

std::int64_t Value::as_int(std::string_view context) const {
  if (kind != Kind::kNumber)
    throw Error("json: " + std::string(context) + " is not a number");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(number.c_str(), &end, 10);
  if (errno != 0 || end != number.c_str() + number.size())
    throw Error("json: " + std::string(context) + " is not an integer");
  return v;
}

bool Value::as_bool(std::string_view context) const {
  if (kind != Kind::kBool)
    throw Error("json: " + std::string(context) + " is not a boolean");
  return boolean;
}

const std::vector<Value>& Value::as_array(std::string_view context) const {
  if (kind != Kind::kArray)
    throw Error("json: " + std::string(context) + " is not an array");
  return array;
}

void Value::write(Writer& w) const {
  switch (kind) {
    case Kind::kNull: w.null(); break;
    case Kind::kBool: w.value(boolean); break;
    case Kind::kNumber: w.raw_number(number); break;
    case Kind::kString: w.value(string); break;
    case Kind::kArray:
      w.begin_array();
      for (const auto& v : array) v.write(w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, v] : object) {
        w.key(k);
        v.write(w);
      }
      w.end_object();
      break;
  }
}

Value parse(std::string_view text) { return ParserImpl(text).document(); }

}  // namespace sofia::json
