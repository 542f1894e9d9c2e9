// Minimal streaming JSON writer for machine-readable experiment results
// (driver/sweep emits BENCH_sweep.json-style documents with it). Emission
// is fully deterministic — keys appear in call order and numbers are
// formatted by fixed rules — so two runs of the same experiment produce
// byte-identical documents regardless of thread interleaving.
//
// A small reader (parse/Value) serves the shard merges and the result-cache
// payloads. The sweep merge must re-emit documents *byte-identically*, so
// the Value tree preserves object member order and verbatim number text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sofia::json {

/// Escape a string for use inside JSON quotes (no surrounding quotes).
std::string escape(std::string_view s);

class Writer {
 public:
  /// indent < 0 emits a compact single-line document; indent >= 0 pretty-
  /// prints with that many spaces per nesting level.
  explicit Writer(int indent = 2) : indent_(indent) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Start an object member; must be followed by a value or begin_*.
  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(std::int64_t n);
  Writer& value(std::uint64_t n);
  Writer& value(std::uint32_t n) { return value(static_cast<std::uint64_t>(n)); }
  Writer& value(int n) { return value(static_cast<std::int64_t>(n)); }
  /// Doubles use %.10g: enough digits for the repo's ratios/percentages and
  /// deterministic for identical inputs. Non-finite values become null.
  Writer& value(double d);
  Writer& null();

  /// key(name) + value(v) in one call.
  template <typename T>
  Writer& member(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// The document so far. Call after the outermost end_* for a full document.
  const std::string& str() const { return out_; }

 private:
  void before_value();
  void newline_indent();

  struct Scope {
    bool array = false;
    bool has_items = false;
  };
  std::string out_;
  std::vector<Scope> stack_;
  int indent_;
  bool pending_key_ = false;

  friend struct Value;  ///< Value::write() emits number tokens verbatim
  Writer& raw_number(std::string_view token);
};

/// Parsed JSON value. Object member order and the exact source text of
/// numbers are preserved so write() round-trips byte-identically for
/// documents produced by Writer.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string number;  ///< verbatim source token, e.g. "185.6" or "-7"
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< in source order

  bool operator==(const Value&) const = default;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Required object member; throws sofia::Error "<context> is missing
  /// '<key>'" when absent.
  const Value& at(std::string_view key, std::string_view context) const;

  // Typed accessors; throw sofia::Error naming `context` on kind mismatch.
  const std::string& as_string(std::string_view context) const;
  std::uint64_t as_uint(std::string_view context) const;
  std::int64_t as_int(std::string_view context) const;
  bool as_bool(std::string_view context) const;
  const std::vector<Value>& as_array(std::string_view context) const;

  // Required member of a given kind: at(key, context) + as_*(key).
  const std::string& string_at(std::string_view key,
                               std::string_view context) const {
    return at(key, context).as_string(key);
  }
  std::uint64_t uint_at(std::string_view key, std::string_view context) const {
    return at(key, context).as_uint(key);
  }
  std::int64_t int_at(std::string_view key, std::string_view context) const {
    return at(key, context).as_int(key);
  }
  bool bool_at(std::string_view key, std::string_view context) const {
    return at(key, context).as_bool(key);
  }
  const std::vector<Value>& array_at(std::string_view key,
                                     std::string_view context) const {
    return at(key, context).as_array(key);
  }

  /// Re-emit through a Writer (numbers verbatim, strings re-escaped).
  void write(Writer& w) const;
};

/// Containers may nest at most this deep; the documents this repo writes
/// nest fewer than 10 levels.
inline constexpr std::size_t kMaxDepth = 256;

/// Parse a complete JSON document; throws sofia::Error (with byte offset)
/// on malformed input, trailing garbage or nesting deeper than kMaxDepth.
Value parse(std::string_view text);

}  // namespace sofia::json
