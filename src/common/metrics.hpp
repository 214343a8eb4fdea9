#pragma once
// Machine-readable run reports: a small deterministic JSON layer.
//
// Two halves, both dependency-free:
//
//  * JsonWriter — a streaming writer producing compact, deterministic
//    JSON: keys appear in emission order, doubles are rendered with the
//    shortest precision that round-trips through strtod, and integers
//    never grow a decimal point.  Every sink in the observability layer
//    (Chrome traces, --metrics run reports, BENCH_*.json) goes through
//    it so byte-identical inputs give byte-identical files.
//
//  * json::Value — a minimal DOM parser/printer used by the round-trip
//    tests and by C++-side trace validation.  Objects preserve insertion
//    order, so parse → dump is a fixed point of JsonWriter output.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xfci::obs {

/// Shortest decimal rendering of `v` that strtod parses back to the same
/// bits.  Non-finite values render as "null" (JSON has no inf/nan).
std::string json_number(double v);

/// `s` quoted and escaped per RFC 8259 (control characters as \u00XX).
std::string json_quote(std::string_view s);

/// Writes `content` to `path` atomically enough for our purposes
/// (truncate + write + close); throws xfci::Error on I/O failure.
void write_text_file(const std::string& path, std::string_view content);

/// The bytes of the regular file at `path`, read in one pass into a buffer
/// sized from the file's length.  Throws xfci::Error when the file cannot
/// be opened, is not a regular file, or reads short of (or grows past) the
/// length it had when opened.
std::string read_file(const std::string& path);

/// Streaming JSON writer with comma/nesting bookkeeping.  Methods have
/// distinct names (num/uint/str/boolean/raw) rather than overloads so an
/// integer literal can never silently pick the bool overload.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Emits an object key; the next call must produce its value.
  JsonWriter& key(std::string_view k);
  JsonWriter& num(double v);
  JsonWriter& uint(std::uint64_t v);
  JsonWriter& str(std::string_view v);
  JsonWriter& boolean(bool v);
  JsonWriter& null();
  /// Splices a pre-rendered JSON value verbatim (caller guarantees it is
  /// well formed, e.g. a trace-args object built with trace_args()).
  JsonWriter& raw(std::string_view fragment);

  const std::string& str_ref() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void begin_value();  // comma/colon bookkeeping before any value
  std::string out_;
  // One frame per open container: 'o'/'a' plus "have we emitted the
  // first element yet" for comma placement.
  struct Frame {
    char kind;
    bool first;
  };
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

namespace json {

/// Minimal JSON DOM with insertion-ordered objects.  parse() accepts
/// exactly what JsonWriter emits (RFC 8259 minus extensions); dump()
/// re-renders through the same number/string formatting, so
/// dump(parse(x)) == x for any JsonWriter-produced document.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  /// Parses `text`; throws xfci::Error with offset info on malformed
  /// input or trailing garbage.
  static Value parse(std::string_view text);

  std::string dump() const;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array/object element count (0 for scalars).
  std::size_t size() const;
  /// Array element access; throws on out-of-range or non-array.
  const Value& at(std::size_t i) const;
  /// Object lookup; nullptr when the key is absent or this is not an
  /// object.
  const Value* get(std::string_view k) const;
  /// Object lookup that throws when the key is missing.
  const Value& req(std::string_view k) const;

  const std::vector<Value>& array() const { return arr_; }
  const std::vector<std::pair<std::string, Value>>& object() const {
    return obj_;
  }

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

}  // namespace json

}  // namespace xfci::obs
