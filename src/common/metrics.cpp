#include "common/metrics.hpp"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/error.hpp"

namespace xfci::obs {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers below 2^53 print exactly without a decimal point; this keeps
  // counters and microsecond timestamps free of ".000000" noise.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 15; prec <= 17; ++prec) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

void write_text_file(const std::string& path, std::string_view content) {
  XFCI_REQUIRE(!path.empty(), "write_text_file: empty path");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  XFCI_REQUIRE(f != nullptr, "write_text_file: cannot open " + path);
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  XFCI_REQUIRE(written == content.size() && rc == 0,
               "write_text_file: short write to " + path);
}

std::string read_file(const std::string& path) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  const std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  XFCI_REQUIRE(f != nullptr, "read_file: cannot open " + path);
  struct stat st {};
  XFCI_REQUIRE(::fstat(::fileno(f.get()), &st) == 0 && S_ISREG(st.st_mode),
               "read_file: not a regular file: " + path);
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f.get());
  XFCI_REQUIRE(got == bytes.size() && std::fgetc(f.get()) == EOF &&
                   std::ferror(f.get()) == 0,
               "read_file: short read from " + path);
  return bytes;
}

void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
    return;  // the key() already wrote "...": — value follows directly
  }
  if (!stack_.empty()) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  out_ += '{';
  stack_.push_back({'o', true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  XFCI_ASSERT(!stack_.empty() && stack_.back().kind == 'o',
              "JsonWriter: end_object without matching begin_object");
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  out_ += '[';
  stack_.push_back({'a', true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  XFCI_ASSERT(!stack_.empty() && stack_.back().kind == 'a',
              "JsonWriter: end_array without matching begin_array");
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  XFCI_ASSERT(!stack_.empty() && stack_.back().kind == 'o' && !after_key_,
              "JsonWriter: key() outside an object");
  if (!stack_.back().first) out_ += ',';
  stack_.back().first = false;
  out_ += json_quote(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::num(double v) {
  begin_value();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::uint(std::uint64_t v) {
  begin_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view v) {
  begin_value();
  out_ += json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::boolean(bool v) {
  begin_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  begin_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view fragment) {
  begin_value();
  out_ += fragment;
  return *this;
}

namespace json {

bool Value::as_bool() const {
  XFCI_REQUIRE(type_ == Type::kBool, "json::Value: not a bool");
  return bool_;
}

double Value::as_double() const {
  XFCI_REQUIRE(type_ == Type::kNumber, "json::Value: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  XFCI_REQUIRE(type_ == Type::kString, "json::Value: not a string");
  return str_;
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

const Value& Value::at(std::size_t i) const {
  XFCI_REQUIRE(type_ == Type::kArray && i < arr_.size(),
               "json::Value: array index out of range");
  return arr_[i];
}

const Value* Value::get(std::string_view k) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [key, value] : obj_)
    if (key == k) return &value;
  return nullptr;
}

const Value& Value::req(std::string_view k) const {
  const Value* v = get(k);
  XFCI_REQUIRE(v != nullptr, "json::Value: missing key " + std::string(k));
  return *v;
}

// Recursive-descent parser over a string_view.  No recursion guard is
// needed for our documents, but a depth cap keeps pathological input from
// overflowing the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    XFCI_REQUIRE(pos_ == text_.size(),
                 "json: trailing garbage at offset " + std::to_string(pos_));
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    char c = peek();
    Value v;
    if (c == '{') {
      ++pos_;
      v.type_ = Value::Type::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string_body();
        skip_ws();
        expect(':');
        v.obj_.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type_ = Value::Type::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.arr_.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type_ = Value::Type::kString;
      v.str_ = parse_string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.type_ = Value::Type::kBool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type_ = Value::Type::kBool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
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
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode; we only ever emit \u00XX for control chars, but
          // accept the full BMP for robustness (no surrogate pairing).
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

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected a number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("expected exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    Value v;
    v.type_ = Value::Type::kNumber;
    v.num_ = std::strtod(token.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value Value::parse(std::string_view text) { return Parser(text).run(); }

namespace {

void dump_into(const Value& v, JsonWriter& w) {
  switch (v.type()) {
    case Value::Type::kNull: w.null(); break;
    case Value::Type::kBool: w.boolean(v.as_bool()); break;
    case Value::Type::kNumber: w.num(v.as_double()); break;
    case Value::Type::kString: w.str(v.as_string()); break;
    case Value::Type::kArray:
      w.begin_array();
      for (const Value& e : v.array()) dump_into(e, w);
      w.end_array();
      break;
    case Value::Type::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object()) {
        w.key(k);
        dump_into(e, w);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string Value::dump() const {
  JsonWriter w;
  dump_into(*this, w);
  return w.take();
}

}  // namespace json

}  // namespace xfci::obs
