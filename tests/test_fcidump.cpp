// Hardening tests for the FCIDUMP reader: malformed files must be
// rejected with clear errors instead of silently corrupting the
// Hamiltonian (a truncated record or NaN integral that parses "best
// effort" produces a wrong energy, not a crash).  A differential mutation
// test at the end pins the accepted number syntax to the stream reader's.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "integrals/fcidump.hpp"

namespace xi = xfci::integrals;

namespace {

const char* kGoodHeader =
    "&FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n";

std::string good_body() {
  return std::string(kGoodHeader) +
         " 0.5 1 1 1 1\n"
         " 0.4 2 2 2 2\n"
         "-1.2 1 1 0 0\n"
         "-0.9 2 2 0 0\n"
         " 0.7 0 0 0 0\n";
}

std::string write_temp(const std::string& text) {
  const std::string path = "/tmp/xfci_test_fcidump_case.fcidump";
  std::ofstream os(path);
  os << text;
  return path;
}

}  // namespace

TEST(FcidumpHardening, GoodFileParses) {
  const auto data = xi::read_fcidump(write_temp(good_body()));
  EXPECT_EQ(data.tables.norb, 2u);
  EXPECT_EQ(data.nalpha, 1u);
  EXPECT_EQ(data.nbeta, 1u);
  EXPECT_DOUBLE_EQ(data.tables.core_energy, 0.7);
  EXPECT_DOUBLE_EQ(data.tables.eri(0, 0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(data.tables.h(1, 1), -0.9);
}

TEST(FcidumpHardening, TextEntryPointMatchesFileEntryPoint) {
  const auto from_file = xi::read_fcidump(write_temp(good_body()));
  const auto from_text = xi::read_fcidump_text(good_body());
  EXPECT_EQ(from_file.tables.norb, from_text.tables.norb);
  EXPECT_EQ(from_file.tables.eri.raw(), from_text.tables.eri.raw());
  EXPECT_EQ(from_file.tables.h.span().size(),
            from_text.tables.h.span().size());
}

TEST(FcidumpHardening, RejectsNanValue) {
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " nan 1 1 1 1\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsInfValue) {
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " inf 1 1 0 0\n"),
      xfci::Error);
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " -inf 0 0 0 0\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsOutOfRangeIndex) {
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " 0.5 3 1 1 1\n"),
      xfci::Error);
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " 0.5 1 1 1 7\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsTruncatedRecord) {
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " 0.5 1 1\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsUnparsableTrailingText) {
  EXPECT_THROW(xi::read_fcidump_text(good_body() + "garbage here\n"),
               xfci::Error);
  // ...including junk *between* records, which the old reader treated as
  // end-of-file, silently dropping everything after it.
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) +
                            " 0.5 1 1 1 1\n oops\n 0.4 2 2 2 2\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsMalformedLastValue) {
  // A value cut short at the very end of the text is as malformed as one
  // followed by a newline: the reader throws instead of dropping the
  // record.
  for (const std::string cut : {"0.5e-", "1e", "-"}) {
    EXPECT_THROW(xi::read_fcidump_text(good_body() + cut), xfci::Error)
        << cut;
    EXPECT_THROW(xi::read_fcidump_text(good_body() + cut + "\n"),
                 xfci::Error)
        << cut;
  }
}

TEST(FcidumpHardening, RejectsDuplicateDeclarations) {
  EXPECT_THROW(
      xi::read_fcidump_text(
          "&FCI NORB=2,NELEC=2,NORB=3,MS2=0,\n &END\n 0.7 0 0 0 0\n"),
      xfci::Error);
  EXPECT_THROW(
      xi::read_fcidump_text(
          "&FCI NORB=2,NELEC=2,NELEC=4,MS2=0,\n &END\n 0.7 0 0 0 0\n"),
      xfci::Error);
  EXPECT_THROW(
      xi::read_fcidump_text(
          "&FCI NORB=2,NELEC=2,MS2=0,MS2=2,\n &END\n 0.7 0 0 0 0\n"),
      xfci::Error);
  EXPECT_THROW(
      xi::read_fcidump_text("&FCI NORB=2,NELEC=2,ISYM=1,ISYM=2,\n &END\n"
                            " 0.7 0 0 0 0\n"),
      xfci::Error);
}

TEST(FcidumpHardening, RejectsMissingHeaderTerminator) {
  EXPECT_THROW(xi::read_fcidump_text("&FCI NORB=2,NELEC=2,MS2=0,\n"),
               xfci::Error);
}

TEST(FcidumpHardening, RejectsHeaderIntegerOverflow) {
  EXPECT_THROW(xi::read_fcidump_text(
                   "&FCI NORB=99999999999999999999,NELEC=2,\n &END\n"),
               xfci::Error);
}

TEST(FcidumpHardening, RejectsMs2BeyondNelecWithoutOverflow) {
  // NELEC + MS2 used to be formed before the range check, which overflows
  // a long for an MS2 near LONG_MAX.
  EXPECT_THROW(xi::read_fcidump_text("&FCI NORB=2,NELEC=2,"
                                     "MS2=9223372036854775807,\n &END\n"),
               xfci::Error);
  EXPECT_THROW(xi::read_fcidump_text("&FCI NORB=2,NELEC=2,"
                                     "MS2=-9223372036854775807,\n &END\n"),
               xfci::Error);
}

TEST(FcidumpHardening, ReadsUnderflowAsSignedZeroAndRejectsOverflow) {
  const auto data = xi::read_fcidump_text(std::string(kGoodHeader) +
                                          " 1e-400 1 1 0 0\n"
                                          "-1e-400 2 2 0 0\n"
                                          " 4.9e-324 0 0 0 0\n");
  EXPECT_EQ(data.tables.h(0, 0), 0.0);
  EXPECT_FALSE(std::signbit(data.tables.h(0, 0)));
  EXPECT_EQ(data.tables.h(1, 1), 0.0);
  EXPECT_TRUE(std::signbit(data.tables.h(1, 1)));
  EXPECT_EQ(data.tables.core_energy, 4.9e-324);  // the smallest denormal
  EXPECT_THROW(
      xi::read_fcidump_text(std::string(kGoodHeader) + " 1e400 1 1 0 0\n"),
      xfci::Error);
}

// ----------------------------------------- differential mutation testing --
//
// read_fcidump_text scans records with std::from_chars, but it must accept
// exactly the language of `std::istream >> double` / `>> long`: every input
// either gives bitwise-equal tables, electron counts and ISYM on both, or
// makes both throw xfci::Error.  The oracle below is the stream-based
// reader, kept verbatim and used only by this test.

namespace reference {

std::vector<long> namelist_values(const std::string& header,
                                  const std::string& key) {
  const auto pos = header.find(key + "=");
  XFCI_REQUIRE(pos != std::string::npos, "FCIDUMP header missing " + key);
  std::vector<long> out;
  std::size_t i = pos + key.size() + 1;
  while (i < header.size()) {
    while (i < header.size() &&
           std::isspace(static_cast<unsigned char>(header[i])))
      ++i;
    std::size_t j = i;
    if (j < header.size() && (header[j] == '-' || header[j] == '+')) ++j;
    const std::size_t digits_begin = j;
    while (j < header.size() &&
           std::isdigit(static_cast<unsigned char>(header[j])))
      ++j;
    if (j == digits_begin) break;
    out.push_back(std::stol(header.substr(i, j - i)));
    while (j < header.size() &&
           std::isspace(static_cast<unsigned char>(header[j])))
      ++j;
    if (j < header.size() && header[j] == ',')
      i = j + 1;
    else
      break;
  }
  XFCI_REQUIRE(!out.empty(), "empty value list for " + key);
  return out;
}

void require_unique(const std::string& header, const std::string& key) {
  std::size_t n = 0;
  const std::string needle = key + "=";
  for (auto pos = header.find(needle); pos != std::string::npos;
       pos = header.find(needle, pos + 1))
    ++n;
  XFCI_REQUIRE(n <= 1, "duplicate " + key + " declaration in FCIDUMP header");
}

xi::FcidumpData read_fcidump_text(const std::string& text,
                                  const std::string& group_name) {
  std::istringstream is(text);
  std::string header, line;
  bool header_done = false;
  while (!header_done && std::getline(is, line)) {
    header += line + " ";
    if (line.find("&END") != std::string::npos ||
        line.find("&end") != std::string::npos ||
        line.find('/') != std::string::npos)
      header_done = true;
  }
  XFCI_REQUIRE(header_done, "FCIDUMP header not terminated");
  for (const char* key : {"NORB", "NELEC", "MS2", "ISYM", "ORBSYM"})
    require_unique(header, key);

  const long norb = namelist_values(header, "NORB").at(0);
  const long nelec = namelist_values(header, "NELEC").at(0);
  long ms2 = 0;
  if (header.find("MS2=") != std::string::npos)
    ms2 = namelist_values(header, "MS2").at(0);
  XFCI_REQUIRE(norb > 0 && norb <= 63, "invalid NORB");
  XFCI_REQUIRE(nelec >= 0 && nelec <= 2 * norb, "invalid NELEC");
  XFCI_REQUIRE((nelec + ms2) % 2 == 0 && nelec + ms2 >= 0 &&
                   nelec - ms2 >= 0,
               "invalid NELEC/MS2 combination");

  xi::FcidumpData data;
  data.tables = xi::IntegralTables::empty(static_cast<std::size_t>(norb));
  data.nalpha = static_cast<std::size_t>((nelec + ms2) / 2);
  data.nbeta = static_cast<std::size_t>((nelec - ms2) / 2);
  data.tables.group = xfci::chem::PointGroup::make(group_name);
  if (header.find("ORBSYM=") != std::string::npos &&
      data.tables.group.num_irreps() > 1) {
    const auto syms = namelist_values(header, "ORBSYM");
    XFCI_REQUIRE(syms.size() == static_cast<std::size_t>(norb),
                 "ORBSYM length mismatch");
    for (std::size_t p = 0; p < static_cast<std::size_t>(norb); ++p) {
      XFCI_REQUIRE(syms[p] >= 1 && static_cast<std::size_t>(syms[p]) <=
                                       data.tables.group.num_irreps(),
                   "ORBSYM irrep out of range for " + group_name);
      data.tables.orbital_irreps[p] = static_cast<std::size_t>(syms[p] - 1);
    }
  }
  if (header.find("ISYM=") != std::string::npos) {
    const long isym = namelist_values(header, "ISYM").at(0);
    XFCI_REQUIRE(isym >= 1, "invalid ISYM");
    data.isym = static_cast<std::size_t>(isym - 1);
  }

  // The record loop under test: operator>> on double and long.  Every
  // value read must succeed, the last one in the text included.
  double v;
  long i, j, k, l;
  while (!(is >> std::ws).eof()) {
    XFCI_REQUIRE(static_cast<bool>(is >> v),
                 "unparsable text in FCIDUMP integral records");
    XFCI_REQUIRE(static_cast<bool>(is >> i >> j >> k >> l),
                 "truncated FCIDUMP record");
    XFCI_REQUIRE(std::isfinite(v),
                 "non-finite integral value in FCIDUMP record");
    XFCI_REQUIRE(i >= 0 && i <= norb && j >= 0 && j <= norb && k >= 0 &&
                     k <= norb && l >= 0 && l <= norb,
                 "FCIDUMP index out of range");
    if (i == 0 && j == 0 && k == 0 && l == 0) {
      data.tables.core_energy = v;
    } else if (k == 0 && l == 0) {
      XFCI_REQUIRE(i >= 1 && j >= 1, "malformed one-electron record");
      data.tables.h(static_cast<std::size_t>(i - 1),
                    static_cast<std::size_t>(j - 1)) = v;
      data.tables.h(static_cast<std::size_t>(j - 1),
                    static_cast<std::size_t>(i - 1)) = v;
    } else {
      XFCI_REQUIRE(i >= 1 && j >= 1 && k >= 1 && l >= 1,
                   "malformed two-electron record");
      data.tables.eri.set(
          static_cast<std::size_t>(i - 1), static_cast<std::size_t>(j - 1),
          static_cast<std::size_t>(k - 1), static_cast<std::size_t>(l - 1),
          v);
    }
  }
  return data;
}

}  // namespace reference

namespace {

// What a parse produced: the data, an xfci::Error, or anything else (which
// no input may cause).
struct Outcome {
  enum class Kind { kData, kError, kOther } kind = Kind::kData;
  std::string what;
  xi::FcidumpData data;
};

template <typename Parse>
Outcome run_parser(const Parse& parse) {
  Outcome out;
  try {
    out.data = parse();
  } catch (const xfci::Error& e) {
    out.kind = Outcome::Kind::kError;
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = Outcome::Kind::kOther;
    out.what = e.what();
  }
  return out;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_data(const xi::FcidumpData& a, const xi::FcidumpData& b) {
  const xi::IntegralTables& x = a.tables;
  const xi::IntegralTables& y = b.tables;
  return a.nalpha == b.nalpha && a.nbeta == b.nbeta && a.isym == b.isym &&
         x.norb == y.norb && x.orbital_irreps == y.orbital_irreps &&
         x.group.name() == y.group.name() &&
         same_bits(&x.core_energy, &y.core_energy, 1) &&
         x.h.span().size() == y.h.span().size() &&
         same_bits(x.h.data(), y.h.data(), x.h.span().size()) &&
         x.eri.raw().size() == y.eri.raw().size() &&
         same_bits(x.eri.raw().data(), y.eri.raw().data(),
                   x.eri.raw().size());
}

std::string describe(const Outcome& o) {
  switch (o.kind) {
    case Outcome::Kind::kData:
      return "data (norb " + std::to_string(o.data.tables.norb) + ")";
    case Outcome::Kind::kError:
      return "xfci::Error: " + o.what;
    case Outcome::Kind::kOther:
      return "non-xfci exception: " + o.what;
  }
  return "?";
}

std::string escaped(const std::string& text) {
  std::string out;
  for (unsigned char c : text.substr(0, 600)) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return text.size() > 600 ? out + "..." : out;
}

// Runs both readers on every input and records each disagreement.
class Differential {
 public:
  explicit Differential(std::string group) : group_(std::move(group)) {}

  void check(const std::string& what, const std::string& text) {
    ++inputs_;
    const Outcome ref = run_parser(
        [&] { return reference::read_fcidump_text(text, group_); });
    const Outcome got =
        run_parser([&] { return xi::read_fcidump_text(text, group_); });
    if (ref.kind == Outcome::Kind::kData) ++accepted_;
    const bool same =
        ref.kind != Outcome::Kind::kOther && ref.kind == got.kind &&
        (ref.kind == Outcome::Kind::kError || same_data(ref.data, got.data));
    if (same || ++failures_ > 10) return;
    ADD_FAILURE() << what << ": stream reader gave " << describe(ref)
                  << "; scanner gave " << describe(got) << "\n  input: \""
                  << escaped(text) << "\"";
  }

  std::size_t inputs() const { return inputs_; }
  std::size_t accepted() const { return accepted_; }

 private:
  std::string group_;
  std::size_t inputs_ = 0;
  std::size_t accepted_ = 0;
  std::size_t failures_ = 0;
};

// [begin, end) of every whitespace-separated token after the header line;
// record r's value is token 5r, its indices tokens 5r+1 .. 5r+4.
std::vector<std::pair<std::size_t, std::size_t>> record_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t p = text.find('\n', text.find("&END")) + 1;
  while (p < text.size()) {
    while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p])))
      ++p;
    const std::size_t b = p;
    while (p < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[p])))
      ++p;
    if (p > b) out.emplace_back(b, p);
  }
  return out;
}

std::string replaced(const std::string& text,
                     std::pair<std::size_t, std::size_t> span,
                     const std::string& with) {
  return text.substr(0, span.first) + with + text.substr(span.second);
}

// Every mutation family, each seeded from `rng`, applied to `text`.
void mutate_all(Differential& diff, const std::string& name,
                const std::string& text, xfci::Rng& rng) {
  diff.check(name, text);
  for (std::size_t n = 0; n < text.size(); ++n)
    diff.check(name + " truncated at " + std::to_string(n),
               text.substr(0, n));

  for (int r = 0; r < 400; ++r) {
    std::string t = text;
    const std::size_t at = rng.index(t.size());
    t[at] = static_cast<char>(t[at] ^ (1 << rng.index(8)));
    diff.check(name + " bit flip at " + std::to_string(at), t);
  }
  for (int r = 0; r < 200; ++r) {
    std::string t = text;
    const std::size_t at = rng.index(t.size());
    t[at] = static_cast<char>(rng.index(256));
    diff.check(name + " byte set at " + std::to_string(at), t);
  }

  for (const char c : {'\t', '\v', '\f', '\r', '\0'}) {
    const std::string tag = name + " byte " + std::to_string(int{c});
    std::string all = text;
    for (char& x : all)
      if (x == ' ' || x == '\n') x = c;
    diff.check(tag + " for every blank", all);
    for (int r = 0; r < 40; ++r) {
      std::string t = text;
      const std::size_t at = rng.index(t.size());
      t[at] = c;
      diff.check(tag + " over " + std::to_string(at), t);
      t = text;
      t.insert(rng.index(t.size() + 1), 1, c);
      diff.check(tag + " inserted", t);
    }
  }

  const auto tokens = record_tokens(text);
  if (tokens.size() < 5) return;
  const std::size_t records = tokens.size() / 5;
  for (const char* sign : {"+", "++", "+-", "-+", "--", "-"}) {
    for (int r = 0; r < 30; ++r) {
      const auto tok = tokens[rng.index(tokens.size())];
      std::string t = text;
      t.insert(tok.first, sign);
      diff.check(name + " sign " + sign + " before a token", t);
      t = text;
      t.insert(rng.index(t.size() + 1), sign);
      diff.check(name + " sign " + sign + " anywhere", t);
    }
  }

  // Records joined without whitespace: "... 0 0 1" + "+0.4 ..." -> "1+0.4".
  for (std::size_t r = 0; r + 1 < records; ++r) {
    if (r > 20 && rng.index(8) != 0) continue;
    const std::size_t end = tokens[5 * r + 4].second;
    const std::size_t next = tokens[5 * r + 5].first;
    for (const char* glue : {"", "+", "-", "e", "."}) {
      std::string t = text.substr(0, end) + glue + text.substr(next);
      diff.check(name + " records joined by '" + glue + "'", t);
    }
  }

  const char* values[] = {
      "nan", "-nan", "NAN", "inf", "-inf", "+inf", "infinity", "Infinity",
      "0x1p3", "0X10", "1d5", "1D5", "1e400", "-1e400", "+1e400",
      "1e-400", "-1e-400", "+1e-400", "1E-400", "0.0000000000000000001e-390",
      "4.9e-324", "-4.9e-324", "2e-324", "3e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "2.2250738585072014e-308",
      "2.225073858507201e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "1e", "1e+", "1e-", "1E", ".", "-.", "+.",
      ".5", "5.", "+.5", "-.5e-3", "5.e3", "-5.E-2", ".e5", "-.e1",
      "00012.5", "-0", "+0", "-0.0", "1.2.3", "1e5e3", "1e5.3", "1E+05", "1x",
      "12345678901234567890123456789",
      "0.1000000000000000055511151231257827021181583404541015625", "e5",
      "+", "-", "++1", "+-1", "-+1", "--1"};
  const std::size_t picks[] = {0, rng.index(records), records - 1};
  for (const char* v : values) {
    for (const std::size_t rec : picks) {
      const auto tok = tokens[5 * rec];
      const std::string t = replaced(text, tok, v);
      diff.check(name + " value " + v + " in record " + std::to_string(rec),
                 t);
    }
    // The value as the very last bytes of the text, with and without a
    // trailing newline.
    const std::string last = text.substr(0, tokens[5 * (records - 1)].first);
    diff.check(name + " value " + v + " ending the text", last + v);
    diff.check(name + " value " + v + " ending the text", last + v + "\n");
    const auto idx = tokens[5 * rng.index(records) + 1 + rng.index(4)];
    diff.check(name + " index " + v, replaced(text, idx, v));
  }
  for (const char* idx : {"+1", "-0", "01", "0x1", "1.0", "1e0", "+-1",
                          "99999999999999999999", "-9223372036854775808",
                          "9223372036854775807", "-1", "7"}) {
    for (const std::size_t rec : picks) {
      const auto tok = tokens[5 * rec + 1 + rng.index(4)];
      diff.check(name + " index " + idx, replaced(text, tok, idx));
    }
    const std::string last = text.substr(0, tokens.back().first);
    diff.check(name + " index " + idx + " ending the text", last + idx);
  }
}

// A random system of `norb` orbitals over D2h, with values spread over
// many decades so that every exponent width reaches the parser.
std::string random_fcidump(std::size_t norb, xfci::Rng& rng) {
  auto t = xi::IntegralTables::empty(norb);
  t.group = xfci::chem::PointGroup::make("D2h");
  for (std::size_t p = 0; p < norb; ++p)
    t.orbital_irreps[p] = rng.index(8);
  const auto value = [&] {
    return std::ldexp(rng.uniform(-1.0, 1.0),
                      static_cast<int>(rng.index(120)) - 60);
  };
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q) t.h(p, q) = t.h(q, p) = value();
  for (double& v : t.eri.raw()) v = value();
  t.core_energy = value();
  const std::size_t na = rng.index(norb + 1);
  const std::size_t nb = rng.index(norb + 1);
  const std::string path = "/tmp/xfci_test_fcidump_random.fcidump";
  xi::write_fcidump(path, t, na, nb);
  std::string text = xfci::obs::read_file(path);
  std::remove(path.c_str());
  return text;
}

}  // namespace

TEST(FcidumpLanguage, ScannerMatchesStreamReaderOnMutatedInputs) {
  xfci::Rng rng(20261017);
  Differential c1("C1");
  mutate_all(c1, "good body", good_body(), rng);
  Differential d2h("D2h");
  for (const std::size_t norb : {1 + rng.index(5), std::size_t{6}})
    mutate_all(d2h, "random system of " + std::to_string(norb) + " orbitals",
               random_fcidump(norb, rng), rng);
  // The corpus must exercise both outcomes, not only rejections.
  EXPECT_GT(c1.accepted(), c1.inputs() / 10);
  EXPECT_GT(d2h.accepted(), d2h.inputs() / 10);
}
