#include "integrals/fcidump.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xfci::integrals {

void write_fcidump(const std::string& path, const IntegralTables& tables,
                   std::size_t nalpha, std::size_t nbeta, double threshold) {
  std::ofstream os(path);
  XFCI_REQUIRE(os.good(), "cannot open " + path + " for writing");
  const std::size_t n = tables.norb;

  os << "&FCI NORB=" << n << ",NELEC=" << (nalpha + nbeta)
     << ",MS2=" << (static_cast<long>(nalpha) - static_cast<long>(nbeta))
     << ",\n  ORBSYM=";
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t h =
        tables.orbital_irreps.empty() ? 0 : tables.orbital_irreps[p];
    os << (h + 1) << ",";
  }
  os << "\n  ISYM=1,\n &END\n";

  char line[128];
  // Two-electron integrals, canonical 8-fold-unique quadruples.
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const double v = tables.eri(p, q, r, s);
          if (std::abs(v) < threshold) continue;
          std::snprintf(line, sizeof(line), "%23.16e %3zu %3zu %3zu %3zu\n",
                        v, p + 1, q + 1, r + 1, s + 1);
          os << line;
        }
  // One-electron integrals.
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      const double v = tables.h(p, q);
      if (std::abs(v) < threshold) continue;
      std::snprintf(line, sizeof(line), "%23.16e %3zu %3zu   0   0\n", v,
                    p + 1, q + 1);
      os << line;
    }
  // Core energy.
  std::snprintf(line, sizeof(line), "%23.16e   0   0   0   0\n",
                tables.core_energy);
  os << line;
  XFCI_REQUIRE(os.good(), "write error on " + path);
}

namespace {

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Whitespace of the "C" locale: space, \t, \n, \v, \f and \r.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// The integer spelled by [first, last), an optional sign and at least one
// digit; false when it overflows a long.
bool parse_long(const char* first, const char* last, long& v) {
  if (*first == '+') ++first;  // from_chars takes no '+'
  const auto [ptr, ec] = std::from_chars(first, last, v);
  return ec == std::errc() && ptr == last;
}

// Whether the decimal [first, last), which from_chars reported out of
// range, lies below one in magnitude.  Out of range means above DBL_MAX
// or below half the smallest denormal, so the decimal exponent of the
// leading nonzero digit tells an underflow from an overflow.
bool underflows(const char* first, const char* last) {
  long long exp10 = 0;  // 10^(exp10 - 1) <= |digits before the 'e'| < 10^exp10
  bool leading = true;
  bool fraction = false;
  const char* p = *first == '-' ? first + 1 : first;
  for (; p != last && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      fraction = true;
    } else if (leading && *p == '0') {
      if (fraction) --exp10;
    } else {
      leading = false;
      if (!fraction) ++exp10;
    }
  }
  if (p != last) {
    ++p;
    const bool negative = *p == '-';
    if (*p == '-' || *p == '+') ++p;
    long long e = 0;  // saturated far beyond any text's length
    for (; p != last; ++p) e = std::min(e * 10 + (*p - '0'), 1LL << 50);
    exp10 += negative ? -e : e;
  }
  return exp10 <= 0;
}

// Tokenizes the integral records exactly as `std::istream >> double` and
// `>> long` did in the "C" locale (libstdc++'s num_get), so the reader
// reads the same numbers it read when it was stream-based.  Each take
// skips whitespace, consumes the longest prefix num_get's grammar takes,
// and converts it with std::from_chars, which rounds correctly, as strtod
// did for >>.
class RecordScanner {
 public:
  explicit RecordScanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Skips whitespace; false at the end of the text.
  bool more() {
    skip_space();
    return p_ != end_;
  }

  /// [+-] digits [. digits] [eE [+-] digits]: an 'e' needs a digit before
  /// it, and the sign after it is consumed even when no digit follows.
  /// Beyond DBL_MAX is an error; below the smallest denormal reads as a
  /// signed zero, as strtod rounds it.
  bool take_double(double& v) {
    skip_space();
    const char* const first = p_;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    bool digits = skip_digits();
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      digits = skip_digits() || digits;
    }
    if (digits && p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      skip_digits();
    }
    // from_chars takes no '+'; "++" and "+-" leave an empty token.
    const char* const number =
        first != p_ && *first == '+' ? first + 1 : first;
    const auto [ptr, ec] = std::from_chars(number, p_, v);
    if (ec == std::errc::invalid_argument || ptr != p_) return false;
    if (ec == std::errc::result_out_of_range) {
      if (!underflows(number, p_)) return false;
      v = *number == '-' ? -0.0 : 0.0;
    }
    return true;
  }

  /// [+-] digits, within the range of long.
  bool take_long(long& v) {
    skip_space();
    const char* const first = p_;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    return skip_digits() && parse_long(first, p_, v);
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  /// Skips a run of digits; false when there was none.
  bool skip_digits() {
    const char* const begin = p_;
    while (p_ != end_ && is_digit(*p_)) ++p_;
    return p_ != begin;
  }

  const char* p_;
  const char* end_;
};

// Extracts "KEY=<integers>" from the namelist header (comma separated).
std::vector<long> namelist_values(const std::string& header,
                                  const std::string& key) {
  const auto pos = header.find(key + "=");
  XFCI_REQUIRE(pos != std::string::npos,
               "FCIDUMP header missing " + key);
  std::vector<long> out;
  std::size_t i = pos + key.size() + 1;
  while (i < header.size()) {
    while (i < header.size() && is_space(header[i])) ++i;
    std::size_t j = i;
    if (j < header.size() && (header[j] == '-' || header[j] == '+')) ++j;
    const std::size_t digits_begin = j;
    while (j < header.size() && is_digit(header[j])) ++j;
    if (j == digits_begin) break;  // no further integer
    long v = 0;
    XFCI_REQUIRE(parse_long(header.data() + i, header.data() + j, v),
                 "value out of range for " + key);
    out.push_back(v);
    while (j < header.size() && is_space(header[j])) ++j;
    if (j < header.size() && header[j] == ',')
      i = j + 1;
    else
      break;
  }
  XFCI_REQUIRE(!out.empty(), "empty value list for " + key);
  return out;
}

// Number of "KEY=" declarations in the header.  A duplicate declaration is
// ambiguous (namelist_values silently takes the first), so the reader
// rejects it instead of guessing which one the producer meant.
std::size_t namelist_count(const std::string& header,
                           const std::string& key) {
  std::size_t n = 0;
  const std::string needle = key + "=";
  for (auto pos = header.find(needle); pos != std::string::npos;
       pos = header.find(needle, pos + 1))
    ++n;
  return n;
}

void require_unique(const std::string& header, const std::string& key) {
  XFCI_REQUIRE(namelist_count(header, key) <= 1,
               "duplicate " + key + " declaration in FCIDUMP header");
}

}  // namespace

FcidumpData read_fcidump(const std::string& path,
                         const std::string& group_name) {
  return read_fcidump_text(obs::read_file(path), group_name);
}

FcidumpData read_fcidump_text(std::string_view text,
                              const std::string& group_name) {
  // Header: every line up to and including the first one holding &END,
  // &end or '/'.
  std::string header;
  std::size_t pos = 0;
  bool header_done = false;
  while (!header_done && pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = std::min(eol + 1, text.size());
    header.append(line).push_back(' ');
    header_done = line.find("&END") != std::string_view::npos ||
                  line.find("&end") != std::string_view::npos ||
                  line.find('/') != std::string_view::npos;
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
  XFCI_REQUIRE(ms2 >= -nelec && ms2 <= nelec && (nelec + ms2) % 2 == 0,
               "invalid NELEC/MS2 combination");

  FcidumpData data;
  data.tables = IntegralTables::empty(static_cast<std::size_t>(norb));
  data.nalpha = static_cast<std::size_t>((nelec + ms2) / 2);
  data.nbeta = static_cast<std::size_t>((nelec - ms2) / 2);
  data.tables.group = chem::PointGroup::make(group_name);

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

  // Integral records.
  RecordScanner in(text.substr(pos));
  while (in.more()) {
    double v = 0.0;
    XFCI_REQUIRE(in.take_double(v),
                 "unparsable text in FCIDUMP integral records");
    long i = 0, j = 0, k = 0, l = 0;
    XFCI_REQUIRE(in.take_long(i) && in.take_long(j) && in.take_long(k) &&
                     in.take_long(l),
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

}  // namespace xfci::integrals
