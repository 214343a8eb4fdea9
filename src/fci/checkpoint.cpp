#include "fci/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xfci::fci {
namespace {

constexpr char kMagic[8] = {'X', 'F', 'C', 'I', 'C', 'K', 'P', 'T'};

std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x00000100000001B3ull;
  }
  return h;
}

template <typename T>
void append(std::vector<unsigned char>& buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const unsigned char*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

void append_array(std::vector<unsigned char>& buf,
                  const std::vector<double>& v) {
  append(buf, static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  buf.insert(buf.end(), p, p + v.size() * sizeof(double));
}

// Bounds-checked deserialization cursor: every read validates the
// remaining length first, so a truncated file fails with a clean error
// instead of reading past the buffer.
struct Cursor {
  const unsigned char* p;
  std::size_t left;
  const std::string& path;

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    XFCI_REQUIRE(left >= sizeof(T),
                 "checkpoint truncated: " + path);
    T value;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return value;
  }

  std::vector<double> take_array() {
    const auto n = take<std::uint64_t>();
    XFCI_REQUIRE(left / sizeof(double) >= n,
                 "checkpoint truncated: " + path);
    std::vector<double> v(static_cast<std::size_t>(n));
    // An empty vector's data() may be null, which memcpy must not get.
    if (!v.empty()) std::memcpy(v.data(), p, v.size() * sizeof(double));
    p += v.size() * sizeof(double);
    left -= v.size() * sizeof(double);
    return v;
  }
};

}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& ck) {
  std::vector<unsigned char> buf;
  buf.reserve(64 + sizeof(double) * (ck.c.size() + ck.energy_history.size() +
                                     ck.residual_history.size()));
  buf.insert(buf.end(), kMagic, kMagic + sizeof(kMagic));
  append(buf, Checkpoint::kVersion);
  append(buf, ck.method);
  append(buf, ck.iteration);
  append(buf, static_cast<std::uint8_t>(ck.have_prev ? 1 : 0));
  append(buf, ck.lambda);
  append(buf, ck.e_prev);
  append(buf, ck.b_prev);
  append(buf, ck.tt_prev);
  append(buf, ck.s2_prev);
  append(buf, ck.lambda_prev);
  append(buf, ck.last_e);
  append_array(buf, ck.c);
  append_array(buf, ck.energy_history);
  append_array(buf, ck.residual_history);
  append(buf, fnv1a(buf.data(), buf.size()));

  // Atomic publish: a crash between fwrite and rename leaves the previous
  // checkpoint untouched; rename over an existing file is atomic on POSIX.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  XFCI_REQUIRE(f != nullptr, "cannot open checkpoint file: " + tmp);
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !closed) {
    std::remove(tmp.c_str());
    XFCI_REQUIRE(false, "short write to checkpoint file: " + tmp);
  }
  XFCI_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot publish checkpoint: " + path);
}

Checkpoint load_checkpoint(const std::string& path) {
  const std::string file = obs::read_file(path);
  const auto* buf = reinterpret_cast<const unsigned char*>(file.data());

  XFCI_REQUIRE(file.size() >= sizeof(kMagic) + sizeof(std::uint64_t),
               "checkpoint truncated: " + path);
  XFCI_REQUIRE(std::memcmp(buf, kMagic, sizeof(kMagic)) == 0,
               "not a checkpoint file: " + path);

  // Checksum covers everything before the trailing u64.
  const std::size_t body = file.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, buf + body, sizeof(stored));
  XFCI_REQUIRE(fnv1a(buf, body) == stored,
               "checkpoint checksum mismatch (corrupt file): " + path);

  Cursor cur{buf + sizeof(kMagic), body - sizeof(kMagic), path};
  const auto version = cur.take<std::uint32_t>();
  XFCI_REQUIRE(version == Checkpoint::kVersion,
               "unsupported checkpoint version: " + path);
  Checkpoint ck;
  ck.method = cur.take<std::uint32_t>();
  ck.iteration = cur.take<std::uint64_t>();
  ck.have_prev = cur.take<std::uint8_t>() != 0;
  ck.lambda = cur.take<double>();
  ck.e_prev = cur.take<double>();
  ck.b_prev = cur.take<double>();
  ck.tt_prev = cur.take<double>();
  ck.s2_prev = cur.take<double>();
  ck.lambda_prev = cur.take<double>();
  ck.last_e = cur.take<double>();
  ck.c = cur.take_array();
  ck.energy_history = cur.take_array();
  ck.residual_history = cur.take_array();
  XFCI_REQUIRE(cur.left == 0,
               "checkpoint carries trailing bytes: " + path);
  return ck;
}

}  // namespace xfci::fci
