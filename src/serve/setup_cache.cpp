#include "serve/setup_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/metric_names.hpp"

namespace xfci::serve {

namespace {

// XXH64 (Collet, xxHash specification v0.8): four independent 64-bit
// lanes over 32-byte stripes, then 8-, 4- and 1-byte tails.  Its value is
// fixed by the specification, so cache keys are the same on every
// platform and run (std::hash gives no such promise).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Little-endian load of `n` bytes from any alignment, byte by byte: the
// specification fixes the byte order, and the compiler folds it into one
// load.
std::uint64_t load_le(const unsigned char* p, int n) {
  std::uint64_t v = 0;
  for (int b = n - 1; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xxh_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const unsigned char* const end = p + bytes.size();
  std::uint64_t h = seed + kPrime5;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, load_le(p, 8));
      v2 = xxh_round(v2, load_le(p + 8, 8));
      v3 = xxh_round(v3, load_le(p + 16, 8));
      v4 = xxh_round(v4, load_le(p + 24, 8));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h ^= xxh_round(0, load_le(p, 8));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= load_le(p, 4) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

SetupCache::SetupCache(std::size_t num_shards, std::size_t byte_budget) {
  XFCI_REQUIRE(num_shards >= 1, "SetupCache needs at least one shard");
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  shard_budget_ = byte_budget == 0
                      ? 0
                      : std::max<std::size_t>(1, byte_budget / num_shards);
  obs::Registry& reg = obs::telemetry();
  tm_hits_ = reg.counter(obs::metric::kServeCacheHits);
  tm_misses_ = reg.counter(obs::metric::kServeCacheMisses);
  tm_evictions_ = reg.counter(obs::metric::kServeCacheEvictions);
  tm_resident_bytes_ = reg.gauge(obs::metric::kServeCacheResidentBytes);
  tm_resident_entries_ = reg.gauge(obs::metric::kServeCacheResidentEntries);
}

SetupCache::Shard& SetupCache::shard_for(const SetupKey& key) {
  std::uint64_t h = key.source_hash;
  h = mix(h, key.nalpha);
  h = mix(h, key.nbeta);
  h = mix(h, key.irrep);
  h = mix(h, static_cast<std::uint64_t>(key.algorithm));
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const fci::SolveSetup> SetupCache::get_or_build(
    const SetupKey& key, const Builder& build, bool* hit) {
  Shard& shard = shard_for(key);
  sync::MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    ++shard.hits;
    tm_hits_.inc();
    it->second.last_use = ++shard.tick;
    if (hit != nullptr) *hit = true;
    return it->second.setup;
  }
  ++shard.misses;
  tm_misses_.inc();
  if (hit != nullptr) *hit = false;
  // Build under the shard lock: a second request for this key waits here
  // and then takes the hit path instead of duplicating the build.
  std::shared_ptr<const fci::SolveSetup> setup = build();
  XFCI_REQUIRE(setup != nullptr, "SetupCache builder returned null");
  Entry entry;
  entry.setup = setup;
  entry.bytes = setup->memory_bytes();
  entry.last_use = ++shard.tick;
  shard.bytes += entry.bytes;
  tm_resident_bytes_.add(static_cast<double>(entry.bytes));
  tm_resident_entries_.add(1.0);
  shard.entries.emplace(key, std::move(entry));
  // LRU eviction against this shard's slice of the byte budget.  The
  // entry just inserted is the most recently used, so it survives even
  // when it alone exceeds the budget (a cache that cannot hold the
  // working item would thrash forever).
  while (shard_budget_ != 0 && shard.bytes > shard_budget_ &&
         shard.entries.size() > 1) {
    auto victim = shard.entries.begin();
    for (auto e = shard.entries.begin(); e != shard.entries.end(); ++e)
      if (e->second.last_use < victim->second.last_use) victim = e;
    shard.bytes -= victim->second.bytes;
    ++shard.evictions;
    tm_evictions_.inc();
    tm_resident_bytes_.add(-static_cast<double>(victim->second.bytes));
    tm_resident_entries_.add(-1.0);
    shard.entries.erase(victim);
  }
  return setup;
}

void SetupCache::clear() {
  for (auto& shard : shards_) {
    sync::MutexLock lock(shard->mu);
    tm_resident_bytes_.add(-static_cast<double>(shard->bytes));
    tm_resident_entries_.add(-static_cast<double>(shard->entries.size()));
    shard->entries.clear();
    shard->bytes = 0;
  }
}

CacheStats SetupCache::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    sync::MutexLock lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.resident_bytes += shard->bytes;
    s.resident_entries += shard->entries.size();
  }
  return s;
}

}  // namespace xfci::serve
