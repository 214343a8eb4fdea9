#pragma once
// Service-layer setup cache (DESIGN.md §15).
//
// The expensive half of a small FCI job is not the eigensolver — it is
// parsing the integral source and building the SolveSetup (CI space,
// sigma context, DGEMM operand matrices).  A multi-tenant engine running
// many jobs over few distinct Hamiltonians amortizes that cost by keying
// built setups on (integral source hash, nalpha, nbeta, irrep, algorithm,
// Ms = 0 choice) and handing the same shared_ptr<const SolveSetup> to
// every job that asks for it.
//
// Sharding: keys are distributed over N independent shards, each a
// sync::Mutex + ordered std::map (bitwise-deterministic iteration; the
// determinism rule bans unordered containers).  A build runs *under* its
// shard lock, so two jobs racing on the same key serialize — the loser
// waits and then hits — and the hit/miss counts for a given job stream
// are deterministic.  Builds for keys on different shards proceed in
// parallel.
//
// Eviction: each shard owns an equal slice of the byte budget and evicts
// its least-recently-used entries when an insert overflows it.  Evicted
// setups stay alive for as long as running sessions hold their
// shared_ptr; the cache only drops its reference.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "common/telemetry.hpp"
#include "fci/solve_setup.hpp"

namespace xfci::serve {

/// XXH64 of a byte string (four 64-bit lanes over 32-byte stripes, so a
/// warm job hashes its FCIDUMP image at memory speed); the engine uses it
/// to fingerprint integral sources (FCIDUMP images, serialized tables)
/// without parsing them.  Any alignment of `bytes` is fine.  Passing a
/// previous hash as `seed` chains several byte spans into one fingerprint.
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed = 0);

/// Sentinel for key fields a file-based job takes from the source itself
/// (NELEC/MS2/ISYM): the source hash already pins those values, so the
/// cache never needs to parse the header just to look up a hit.
inline constexpr std::size_t kFromSource = static_cast<std::size_t>(-1);

/// Identity of a shareable SolveSetup.  Two jobs with equal keys are
/// guaranteed to want bitwise-identical setups.
struct SetupKey {
  std::uint64_t source_hash = 0;  ///< hash of the raw integral source
  std::size_t nalpha = kFromSource;
  std::size_t nbeta = kFromSource;
  std::size_t irrep = kFromSource;
  fci::Algorithm algorithm = fci::Algorithm::kDgemm;

  friend bool operator<(const SetupKey& a, const SetupKey& b) {
    return std::tie(a.source_hash, a.nalpha, a.nbeta, a.irrep, a.algorithm) <
           std::tie(b.source_hash, b.nalpha, b.nbeta, b.irrep, b.algorithm);
  }
  friend bool operator==(const SetupKey& a, const SetupKey& b) {
    return !(a < b) && !(b < a);
  }
};

/// Aggregate counters over all shards (one consistent snapshot per shard;
/// the totals are exact once the engine has quiesced).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t resident_bytes = 0;
  std::size_t resident_entries = 0;
};

class SetupCache {
 public:
  using Builder = std::function<std::shared_ptr<const fci::SolveSetup>()>;

  /// `byte_budget` = 0 means unlimited; otherwise each of the
  /// `num_shards` shards evicts LRU entries beyond budget / num_shards
  /// bytes (a shard always retains at least its most recent entry).
  explicit SetupCache(std::size_t num_shards = 8,
                      std::size_t byte_budget = 0);

  SetupCache(const SetupCache&) = delete;
  SetupCache& operator=(const SetupCache&) = delete;

  /// Returns the cached setup for `key`, building it via `build` on a
  /// miss.  `build` runs under the shard lock: concurrent requests for
  /// the same key build exactly once.  `hit`, when non-null, reports
  /// whether this call was served from cache.
  std::shared_ptr<const fci::SolveSetup> get_or_build(
      const SetupKey& key, const Builder& build, bool* hit = nullptr);

  /// Drops every cached entry (running sessions keep theirs alive).
  void clear();

  CacheStats stats() const;
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const fci::SolveSetup> setup;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };
  struct Shard {
    mutable sync::Mutex mu;
    std::map<SetupKey, Entry> entries XFCI_GUARDED_BY(mu);
    std::uint64_t tick XFCI_GUARDED_BY(mu) = 0;
    std::size_t bytes XFCI_GUARDED_BY(mu) = 0;
    std::size_t hits XFCI_GUARDED_BY(mu) = 0;
    std::size_t misses XFCI_GUARDED_BY(mu) = 0;
    std::size_t evictions XFCI_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const SetupKey& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_budget_ = 0;  ///< per-shard byte cap (0 = unlimited)

  // Live telemetry mirrors of the shard counters, updated inside the
  // same critical sections that bump them (DESIGN.md §16): the scrape
  // and the final report consume one event stream, so they agree at
  // quiescence.  The handles drop writes while telemetry is disabled.
  obs::Counter tm_hits_;
  obs::Counter tm_misses_;
  obs::Counter tm_evictions_;
  obs::Gauge tm_resident_bytes_;
  obs::Gauge tm_resident_entries_;
};

}  // namespace xfci::serve
