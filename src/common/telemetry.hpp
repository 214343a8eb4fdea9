#pragma once
// Live telemetry: a process-wide metrics registry of counters, gauges,
// and log-bucketed latency histograms (DESIGN.md §16).
//
// Design, following the obs::Tracer discipline (DESIGN.md §11):
//
//  * Hot-path writes are lock-free single-writer updates.  Each thread
//    owns one cache-line-padded *lane* of atomic<uint64_t> cells per
//    registry; a counter increment is a relaxed load-add-store on the
//    caller's own cell, which is exact (never lossy) because no other
//    thread ever writes that cell.  Readers (snapshot()) sum the cells
//    with relaxed loads — concurrent with writers, tsan-clean, and
//    monotonic across snapshots because each cell only grows.
//
//  * Disabled telemetry costs one predicted branch: every handle checks
//    Registry::enabled() (a relaxed atomic load) before touching a lane.
//    A run without --telemetry flags is bitwise identical to an
//    uninstrumented one: the registry only *observes* values handed to
//    it (the caller reads the clock), it never charges simulated time or
//    perturbs iteration order.
//
//  * Registration (counter()/gauge()/histogram()) is mutex-guarded and
//    deduplicating: the same (name, labels) pair always resolves to the
//    same cells, so two Engine instances sharing the global registry
//    accumulate into one series.  Registration is expected at
//    construction time, not in inner loops.
//
//  * Histograms are log-bucketed: bounds 1e-6 s doubling up to ~8.4 s
//    (kHistogramBounds of them) plus an overflow bucket, one scheme for
//    every histogram so snapshots merge bucket-by-bucket.
//
//  * Snapshots are plain data, mergeable across registries/processes:
//    counters and buckets add, gauges take the max.  Rendering is
//    deterministic: series sorted by (name, labels), doubles through
//    json_number.  The xfci-telemetry-v1 JSON isolates the wall-clock
//    stamp in one field ("wall_unix_seconds") so the rest diffs cleanly.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"

namespace xfci::obs {

/// One label on a metric series.  Keys come from metric_names.hpp
/// constants (the `telemetry` lint rule); values may be dynamic (a
/// kernel name, a priority class).
struct Label {
  const char* key;
  std::string value;
};

/// Name + help for one metric family (defined in metric_names.hpp).
namespace metric {
struct MetricSpec;
}

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Number of finite histogram bucket bounds; bound i is 1e-6 * 2^i
/// seconds, so the last is ~8.4 s and slower events land in overflow.
inline constexpr std::size_t kHistogramBounds = 24;

/// One series in a snapshot: resolved name/labels plus the accumulated
/// value for its kind.  Plain data — safe to ship across processes.
struct SnapshotMetric {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::pair<std::string, std::string>> labels;
  std::uint64_t value = 0;  ///< counters
  double gauge = 0.0;       ///< gauges
  std::vector<std::uint64_t> buckets;  ///< histograms: bounds + overflow
  double sum = 0.0;                    ///< histograms: sum of observations
  std::uint64_t count = 0;             ///< histograms: total observations
};

/// A consistent-enough view of a registry: each cell read once, sums
/// monotonic across successive snapshots.  Sorted by (name, labels).
struct Snapshot {
  std::vector<SnapshotMetric> metrics;
  /// Find a series by family name and optional rendered label filter
  /// (exact key=value matches); nullptr when absent.
  const SnapshotMetric* find(const std::string& name,
                             const std::vector<Label>& labels = {}) const;
};

/// Pointwise merge: counters/buckets/sums add, gauges take max.  The
/// integer parts are exactly associative and commutative; sums are
/// floating-point adds in series order.
Snapshot merge(const Snapshot& a, const Snapshot& b);

/// The shared log-spaced bucket bounds, in seconds (kHistogramBounds).
const std::vector<double>& histogram_bounds();

/// xfci-telemetry-v1 JSON document.  `wall_unix_seconds` is the only
/// wall-clock-derived field and is isolated at the top so the remainder
/// of the document is deterministic for a deterministic run.
std::string telemetry_json(const Snapshot& snap, double wall_unix_seconds);

/// Prometheus text exposition (text/plain; version=0.0.4): # HELP and
/// # TYPE per family, histograms as cumulative `_bucket{le=...}` series
/// plus `_sum`/`_count`.
std::string prometheus_text(const Snapshot& snap);

class Registry;

/// Monotonic counter handle.  Value-semantic, 16 bytes; cheap to store
/// per instrumented object.  A default-constructed handle drops writes.
class Counter {
 public:
  Counter() = default;
  inline void inc(std::uint64_t n = 1);

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins gauge handle (a single global cell, not lanes — a
/// gauge is a level, so per-thread accumulation has no meaning).
class Gauge {
 public:
  Gauge() = default;
  inline void set(double v);
  inline void add(double delta);

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t cell) : reg_(reg), cell_(cell) {}
  Registry* reg_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Log-bucketed latency histogram handle.  observe() takes seconds.
class Histogram {
 public:
  Histogram() = default;
  inline void observe(double seconds);

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t base) : reg_(reg), base_(base) {}
  Registry* reg_ = nullptr;
  std::uint32_t base_ = 0;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// True once set_enabled(true); every handle checks this first so
  /// disabled telemetry costs one predicted branch.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Register (or look up) a series.  Deduplicating: the same
  /// (spec.name, labels) always returns a handle onto the same cells.
  /// Driver-construction-time API — mutex-guarded, not for inner loops.
  Counter counter(const metric::MetricSpec& spec,
                  std::vector<Label> labels = {});
  Gauge gauge(const metric::MetricSpec& spec, std::vector<Label> labels = {});
  Histogram histogram(const metric::MetricSpec& spec,
                      std::vector<Label> labels = {});

  /// Reads every registered series.  Safe concurrently with writers;
  /// counter sums are monotonic across successive snapshots.
  Snapshot snapshot() const;

  /// Registered series count (for tests).
  std::size_t num_metrics() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  // Lane geometry: one fixed-capacity block of cells per writer thread.
  // Fixed capacity keeps cell addresses stable without locking the hot
  // path; registration fails loudly if a build ever outgrows it.
  static constexpr std::size_t kLaneCells = 2048;
  static constexpr std::size_t kGaugeCells = 256;
  // Cells per histogram: one per bound, one overflow, one double-bits sum.
  static constexpr std::size_t kHistCells = kHistogramBounds + 2;

  struct alignas(64) Lane {
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  };
  struct MetricInfo {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::pair<std::string, std::string>> labels;
    std::uint32_t slot = 0;  // lane cell base (counter/histogram) or
                             // gauge cell index
  };

  inline void lane_add(std::uint32_t slot, std::uint64_t n);
  inline void lane_observe(std::uint32_t base, double seconds);
  Lane* this_thread_lane();
  Lane* register_lane();
  std::uint32_t intern(const metric::MetricSpec& spec, MetricKind kind,
                       std::vector<Label>&& labels, std::uint32_t cells);

  const std::uint64_t id_;  // process-unique, guards thread-local reuse
  std::atomic<bool> enabled_{false};
  // Gauge cells live outside the lanes: single global slot per gauge,
  // fixed capacity so set()/add() never race a reallocation.
  std::unique_ptr<std::atomic<std::uint64_t>[]> gauges_;

  mutable sync::Mutex mu_;
  std::vector<MetricInfo> metrics_ XFCI_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Lane>> lanes_ XFCI_GUARDED_BY(mu_);
  std::uint32_t next_cell_ XFCI_GUARDED_BY(mu_) = 0;
  std::uint32_t next_gauge_ XFCI_GUARDED_BY(mu_) = 0;
};

// --- hot-path inline bodies ---------------------------------------------

inline void Counter::inc(std::uint64_t n) {
  if (reg_ == nullptr || !reg_->enabled()) return;  // the predicted branch
  reg_->lane_add(slot_, n);
}

inline void Gauge::set(double v) {
  if (reg_ == nullptr || !reg_->enabled()) return;
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v, "double must be 64-bit");
  __builtin_memcpy(&bits, &v, sizeof bits);
  reg_->gauges_[cell_].store(bits, std::memory_order_relaxed);
}

inline void Gauge::add(double delta) {
  if (reg_ == nullptr || !reg_->enabled()) return;
  std::atomic<std::uint64_t>& cell = reg_->gauges_[cell_];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  for (;;) {
    double cur;
    __builtin_memcpy(&cur, &seen, sizeof cur);
    const double next = cur + delta;
    std::uint64_t bits;
    __builtin_memcpy(&bits, &next, sizeof bits);
    if (cell.compare_exchange_weak(seen, bits, std::memory_order_relaxed)) {
      return;
    }
  }
}

inline void Histogram::observe(double seconds) {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->lane_observe(base_, seconds);
}

inline void Registry::lane_add(std::uint32_t slot, std::uint64_t n) {
  std::atomic<std::uint64_t>& cell = this_thread_lane()->cells[slot];
  // Single-writer cell: a relaxed load-add-store is exact (no other
  // thread ever stores here), cheaper than a lock-prefixed fetch_add.
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

inline void Registry::lane_observe(std::uint32_t base, double seconds) {
  const std::vector<double>& bounds = histogram_bounds();
  std::size_t b = 0;
  while (b < bounds.size() && seconds > bounds[b]) ++b;  // <=24 compares
  Lane* lane = this_thread_lane();
  std::atomic<std::uint64_t>& bucket = lane->cells[base + b];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  std::atomic<std::uint64_t>& sum_cell =
      lane->cells[base + kHistogramBounds + 1];
  std::uint64_t bits = sum_cell.load(std::memory_order_relaxed);
  double sum;
  __builtin_memcpy(&sum, &bits, sizeof sum);
  sum += seconds;
  __builtin_memcpy(&bits, &sum, sizeof bits);
  sum_cell.store(bits, std::memory_order_relaxed);
}

/// The process-wide registry serve/fci/linalg/parallel instrument
/// against.  Leaked on purpose: worker threads may still hold lane
/// pointers at static-destruction time.  Disabled until a driver's
/// --telemetry flag calls set_enabled(true).
Registry& telemetry();

}  // namespace xfci::obs
