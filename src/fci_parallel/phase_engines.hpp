#pragma once
// Backend-agnostic phase engines of the distributed sigma build.
//
// ParallelSigma (parallel_fci.hpp) is a thin composition of three engines,
// each speaking only the pv::Ddi one-sided interface -- never a concrete
// backend:
//
//   RecoveryEngine   dropped-op retransmission (ack-timeout retries) and
//                    survivor redistribution of the column split, charged
//                    to the recovery row; implemented once for every
//                    backend.
//   SameSpinEngine   the static phases: beta-side same-spin + one-electron
//                    on locally transposed columns, the alpha-side twin on
//                    each rank's rows in place (or the replicated MOC
//                    variant) -- or the Ms=0 "Vector Symm." fold.
//   MixedSpinEngine  the dynamic alpha-beta phase: aggregated (N-1)-string
//                    tasks over the shared DLB counter, one-sided gather /
//                    staged accumulate with per-item atomic commit
//                    (Ddi::run_pool), plus the MOC per-excitation-gather
//                    baseline.
//
// The engines share one PhaseState: the sigma context, the column
// distribution, the options, the PhaseBreakdown they report into and the
// per-slot SigmaStats each kernel call's counts are added to.
// Phase rows are metered with Ddi::barrier() deltas, so the same engine
// code yields simulated Table-3 rows on SimulatedDdi and wall-clock rows
// on ThreadsDdi.  Each window is recorded once (record_window): the row's
// delta and the control-track span come from the same two timestamps.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fci/sigma.hpp"
#include "fci_parallel/distribution.hpp"
#include "fci_parallel/options.hpp"
#include "parallel/ddi.hpp"
#include "parallel/task_pool.hpp"

namespace xfci::fcp {

/// One charge slot's kernel counts, padded to a cache line so workers
/// counting into neighbouring slots never false-share.
struct alignas(64) SlotStats {
  fci::SigmaStats stats;
};

/// State shared by the phase engines of one ParallelSigma: references into
/// the operator's members, so engines see redistribution and breakdown
/// updates immediately.
struct PhaseState {
  const fci::SigmaContext& ctx;
  const ParallelOptions& options;
  pv::Ddi& ddi;
  ColumnDistribution& dist;
  std::vector<std::uint8_t>& dist_alive;      // mask dist was built with
  const std::vector<std::size_t>& block_of_halpha;
  PhaseBreakdown& breakdown;
  /// One per charge slot (Ddi::num_slots()), written slot-disjointly as
  /// the ledger rows are: static phases by rank id, pool stages by worker.
  std::vector<SlotStats>& slot_stats;
};

/// Records one phase window [t0, t1]: adds t1 - t0 to `row` and emits the
/// control-track span `name` over the same two timestamps, so a Table-3
/// row always equals the summed durations of its spans.
void record_window(pv::Ddi& ddi, double& row, const char* name, double t0,
                   double t1, std::string args = {},
                   const char* category = "phase");

/// Fault recovery: bounded one-sided retransmission and graceful
/// degradation of the column split onto the survivors.
class RecoveryEngine {
 public:
  explicit RecoveryEngine(const PhaseState& s) : s_(s) {}

  /// Issues one one-sided op with bounded retransmission: a transient drop
  /// costs the requester an ack timeout and a retry; returns kDropped only
  /// when the requester or the target is dead (the caller resolves that by
  /// redistributing / reassigning).
  pv::OpOutcome robust_one_sided(bool accumulate, std::size_t rank,
                                 std::size_t owner, double words);

  /// Graceful degradation: if the alive mask changed since the distribution
  /// was last built, rebuilds the column split over the survivors and
  /// charges them the refetch of the lost blocks.  No-op (and free) while
  /// every rank is alive -- which on a fault-free backend is always.
  void maybe_redistribute();

  /// Rebuilds the column split over the current survivors without charging
  /// or tracing anything: a rank process starting a pool adopts the split
  /// whose refetch the driver pays, instead of the copy it was forked with.
  void adopt_survivor_split();

 private:
  PhaseState s_;
};

/// The static same-spin phases (paper Fig. 2a, the "Beta-beta" rows).
class SameSpinEngine {
 public:
  explicit SameSpinEngine(const PhaseState& s) : s_(s) {}

  /// Local transpose in -> beta-index same-spin + one-electron kernels ->
  /// transpose back ("Vector Symm." + "Beta-beta"): sigma += z.  A nonzero
  /// `parity` (P c = parity * c exactly) adds the Ms = 0 "Vector Symm."
  /// fold (paper Table 3), sigma += parity * P z, read from the ranks'
  /// local transposes of z: one distributed transpose that replaces the
  /// alpha-side phase.
  void beta_side(const fci::SigmaContext& tctx, std::span<const double> c,
                 std::span<double> sigma, bool moc_kernel, int parity);

  /// The same routine on the other spin, on each rank's beta rows of every
  /// alpha column, read and written in place (the distributed transposes
  /// that would move them are charged) -- or the replicated MOC variant
  /// over a collective gather.
  void alpha_side(std::span<const double> c, std::span<double> sigma,
                  bool moc_kernel);

 private:
  PhaseState s_;
};

/// The dynamic mixed-spin phase (paper Fig. 2b, the "Alpha-beta" row).
/// The item list, task pool and pool program are built once, in the
/// constructor: a process backend runs one program per backend.
class MixedSpinEngine {
 public:
  MixedSpinEngine(const PhaseState& s, RecoveryEngine& recovery);
  // The pool program captures `this`.
  MixedSpinEngine(const MixedSpinEngine&) = delete;
  MixedSpinEngine& operator=(const MixedSpinEngine&) = delete;

  /// DGEMM algorithm: aggregated alpha (N-1)-string tasks through the DLB
  /// counter, one-sided gather / staged accumulate, per-item atomic commit
  /// (Ddi::run_pool handles scheduling and task-level recovery).
  void dgemm(std::span<const double> c, std::span<double> sigma);

  /// MOC baseline: one remote column gather per alpha single excitation
  /// (Table 1 costs), no task-level recovery by design.
  void moc(std::span<const double> c, std::span<double> sigma);

 private:
  /// Reusable per-worker column pointers (workers never share a slot).
  struct WorkerScratch {
    std::vector<const double*> ccols;
    std::vector<double*> scols;
  };

  // An item's payload is its accumulation buffer: one sigma column of
  // nb doubles per reachable entry of the item's alpha creation list, in
  // list order.  The layout is a pure function of the CI space, so the
  // driver and a forked rank agree on it without exchanging it.
  /// Payload length of item `it` (no allocation).
  std::size_t stage_words(std::size_t it) const;
  /// Gathers, computes and charges item `it` on `worker` into `payload`,
  /// reading C's columns where they lie in `c`; returns false when the
  /// worker died mid-item (payload discarded).
  bool stage_item(std::size_t it, std::size_t worker,
                  std::span<const double> c, std::span<double> payload);
  /// Accumulates item `it`'s payload into sigma (the atomic commit).
  void commit_item(std::size_t it, std::span<const double> payload);
  /// Delivers `worker`'s one-sided op on column `col` of block `b` (a
  /// DDI_ACC when `accumulate`, else a DDI_GET) to the column's current
  /// owner, retargeting when the owner dies; false when the worker died.
  bool deliver(bool accumulate, std::size_t worker, std::size_t b,
               std::size_t col);

  PhaseState s_;
  RecoveryEngine& recovery_;
  /// The alpha (N-1)-string tasks (irrep, index), in global item order.
  std::vector<std::pair<std::size_t, std::size_t>> items_;
  pv::TaskPool pool_;
  std::shared_ptr<const pv::Ddi::PoolHooks> hooks_;
  std::vector<WorkerScratch> scratch_;  // one per worker
  /// The current dgemm call's output; only the driver-side commit reads it.
  std::span<double> sigma_;
};

}  // namespace xfci::fcp
