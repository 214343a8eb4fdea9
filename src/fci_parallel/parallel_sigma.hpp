#pragma once
// The distributed sigma (paper section 3), layered exactly like the
// paper's FCI -> DDI -> SHMEM stack: ParallelSigma's phases speak only the
// pv::Ddi one-sided interface, never a concrete backend, and the
// ParallelOptions select which Ddi backend (simulated Cray-X1,
// shared-memory threads, or forked processes over POSIX shm) supplies
// transport, clocks and failure semantics.
//
// It is the library's one sigma orchestration: fci::make_sigma and
// SolveSetup::make_sigma build it on one rank and one thread of the
// threads backend, which starts no thread and models no cost.  It lives
// in xfci_fci for that reason; run_parallel_fci and the run report
// (parallel_fci.hpp) stay in xfci_fcipar.
//
// Data layout: the CI coefficient matrix is distributed by alpha columns,
// each symmetry block separately (Fig. 1).  One sigma evaluation runs the
// phases:
//
//   DGEMM algorithm (the paper's):
//    1. local transpose of the rank's block           ["Vector Symm."]
//    2. beta-side same-spin + one-electron, static,
//       zero communication (Fig. 2a)                  ["Beta-beta"]
//    3. transpose back                                ["Vector Symm."]
//    4. distributed transpose to the beta-column
//       layout (all-to-all)                           ["Vector Symm."]
//    5. alpha-side same-spin + one-electron, static   ["Beta-beta" bucket:
//       (the same routine on the other spin)           reported as
//                                                      alpha-side]
//    6. distributed transpose back                    ["Vector Symm."]
//       -- or, when P C = eps C exactly (every Ms = 0 solve), phases
//       4-6 are the parity fold: one distributed transpose adds eps P z,
//       read from the ranks' transposed beta-side z   ["Vector Symm."]
//    7. mixed-spin over alpha (N-1)-string tasks,
//       dynamic load balancing with task aggregation,
//       one-sided gather / accumulate (Fig. 2b)       ["Alpha-beta"]
//
//   Both same-spin sides run one path (paper section 3.3: "the transposed
//   local C and sigma coefficients matrices are used"): each rank copies
//   its share of every block into compact local matrices -- its alpha
//   columns on the beta side, its beta rows under the transposed space's
//   split on the alpha side, the rows a distributed transpose would
//   deliver -- runs the kernels on them and adds its sigma copy back.
//
//   MOC baseline: collective gather of the full vector, same-spin element
//   generation replicated on every rank (the historical non-scaling
//   practice the paper eliminates), mixed-spin with one remote column
//   gather per alpha single excitation (Table 1 costs).
//
// Every rank's arithmetic is executed for real; on the simulated backend
// the x1::CostModel charges simulated time.  Phase rows are metered with
// Ddi::barrier() deltas, so the same code yields simulated Table-3 rows
// on SimulatedDdi and wall-clock rows on ThreadsDdi; each window is
// recorded once (record_window), its row delta and its control-track span
// from the same two timestamps.  Results are bit-identical for any rank
// count and across backends, P = 1 included.

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

/// SigmaOperator whose apply() runs the distributed algorithm through the
/// pv::Ddi backend.  Bitwise identical at every rank count, thread count
/// and backend.
///
/// stats() sums the SigmaStats of every kernel call the driver's address
/// space runs (SigmaOperator::stats).  On the process backend the
/// mixed-spin stages run in the rank processes, so there it counts only
/// the static phases.  Work redone after an injected fault counts again.
class ParallelSigma : public fci::SigmaOperator {
 public:
  ParallelSigma(const fci::SigmaContext& context,
                const ParallelOptions& options);
  // The pool program captures `this`.
  ParallelSigma(const ParallelSigma&) = delete;
  ParallelSigma& operator=(const ParallelSigma&) = delete;

  void apply(std::span<const double> c, std::span<double> sigma) override;
  const fci::CiSpace& space() const override { return ctx_.space(); }

  /// The communication/runtime backend (clocks, counters, liveness).
  pv::Ddi& ddi() { return *ddi_; }
  const pv::Ddi& ddi() const { return *ddi_; }

  const ColumnDistribution& distribution() const { return dist_; }
  const PhaseBreakdown& breakdown() const { return breakdown_; }
  void reset_breakdown() {
    breakdown_ = PhaseBreakdown{};
    comm_base_ = ddi_->comm_words();
  }
  /// The options the operator was built with (RunMetrics::capture reports
  /// the algorithm and cost model from here).
  const ParallelOptions& options() const { return options_; }

 private:
  /// One charge slot's kernel counts, padded to a cache line so workers
  /// counting into neighbouring slots never false-share.
  struct alignas(64) SlotStats {
    fci::SigmaStats stats;
  };
  /// Reusable per-worker column pointers (workers never share a slot).
  struct WorkerScratch {
    std::vector<const double*> ccols;
    std::vector<double*> scols;
  };

  void apply_dgemm(std::span<const double> c, std::span<double> sigma);
  void apply_moc(std::span<const double> c, std::span<double> sigma);
  /// Charges the solver's per-iteration distributed vector work (no-op on
  /// backends that execute the solver for real).
  void charge_solver_vector_ops();

  // --- the static same-spin phases (paper Fig. 2a, the "Beta-beta" rows)

  /// Local transpose in -> beta-index same-spin + one-electron kernels ->
  /// transpose back ("Vector Symm." + "Beta-beta"): sigma += z.  A nonzero
  /// `parity` (P c = parity * c exactly) adds the Ms = 0 "Vector Symm."
  /// fold (paper Table 3), sigma += parity * P z, read from the ranks'
  /// local copies of z: one distributed transpose that replaces the
  /// alpha-side phase.
  void beta_side(std::span<const double> c, std::span<double> sigma,
                 bool moc_kernel, int parity);
  /// The same routine on the other spin, on each rank's beta rows of every
  /// alpha column (the distributed transposes that would move them are
  /// charged) -- or the replicated MOC variant over a collective gather.
  void alpha_side(std::span<const double> c, std::span<double> sigma,
                  bool moc_kernel);
  /// Runs the same-spin and one-electron kernels of spin `spin` over
  /// `views` for rank r and charges them.
  void same_spin_kernels(fci::Spin spin, std::size_t r,
                         std::span<const fci::ColumnView> views,
                         bool moc_kernel);

  // --- the dynamic mixed-spin phase (paper Fig. 2b, the "Alpha-beta" row)

  /// DGEMM algorithm: aggregated alpha (N-1)-string tasks through the DLB
  /// counter, one-sided gather / staged accumulate, per-item atomic commit
  /// (Ddi::run_pool handles scheduling and task-level recovery).
  void mixed_dgemm(std::span<const double> c, std::span<double> sigma);
  /// MOC baseline: one remote column gather per alpha single excitation
  /// (Table 1 costs), no task-level recovery by design.
  void mixed_moc(std::span<const double> c, std::span<double> sigma);
  // The pool program (Ddi::PoolHooks).  An item's payload is its
  // accumulation buffer: one sigma column of nb doubles per reachable
  // entry of the item's alpha creation list, in list order.  The layout is
  // a pure function of the CI space, so the driver and a forked rank agree
  // on it without exchanging it.
  /// Payload length of item `it` (no allocation).
  std::size_t stage_words(std::size_t it) const;
  /// Gathers, computes and charges item `it` on `worker` into `payload`,
  /// reading C's columns where they lie in `c`; returns false when the
  /// worker died mid-item (payload discarded).
  bool stage_item(std::size_t it, std::size_t worker,
                  std::span<const double> c, std::span<double> payload);
  /// Accumulates item `it`'s payload into sigma (the atomic commit).
  void commit_item(std::size_t it, std::span<const double> payload);
  /// Delivers `worker`'s one-sided `op` on column `col` of block `b` to
  /// the column's current owner, retargeting when the owner dies; false
  /// when the worker died.
  bool deliver(pv::OneSided op, std::size_t worker, std::size_t b,
               std::size_t col);

  // --- fault recovery, implemented once for every backend

  /// Issues one one-sided op with bounded retransmission: a transient drop
  /// costs the requester an ack timeout and a retry; returns kDropped only
  /// when the requester or the target is dead (the caller resolves that by
  /// redistributing / reassigning).
  pv::OpOutcome robust_one_sided(pv::OneSided op, std::size_t rank,
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

  // --- charges and metering

  /// Charges one static kernel invocation to rank r as one pv::Work record
  /// (DGEMM shapes, gather/scatter words, indexed multiply-adds as DAXPY
  /// flops, MOC elements as seconds); the counts go to its stats slot.
  void charge_kernel_stats(std::size_t rank, const fci::SigmaStats& stats);
  /// One distributed transpose, one record per rank: each rank exchanges
  /// the share of its `dist` words that the other ranks own, and makes
  /// `copies` indexed passes over its words.
  void charge_transpose(const ColumnDistribution& dist, double copies);
  /// Records one phase window [t0, t1]: adds t1 - t0 to `row` and emits
  /// the control-track span `name` over the same two timestamps, so a
  /// Table-3 row always equals the summed durations of its spans.
  void record_window(double& row, const char* name, double t0, double t1,
                     std::string args = {}, const char* category = "phase");
  /// Per-rank phase span on the rank's own clock domain; call at the end
  /// of a for_ranks body with the entry timestamp.
  void rank_span(const char* name, std::size_t r, double t0);

  const fci::SigmaContext& ctx_;
  ParallelOptions options_;
  std::unique_ptr<pv::Ddi> ddi_;
  ColumnDistribution dist_;
  std::vector<std::uint8_t> dist_alive_;  // mask dist_ was built with
  /// The alpha side's row split: the transposed space's column split over
  /// the ranks alive when the alpha side last started (deaths are
  /// permanent, so a changed count is a changed mask).
  ColumnDistribution rows_;
  std::size_t rows_alive_;
  std::vector<std::size_t> block_of_halpha_;  // halpha -> block index
  PhaseBreakdown breakdown_;
  /// One per charge slot (Ddi::num_slots()), written slot-disjointly as
  /// the ledger rows are: static phases by rank id, pool stages by worker.
  std::vector<SlotStats> slot_stats_;
  double comm_base_ = 0.0;  // ledger words when breakdown_ was last reset
  /// The alpha (N-1)-string tasks (irrep, index), in global item order.
  std::vector<std::pair<std::size_t, std::size_t>> items_;
  pv::TaskPool pool_;
  /// INT_hX packed once for the mixed-spin core (fci::pack_ab_integrals):
  /// built in the constructor, before a process backend forks its ranks,
  /// and again by apply() only when the dispatched GEMM kernel changed.
  /// Empty without a DGEMM mixed-spin phase.
  std::vector<linalg::GemmPackedB> ab_ints_;
  std::shared_ptr<const pv::Ddi::PoolHooks> hooks_;
  std::vector<WorkerScratch> scratch_;  // one per worker
  /// The current mixed_dgemm call's output; only the driver-side commit
  /// reads it.
  std::span<double> mixed_sigma_;
};

}  // namespace xfci::fcp
