#pragma once
// The distributed sigma (paper section 3), layered exactly like the
// paper's FCI -> DDI -> SHMEM stack: ParallelSigma composes backend-
// agnostic phase engines (phase_engines.hpp) that speak only the pv::Ddi
// one-sided interface, and the ParallelOptions select which Ddi backend
// (simulated Cray-X1, shared-memory threads, or forked processes over
// POSIX shm) supplies transport, clocks and failure semantics.
//
// It is the library's one sigma orchestration: fci::make_sigma and
// SolveSetup::make_sigma build it on one rank and one thread of the
// threads backend, which starts no thread and models no cost.  The
// engines live in xfci_fci for that reason; run_parallel_fci and the
// run report (parallel_fci.hpp) stay in xfci_fcipar.
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
//   MOC baseline: collective gather of the full vector, same-spin element
//   generation replicated on every rank (the historical non-scaling
//   practice the paper eliminates), mixed-spin with one remote column
//   gather per alpha single excitation (Table 1 costs).
//
// Every rank's arithmetic is executed for real; on the simulated backend
// the x1::CostModel charges simulated time.  Results are bit-identical for
// any rank count and across backends, P = 1 included.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fci/sigma.hpp"
#include "fci_parallel/distribution.hpp"
#include "fci_parallel/options.hpp"
#include "fci_parallel/phase_engines.hpp"
#include "parallel/ddi.hpp"

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
  void apply_dgemm(std::span<const double> c, std::span<double> sigma);
  void apply_moc(std::span<const double> c, std::span<double> sigma);
  /// Charges the solver's per-iteration distributed vector work (no-op on
  /// backends that execute the solver for real).
  void charge_solver_vector_ops();
  PhaseState phase_state();

  const fci::SigmaContext& ctx_;
  ParallelOptions options_;
  std::unique_ptr<pv::Ddi> ddi_;
  ColumnDistribution dist_;
  std::vector<std::uint8_t> dist_alive_;      // mask dist_ was built with
  std::vector<std::size_t> block_of_halpha_;  // halpha -> block index
  PhaseBreakdown breakdown_;
  std::vector<SlotStats> slot_stats_;         // one per charge slot
  double comm_base_ = 0.0;  // ledger words when breakdown_ was last reset
  RecoveryEngine recovery_;
  SameSpinEngine same_spin_;
  MixedSpinEngine mixed_;
};

}  // namespace xfci::fcp
