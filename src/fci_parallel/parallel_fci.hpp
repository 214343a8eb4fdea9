#pragma once
// The distributed FCI driver (paper section 3): run_parallel_fci solves
// with a ParallelSigma (parallel_sigma.hpp) on the backend the
// ParallelOptions select and reports the run as RunMetrics
// (run_report.hpp).

#include <memory>

#include "fci/fci.hpp"
#include "fci/solvers.hpp"
#include "fci_parallel/parallel_sigma.hpp"
#include "fci_parallel/run_report.hpp"

namespace xfci::fcp {

/// Result of a full parallel FCI run.
struct ParallelFciResult {
  fci::SolverResult solve;
  /// The run's report (the --metrics payload): dimension, per-sigma phase
  /// rows, total seconds, the ledger rows and gflops_per_rank(); the
  /// driver sets .run and calls .write(path).
  RunMetrics metrics;
};

/// Runs the full distributed FCI solve on `num_ranks` simulated MSPs.
ParallelFciResult run_parallel_fci(const integrals::IntegralTables& ints,
                                   std::size_t nalpha, std::size_t nbeta,
                                   std::size_t target_irrep,
                                   const ParallelOptions& options,
                                   const fci::SolverOptions& solver = {});

/// Same solve over a pre-built (possibly cache-shared) SolveSetup.  The
/// setup must have been created for the algorithm the ParallelOptions
/// select, so a serve-layer cache key that includes it always hands back a
/// compatible setup.  Results are bitwise-identical to the table-based
/// overload above.
ParallelFciResult run_parallel_fci(
    std::shared_ptr<const fci::SolveSetup> setup,
    const ParallelOptions& options, const fci::SolverOptions& solver = {});

}  // namespace xfci::fcp
