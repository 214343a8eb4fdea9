#pragma once
// Setup layer of the solve pipeline (DESIGN.md §15).
//
// A SolveSetup is everything about an FCI problem that is immutable during
// a solve: the integral tables, the symmetry-blocked CI space, the
// precomputed SigmaContext (string spaces, creation tables, DGEMM integral
// matrices) and the memoized model-space preconditioners.  Construction is
// the expensive part of a small solve — a SolveSetup is built once and then
// *shared*: any number of SolveSessions (solve_session.hpp) borrow it
// concurrently through shared_ptr<const SolveSetup>, which is what the
// serve::Engine's setup cache hands out.
//
// Thread safety: the constructor eagerly materializes every lazily-built
// table a sigma application can touch (the transposed spaces in both
// directions, for every electron count, and the transposed SigmaContext
// when there are beta electrons), so concurrent sessions only ever read.  The one mutable member, the
// preconditioner memo, is guarded by its own mutex.

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "fci/ci_space.hpp"
#include "fci/sigma.hpp"
#include "fci/solvers.hpp"
#include "integrals/tables.hpp"

namespace xfci::fci {

enum class Algorithm {
  kDgemm,  ///< the paper's DGEMM-based sigma
  kMoc,    ///< minimum-operation-count baseline
};

std::string algorithm_name(Algorithm a);

/// Immutable, shareable solve setup.  Non-copyable and non-movable: the
/// SigmaContext holds references into the owned tables and space, so the
/// object must stay at one address for its whole life — hence the
/// shared_ptr-only factory.
class SolveSetup {
 public:
  /// Builds the full setup (CI space, sigma context, eager transpose
  /// tables).  The integral tables are taken by value and owned.  The
  /// algorithm selects the sigma operator make_sigma() builds, so it is
  /// part of the serve-layer cache key.  Throws xfci::Error when the
  /// target irrep holds no determinant.
  static std::shared_ptr<const SolveSetup> create(
      integrals::IntegralTables ints, std::size_t nalpha, std::size_t nbeta,
      std::size_t target_irrep = 0, Algorithm algorithm = Algorithm::kDgemm);

  SolveSetup(const SolveSetup&) = delete;
  SolveSetup& operator=(const SolveSetup&) = delete;

  const integrals::IntegralTables& ints() const { return ints_; }
  const CiSpace& space() const { return space_; }
  const SigmaContext& context() const { return context_; }
  Algorithm algorithm() const { return algorithm_; }
  std::size_t nalpha() const { return space_.nalpha(); }
  std::size_t nbeta() const { return space_.nbeta(); }
  std::size_t target_irrep() const { return target_irrep_; }
  std::size_t dimension() const { return space_.dimension(); }

  /// A fresh sigma operator for one session: fci::make_sigma's one-rank,
  /// one-thread ParallelSigma, bitwise equal to run_parallel_fci's sigma.
  /// The operator borrows this setup (which must outlive it) but owns its
  /// backend, work buffers and stats, so operators from the same setup may
  /// run concurrently, each driven by one thread.
  std::unique_ptr<SigmaOperator> make_sigma() const;

  /// The model-space preconditioner for the given block size, built on
  /// first request and memoized (sessions sharing a setup share the
  /// preconditioner).  Thread-safe.
  std::shared_ptr<const ModelSpacePreconditioner> preconditioner(
      std::size_t model_space) const;

  /// Resident-memory estimate (integral tables, DGEMM operand matrices of
  /// both context orientations, CI-dimension scratch) used by the serve
  /// layer's cache eviction accounting.
  std::size_t memory_bytes() const;

 private:
  SolveSetup(integrals::IntegralTables ints, std::size_t nalpha,
             std::size_t nbeta, std::size_t target_irrep,
             Algorithm algorithm);

  integrals::IntegralTables ints_;  // owned; context_ references it
  CiSpace space_;                   // owned; context_ references it
  SigmaContext context_;
  Algorithm algorithm_;
  std::size_t target_irrep_ = 0;

  mutable sync::Mutex mu_;
  mutable std::map<std::size_t, std::shared_ptr<const ModelSpacePreconditioner>>
      preconds_ XFCI_GUARDED_BY(mu_);
};

}  // namespace xfci::fci
