#pragma once
// High-level FCI driver: ties together the CI space, the sigma operator and
// the iterative eigensolver.  This is the library's primary entry point.
//
//   auto sys = scf::prepare_mo_system(mol, basis, multiplicity);
//   fci::FciOptions opt;
//   auto result = fci::run_fci(sys.tables, nalpha, nbeta, target, opt);

#include <memory>
#include <string>

#include "fci/ci_space.hpp"
#include "fci/sigma.hpp"
#include "fci/solve_setup.hpp"
#include "fci/solvers.hpp"
#include "integrals/tables.hpp"

namespace xfci::fci {

// Algorithm and algorithm_name live in solve_setup.hpp (the setup layer
// owns the choices baked into a shareable SolveSetup); re-exported here —
// fci.hpp remains the primary entry-point header.

struct FciOptions {
  Algorithm algorithm = Algorithm::kDgemm;
  SolverOptions solver;
};

struct FciResult {
  SolverResult solve;        ///< energy, vector, convergence history
  std::size_t dimension = 0; ///< number of determinants
  SigmaStats stats;          ///< accumulated sigma work counters
  double s_squared = 0.0;    ///< <S^2> of the converged state
};

/// Builds the sigma operator of the requested algorithm over `space`.
/// `context` must outlive the returned operator; pass the same context to
/// build several operators cheaply.
std::unique_ptr<SigmaOperator> make_sigma(Algorithm algorithm,
                                          const SigmaContext& context);

/// Runs an FCI calculation for the lowest state of the given symmetry.
/// Thin wrapper over the setup/session layers (solve_setup.hpp /
/// solve_session.hpp): builds a throwaway SolveSetup and runs one
/// SolveSession against it.  Callers doing many solves over the same
/// integrals should build the SolveSetup once and share it.
FciResult run_fci(const integrals::IntegralTables& ints, std::size_t nalpha,
                  std::size_t nbeta, std::size_t target_irrep = 0,
                  const FciOptions& options = {});

/// Restricts integral tables to the first `norb` orbitals (orbitals are
/// energy-ordered after SCF, so this truncates the virtual space); use
/// together with freeze_core for CAS-style FCI(n_elec, n_orb) spaces.
integrals::IntegralTables truncate_orbitals(
    const integrals::IntegralTables& full, std::size_t norb);

/// <c|S^2|c> (not divided by <c|c>): the <S^2> of a normalized vector.
double s_squared_expectation(const CiSpace& space,
                             std::span<const double> c);

/// out = S^2 c.  S^2 commutes with H and with all spatial symmetries, so
/// the result lives in the same blocked space.
void apply_s_squared(const CiSpace& space, std::span<const double> c,
                     std::span<double> out);

/// Projects `c` onto the spin-S eigenspace by Loewdin projection
///   P_S = prod_{S\' != S} (S^2 - S\'(S\'+1)) / (S(S+1) - S\'(S\'+1)),
/// with S\' running over the spin values reachable from (nalpha, nbeta).
/// Returns the norm of the projected vector (0 if `c` has no S component);
/// the projection is NOT renormalized.
double spin_project(const CiSpace& space, double s, std::span<double> c);

}  // namespace xfci::fci
