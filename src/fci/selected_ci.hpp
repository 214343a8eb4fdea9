#pragma once
// Excitation-truncated (selected) CI: CIS, CISD, CISDT, ... relative to the
// aufbau reference determinant.
//
// The paper's opening argument is that full CI "provides a vital tool in
// the evaluation and development of other quantum chemistry methods"; this
// module supplies the methods being calibrated.  A truncated space is a
// subset of the FCI space, marked by a mask over CiSpace's flat order, so
// its Hamiltonian is P H P with P the projector onto the mask: the paper's
// DGEMM sigma with every component outside the mask zeroed.  The shared
// eigensolvers run on that operator, preconditioned by a model space drawn
// from the masked determinants only, so every iterate stays exactly inside
// the truncated space.  A level costs about one FCI solve.

#include <cstddef>
#include <memory>
#include <vector>

#include "fci/ci_space.hpp"
#include "fci/fci.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "fci/solvers.hpp"
#include "integrals/tables.hpp"

namespace xfci::fci {

/// Number of excitations of `det` relative to `ref` (holes in the
/// reference occupation, both spins).
std::size_t excitation_level(const Determinant& ref, const Determinant& det);

/// Mask over the flat order of `space`: true for the determinants within
/// `max_level` excitations of the aufbau reference.  Level >= nalpha +
/// nbeta marks the whole space.
std::vector<bool> truncated_space(const CiSpace& space,
                                  std::size_t max_level);

/// P H P: `inner`'s sigma with every component outside `mask` zeroed.
/// `inner` and `mask` must outlive the operator, and vectors fed to it
/// must vanish outside the mask.
std::unique_ptr<SigmaOperator> project_sigma(SigmaOperator& inner,
                                             const std::vector<bool>& mask);

/// Solves the truncated CI problem: CIS (level 1), CISD (2), CISDT (3)...
/// with the same solvers and options as run_fci.  `dimension` counts the
/// truncated space; `solve.vector` is a full FCI-space vector that
/// vanishes outside it.  `max_level >= nalpha + nbeta` returns run_fci's
/// result bitwise.  Throws when no determinant of the target irrep lies
/// within `max_level` excitations.
FciResult run_truncated_ci(const integrals::IntegralTables& ints,
                           std::size_t nalpha, std::size_t nbeta,
                           std::size_t target_irrep, std::size_t max_level,
                           const SolverOptions& options = {});

}  // namespace xfci::fci
