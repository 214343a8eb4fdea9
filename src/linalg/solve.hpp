#pragma once
// Small dense linear solver: a symmetric pseudo-inverse solve (the SCF's
// DIIS extrapolation on its B matrix).

#include <vector>

#include "linalg/matrix.hpp"

namespace xfci::linalg {

/// Solves the symmetric system A x = b via eigendecomposition with a
/// pseudo-inverse cutoff: eigenvalues |w| < cutoff are dropped.  Robust for
/// the nearly singular DIIS systems.
std::vector<double> sym_solve_pinv(const Matrix& a,
                                   const std::vector<double>& b,
                                   double cutoff = 1e-12);

}  // namespace xfci::linalg
