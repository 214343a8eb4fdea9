#pragma once
// Small dense linear solvers: Cholesky, partial-pivot LU, and a symmetric
// pseudo-inverse solve (the SCF's DIIS extrapolation on its B matrix).

#include <vector>

#include "linalg/matrix.hpp"

namespace xfci::linalg {

/// Cholesky factorization A = L L^T (lower).  Throws if A is not (numerically)
/// positive definite.
Matrix cholesky(const Matrix& a);

/// Solves A x = b via partial-pivot LU; A is copied.  Throws on singularity.
std::vector<double> lu_solve(const Matrix& a, std::vector<double> b);

/// Solves the symmetric system A x = b via eigendecomposition with a
/// pseudo-inverse cutoff: eigenvalues |w| < cutoff are dropped.  Robust for
/// the nearly singular DIIS systems.
std::vector<double> sym_solve_pinv(const Matrix& a,
                                   const std::vector<double>& b,
                                   double cutoff = 1e-12);

}  // namespace xfci::linalg
