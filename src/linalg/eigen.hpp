#pragma once
// Symmetric eigensolvers.
//
// xfci needs eigensolvers in four places: the SCF Fock diagonalization,
// the model-space block of the diagonalization preconditioner (factored
// once per preconditioner, never per iteration), the Rayleigh-Ritz step of
// the Davidson subspace method, and the 2x2 step-length problem of the
// automatically adjusted single-vector method (paper Eqs. 13-15).  All our
// matrices are small (basis-set, model-space or subspace dimension), so a
// cyclic Jacobi method is accurate and entirely adequate.

#include <vector>

#include "linalg/matrix.hpp"

namespace xfci::linalg {

/// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct EigenResult {
  std::vector<double> values;  ///< ascending eigenvalues
  Matrix vectors;              ///< column j is the eigenvector of values[j]
};

/// Full eigendecomposition of a symmetric matrix via cyclic Jacobi.
/// Throws if `a` is not square.  Off-diagonal asymmetry is averaged away.
EigenResult eigh(const Matrix& a);

/// Solves the 2x2 symmetric *generalized* eigenproblem
///   [h00 h01; h01 h11] x = E [s00 s01; s01 s11] x
/// and returns the lower eigenvalue and its eigenvector (unnormalized,
/// with x[0] = 1 convention when possible).  Used to recover the optimal
/// step length lambda_opt mixing {C, t} in the single-vector solvers.
struct Gen2x2Result {
  double eigenvalue;
  double x0;
  double x1;
};
Gen2x2Result lowest_gen_eig_2x2(double h00, double h01, double h11, double s00,
                                double s01, double s11);

}  // namespace xfci::linalg
