#include "linalg/solve.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/eigen.hpp"

namespace xfci::linalg {

std::vector<double> sym_solve_pinv(const Matrix& a,
                                   const std::vector<double>& b,
                                   double cutoff) {
  XFCI_REQUIRE(a.rows() == b.size(), "sym_solve_pinv rhs size mismatch");
  const auto eig = eigh(a);
  const std::size_t n = b.size();
  // x = V w^+ V^T b.
  std::vector<double> vtb(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) vtb[j] += eig.vectors(i, j) * b[i];
  std::vector<double> x(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (std::abs(eig.values[j]) < cutoff) continue;
    const double f = vtb[j] / eig.values[j];
    for (std::size_t i = 0; i < n; ++i) x[i] += eig.vectors(i, j) * f;
  }
  return x;
}

}  // namespace xfci::linalg
