#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace xfci::linalg {

EigenResult eigh(const Matrix& a_in) {
  XFCI_REQUIRE(a_in.rows() == a_in.cols(), "eigh requires a square matrix");
  const std::size_t n = a_in.rows();

  // Work on a symmetrized copy.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));
  Matrix v = Matrix::identity(n);

  const int max_sweeps = 100;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0, norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    for (double x : a.span()) norm2 += x * x;
    if (off < 1e-30 * std::max(1.0, std::sqrt(norm2))) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to rows/columns p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort ascending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return a(i, i) < a(j, j); });

  EigenResult res;
  res.values.resize(n);
  res.vectors.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    res.values[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) res.vectors(i, j) = v(i, order[j]);
  }
  return res;
}

Gen2x2Result lowest_gen_eig_2x2(double h00, double h01, double h11, double s00,
                                double s01, double s11) {
  // Solve det(H - E S) = 0:
  //   (s00*s11 - s01^2) E^2 - (h00*s11 + h11*s00 - 2 h01*s01) E
  //   + (h00*h11 - h01^2) = 0
  const double a = s00 * s11 - s01 * s01;
  const double b = -(h00 * s11 + h11 * s00 - 2.0 * h01 * s01);
  const double c = h00 * h11 - h01 * h01;
  XFCI_REQUIRE(a > 0.0, "2x2 metric is not positive definite");
  const double disc = std::max(0.0, b * b - 4.0 * a * c);
  const double sq = std::sqrt(disc);
  // Lower root; use the numerically stable form.
  const double e =
      (b >= 0.0) ? (-b - sq) / (2.0 * a) : (2.0 * c) / (-b + sq);
  const double e_low = std::min(e, (-b - sq) / (2.0 * a));

  // Eigenvector of (H - E S) x = 0.  Pick the better-conditioned row.
  const double r0a = h00 - e_low * s00;
  const double r0b = h01 - e_low * s01;
  const double r1a = h01 - e_low * s01;
  const double r1b = h11 - e_low * s11;
  Gen2x2Result res;
  res.eigenvalue = e_low;
  if (std::abs(r0b) + std::abs(r0a) >= std::abs(r1b) + std::abs(r1a)) {
    // r0a * x0 + r0b * x1 = 0.
    if (std::abs(r0b) > 1e-300) {
      res.x0 = 1.0;
      res.x1 = -r0a / r0b;
    } else {
      res.x0 = 0.0;
      res.x1 = 1.0;
    }
  } else {
    if (std::abs(r1b) > 1e-300) {
      res.x0 = 1.0;
      res.x1 = -r1a / r1b;
    } else {
      res.x0 = 0.0;
      res.x1 = 1.0;
    }
  }
  return res;
}

}  // namespace xfci::linalg
