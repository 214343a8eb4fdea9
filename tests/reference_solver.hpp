#pragma once
// Test-only reference: the single-vector iteration (Olsen, modified Olsen,
// auto-adjusted) as it was before the solver fused it into five passes
// over c and sigma.  It stores r, (H0-E)^-1 r, (H0-E)^-1 c and t apart,
// applies the whole preconditioner twice, removes <c|t> from t itself, and
// projects Ms = 0 iterates through a transposed copy, summing each dot
// product as one serial chain (linalg::dot).  It sums in another order
// than fci::solve_lowest, so the two agree to rounding, not bitwise, and
// only over the first iterations: rounding differences grow as the
// iterations go on.  No checkpoints, tracing or cancellation.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "fci/solvers.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"

namespace xfci::oracle {

inline double serial_dot(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return linalg::dot(std::span<const double>(a), std::span<const double>(b));
}

inline void serial_normalize(std::vector<double>& v) {
  const double n = std::sqrt(serial_dot(v, v));
  for (auto& x : v) x /= n;
}

/// The projection through a transposed copy of c: 0.5 (c + eps P c).
inline int copy_parity_project(const fci::CiSpace& space,
                               std::vector<double>& c) {
  if (space.nalpha() != space.nbeta() || space.nbeta() == 0) return 0;
  std::vector<double> pc;
  space.transpose_vector(c, pc);
  const double cc = serial_dot(c, c);
  const double cpc = serial_dot(c, pc);
  if (!(cc > 0.0 && std::abs(cpc) >= 0.9 * cc)) return 0;
  const int eps = cpc > 0 ? 1 : -1;
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = 0.5 * (c[i] + eps * pc[i]);
  return eps;
}

/// t = -(H0-E)^-1 (r - eps c) with <c|t> removed from t.
inline std::vector<double> stored_olsen_correction(
    const fci::ModelSpacePreconditioner& precond, double e,
    const std::vector<double>& c, const std::vector<double>& residual) {
  const std::size_t dim = c.size();
  std::vector<double> pr(dim), pc(dim);
  precond.apply_inverse(e, residual, pr);
  precond.apply_inverse(e, c, pc);
  const double denom = serial_dot(c, pc);
  const double eps =
      std::abs(denom) > 1e-300 ? serial_dot(c, pr) / denom : 0.0;
  std::vector<double> t(dim);
  for (std::size_t i = 0; i < dim; ++i) t[i] = -(pr[i] - eps * pc[i]);
  const double ov = serial_dot(c, t);
  for (std::size_t i = 0; i < dim; ++i) t[i] -= ov * c[i];
  return t;
}

/// The stored-vector iteration from opt.initial_vector (projected and
/// normalized), for opt.method in {kOlsen, kModifiedOlsen, kAutoAdjusted}.
inline fci::SolverResult stored_single_vector(
    fci::SigmaOperator& op, const fci::ModelSpacePreconditioner& precond,
    double core, const fci::SolverOptions& opt) {
  const fci::CiSpace& space = op.space();
  const std::size_t dim = space.dimension();
  fci::SolverResult res;
  std::vector<double> c = opt.initial_vector;
  copy_parity_project(space, c);
  serial_normalize(c);
  std::vector<double> sigma(dim);

  double lambda = 1.0;
  bool have_prev = false;
  double e_prev = 0.0, b_prev = 0.0, tt_prev = 0.0, s2_prev = 1.0,
         lambda_prev = 0.0, last_e = 0.0;
  for (std::size_t iter = 1; iter <= opt.max_iterations; ++iter) {
    op.apply(c, sigma);
    res.iterations = iter;
    const double e = serial_dot(c, sigma);
    if (opt.method == fci::Method::kAutoAdjusted && have_prev &&
        std::abs(lambda_prev) > 1e-8 && tt_prev > 1e-20) {
      const double tht =
          (e / s2_prev - e_prev - 2.0 * lambda_prev * b_prev) /
          (lambda_prev * lambda_prev);
      if (std::isfinite(tht)) {
        const auto g = linalg::lowest_gen_eig_2x2(e_prev, b_prev, tht, 1.0,
                                                  0.0, tt_prev);
        if (std::abs(g.x0) > 1e-8 * std::abs(g.x1))
          lambda = std::clamp(g.x1 / g.x0, -5.0, 5.0);
      }
    }
    std::vector<double> r(dim);
    for (std::size_t i = 0; i < dim; ++i) r[i] = sigma[i] - e * c[i];
    const double rnorm = std::sqrt(serial_dot(r, r));
    const double de = std::abs(e - last_e);
    last_e = e;
    res.energy_history.push_back(e + core);
    res.residual_history.push_back(rnorm);
    res.energy = e + core;
    if (rnorm < opt.residual_tolerance &&
        (iter == 1 || de < opt.energy_tolerance ||
         rnorm < 0.01 * opt.residual_tolerance)) {
      res.converged = true;
      break;
    }
    const std::vector<double> t = stored_olsen_correction(precond, e, c, r);
    const double b = serial_dot(sigma, t);
    const double tt = serial_dot(t, t);
    if (tt < 1e-22) break;
    if (opt.method == fci::Method::kOlsen) {
      lambda = 1.0;
    } else if (opt.method == fci::Method::kModifiedOlsen) {
      lambda = 0.7;
    } else if (iter == 1) {
      double tht = 0.0;
      const auto& diag = precond.diagonal();
      for (std::size_t i = 0; i < dim; ++i) tht += t[i] * t[i] * diag[i];
      const auto g = linalg::lowest_gen_eig_2x2(e, b, tht, 1.0, 0.0, tt);
      if (std::abs(g.x0) > 1e-12) lambda = g.x1 / g.x0;
    }
    const double s2 = 1.0 / (1.0 + lambda * lambda * tt);
    const double s = std::sqrt(s2);
    for (std::size_t i = 0; i < dim; ++i) c[i] = s * (c[i] + lambda * t[i]);
    if (copy_parity_project(space, c) != 0) serial_normalize(c);
    e_prev = e;
    b_prev = b;
    tt_prev = tt;
    s2_prev = s2;
    lambda_prev = lambda;
    have_prev = true;
  }
  res.vector = c;
  return res;
}

}  // namespace xfci::oracle
