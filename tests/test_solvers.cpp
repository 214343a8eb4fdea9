// Tests for the iterative eigensolvers: all four methods must reach the
// dense ground state; the auto-adjusted method's Eq. 14 recovery is
// verified; the model-space preconditioner is checked directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci/slater_condon.hpp"
#include "fci/solvers.hpp"
#include "linalg/eigen.hpp"
#include "linalg/solve.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;

namespace {

// A small random-but-physical Hamiltonian: diagonally dominant like a real
// CI matrix (diagonal spread >> off-diagonal scale).
xi::IntegralTables model_tables(std::size_t norb, std::uint64_t seed) {
  xfci::Rng rng(seed);
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  for (std::size_t p = 0; p < norb; ++p) {
    t.h(p, p) = -2.0 + 0.7 * static_cast<double>(p);  // orbital ladder
    for (std::size_t q = 0; q < p; ++q) {
      const double v = 0.05 * rng.uniform(-1, 1);
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const double scale = (p == q && r == s) ? 0.3 : 0.05;
          t.eri.set(p, q, r, s, scale * rng.uniform(0, 1));
        }
  t.core_energy = 1.25;
  return t;
}

double dense_ground_energy(const xf::CiSpace& space,
                           const xi::IntegralTables& t) {
  const auto h = xf::build_dense_hamiltonian(space, t);
  return xfci::linalg::eigh(h).values[0] + t.core_energy;
}

}  // namespace

class MethodTest : public ::testing::TestWithParam<xf::Method> {};

TEST_P(MethodTest, ReachesDenseGroundState) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const double e_ref = dense_ground_energy(space, tables);

  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  xf::SolverOptions opt;
  opt.method = GetParam();
  opt.model_space = 12;
  opt.max_iterations = 200;
  const auto res = xf::solve_lowest(*op, tables, opt);
  EXPECT_TRUE(res.converged) << xf::method_name(GetParam());
  EXPECT_NEAR(res.energy, e_ref, 1e-8) << xf::method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodTest,
                         ::testing::Values(xf::Method::kDavidson,
                                           xf::Method::kOlsen,
                                           xf::Method::kModifiedOlsen,
                                           xf::Method::kAutoAdjusted));

TEST(Solvers, ConvergedVectorIsEigenvector) {
  const auto tables = model_tables(5, 7);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  xf::SolverOptions opt;
  opt.method = xf::Method::kAutoAdjusted;
  opt.residual_tolerance = 1e-8;
  const auto res = xf::solve_lowest(*op, tables, opt);
  ASSERT_TRUE(res.converged);

  std::vector<double> sig(space.dimension());
  op->apply(res.vector, sig);
  const double e_elec = res.energy - tables.core_energy;
  double rnorm = 0.0;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const double r = sig[i] - e_elec * res.vector[i];
    rnorm += r * r;
  }
  EXPECT_LT(std::sqrt(rnorm), 1e-7);
  // Normalized.
  double n = 0.0;
  for (double x : res.vector) n += x * x;
  EXPECT_NEAR(n, 1.0, 1e-12);
}

TEST(Solvers, AutoAdjustedCompetitiveWithSubspace) {
  // Paper Table 2: the auto-adjusted single-vector method needs no more
  // iterations than the Davidson subspace method (often fewer).
  const auto tables = model_tables(6, 13);
  const xf::CiSpace space(6, 3, 3, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);

  xf::SolverOptions opt;
  opt.energy_tolerance = 1e-10;
  opt.model_space = 20;
  opt.method = xf::Method::kDavidson;
  const auto dav = xf::solve_lowest(*op, tables, opt);
  opt.method = xf::Method::kAutoAdjusted;
  const auto aut = xf::solve_lowest(*op, tables, opt);
  ASSERT_TRUE(dav.converged);
  ASSERT_TRUE(aut.converged);
  EXPECT_NEAR(dav.energy, aut.energy, 1e-8);
  // Allow a small margin; the paper found auto <= subspace.
  EXPECT_LE(aut.iterations, dav.iterations + 5);
}

TEST(Solvers, Eq14RecoveryIsExact) {
  // Verify the identity behind Eq. 14 directly: after one auto-adjusted
  // update C' = S (C + lambda t), the new energy satisfies
  // E' = S^2 (E + 2 lambda <C|H|t> + lambda^2 <t|H|t>).
  const auto tables = model_tables(5, 99);
  const xf::CiSpace space(5, 2, 1, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const std::size_t dim = space.dimension();

  xfci::Rng rng(3);
  std::vector<double> c = rng.signed_vector(dim);
  double n = 0.0;
  for (double x : c) n += x * x;
  for (auto& x : c) x /= std::sqrt(n);

  std::vector<double> sigma(dim), t = rng.signed_vector(dim);
  op->apply(c, sigma);
  double e = 0.0;
  for (std::size_t i = 0; i < dim; ++i) e += c[i] * sigma[i];
  // Orthogonalize t against c as the solver guarantees.
  double ov = 0.0;
  for (std::size_t i = 0; i < dim; ++i) ov += c[i] * t[i];
  for (std::size_t i = 0; i < dim; ++i) t[i] -= ov * c[i];

  std::vector<double> ht(dim);
  op->apply(t, ht);
  double b = 0.0, tht = 0.0, tt = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    b += c[i] * ht[i];
    tht += t[i] * ht[i];
    tt += t[i] * t[i];
  }

  const double lambda = 0.37;
  const double s2 = 1.0 / (1.0 + lambda * lambda * tt);
  std::vector<double> cn(dim);
  for (std::size_t i = 0; i < dim; ++i)
    cn[i] = std::sqrt(s2) * (c[i] + lambda * t[i]);
  std::vector<double> sn(dim);
  op->apply(cn, sn);
  double en = 0.0;
  for (std::size_t i = 0; i < dim; ++i) en += cn[i] * sn[i];

  // Eq. 14 rearranged.
  const double tht_recovered = (en / s2 - e - 2.0 * lambda * b) /
                               (lambda * lambda);
  EXPECT_NEAR(tht_recovered, tht, 1e-9 * std::max(1.0, std::abs(tht)));
}

TEST(ModelSpacePreconditioner, ExactInsideDiagonalOutside) {
  const auto tables = model_tables(5, 21);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::ModelSpacePreconditioner pre(space, tables, 8);
  const std::size_t dim = space.dimension();

  const double e = -7.7;  // away from any eigenvalue
  xfci::Rng rng(4);
  const auto x = rng.signed_vector(dim);
  std::vector<double> y(dim);
  pre.apply_inverse(e, x, y);

  // Verify (H0 - e) y == x where H0 is exact on the model block and
  // diagonal outside.  Build H0 explicitly from the dense Hamiltonian.
  const auto h = xf::build_dense_hamiltonian(space, tables);
  const auto diag = xf::hamiltonian_diagonal(space, tables);
  // Identify the model set: the 8 lowest diagonals.
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return diag[a] < diag[b]; });
  std::vector<bool> in_model(dim, false);
  for (std::size_t i = 0; i < 8; ++i) in_model[order[i]] = true;

  for (std::size_t i = 0; i < dim; ++i) {
    double lhs = (diag[i] - e) * y[i];
    if (in_model[i]) {
      lhs = -e * y[i];
      for (std::size_t j = 0; j < dim; ++j)
        if (in_model[j]) lhs += h(i, j) * y[j];
    }
    EXPECT_NEAR(lhs, x[i], 1e-9) << "component " << i;
  }
}

TEST(ModelSpacePreconditioner, DropsTheSingularDirectionAtAModelEigenvalue) {
  // nalpha != nbeta, so no transpose closure: the model space is exactly
  // the kModel lowest diagonals, kept in ascending flat-index order.
  const auto tables = model_tables(5, 21);
  const xf::CiSpace space(5, 2, 1, tables.group, tables.orbital_irreps, 0);
  constexpr std::size_t kModel = 8;
  const xf::ModelSpacePreconditioner pre(space, tables, kModel);
  const std::size_t dim = space.dimension();
  const auto& diag = pre.diagonal();
  std::vector<std::size_t> model(dim);
  std::iota(model.begin(), model.end(), std::size_t{0});
  std::sort(model.begin(), model.end(),
            [&](std::size_t a, std::size_t b) { return diag[a] < diag[b]; });
  model.resize(kModel);
  std::sort(model.begin(), model.end());

  const auto h = xf::build_dense_hamiltonian(space, tables);
  xfci::linalg::Matrix hmm(kModel, kModel);
  for (std::size_t i = 0; i < kModel; ++i)
    for (std::size_t j = 0; j < kModel; ++j) hmm(i, j) = h(model[i], model[j]);
  const auto eig = xfci::linalg::eigh(hmm);

  xfci::Rng rng(4);
  const auto x = rng.signed_vector(dim);
  std::vector<double> xm(kModel);
  for (std::size_t i = 0; i < kModel; ++i) xm[i] = x[model[i]];

  for (const std::size_t k : {std::size_t{0}, kModel / 2}) {
    // e exactly at the eigenvalue, and 1e-12 off it: both inside the 1e-10
    // cutoff, so both drop direction k.
    for (const double e : {eig.values[k], eig.values[k] + 1e-12}) {
      std::vector<double> y(dim);
      pre.apply_inverse(e, x, y);

      xfci::linalg::Matrix shifted = hmm;
      for (std::size_t i = 0; i < kModel; ++i) shifted(i, i) -= e;
      const auto ref = xfci::linalg::sym_solve_pinv(shifted, xm, 1e-10);
      double ref_norm = 0.0;
      for (double r : ref) ref_norm += r * r;
      ref_norm = std::sqrt(ref_norm);
      ASSERT_GT(ref_norm, 0.0);

      double along = 0.0;  // component along the dropped eigenvector
      for (std::size_t i = 0; i < kModel; ++i) {
        EXPECT_NEAR(y[model[i]], ref[i], 1e-9 * ref_norm)
            << "root " << k << ", e " << e << ", component " << i;
        along += eig.vectors(i, k) * y[model[i]];
      }
      EXPECT_LT(std::abs(along), 1e-12 * ref_norm) << "root " << k;
    }
  }
}

TEST(ModelSpacePreconditioner, InitialGuessIsModelGroundState) {
  const auto tables = model_tables(5, 33);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::ModelSpacePreconditioner pre(space, tables, 10);
  const auto guess = pre.initial_guess(space.dimension());
  double n = 0.0;
  std::size_t nonzero = 0;
  for (double x : guess) {
    n += x * x;
    if (x != 0.0) ++nonzero;
  }
  EXPECT_NEAR(n, 1.0, 1e-10);  // eigh returns a normalized column
  // The model set may be enlarged (at most doubled) by the transpose
  // closure for nalpha == nbeta.
  EXPECT_LE(nonzero, 20u);
  EXPECT_GE(nonzero, 1u);
}
