// Tests for the S^2 operator machinery: apply_s_squared against the
// expectation value and explicit spin eigenstates, and the Loewdin spin
// projection.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "integrals/tables.hpp"
#include "systems/model_systems.hpp"
#include "systems/standard_systems.hpp"

namespace xf = xfci::fci;
namespace xs = xfci::systems;
namespace xi = xfci::integrals;

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

TEST(ApplyS2, ConsistentWithExpectation) {
  const auto tables = xs::hubbard_chain(5, 1.0, 3.0);
  const xf::CiSpace space(5, 3, 2, tables.group, tables.orbital_irreps, 0);
  xfci::Rng rng(5);
  auto c = rng.signed_vector(space.dimension());
  const double n = std::sqrt(dot(c, c));
  for (auto& x : c) x /= n;

  std::vector<double> s2c(c.size());
  xf::apply_s_squared(space, c, s2c);
  EXPECT_NEAR(dot(c, s2c), xf::s_squared_expectation(space, c), 1e-10);
}

TEST(ApplyS2, ExpectationIsQuadraticInTheVector) {
  // <c|S^2|c> of an unnormalized vector with Ms != 0: the Sz^2 + Sz term
  // scales with <c|c> like the rest.
  const auto tables = xs::hubbard_chain(5, 1.0, 3.0);
  const xf::CiSpace space(5, 3, 1, tables.group, tables.orbital_irreps, 0);
  xfci::Rng rng(9);
  const auto c = rng.signed_vector(space.dimension());
  auto c3 = c;
  for (auto& x : c3) x *= 3.0;
  EXPECT_NEAR(xf::s_squared_expectation(space, c3),
              9.0 * xf::s_squared_expectation(space, c), 1e-10);
}

TEST(ApplyS2, IsSymmetricOperator) {
  const auto tables = xs::hubbard_chain(4, 1.0, 2.0);
  const xf::CiSpace space(4, 2, 2, tables.group, tables.orbital_irreps, 0);
  xfci::Rng rng(6);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> sx(x.size()), sy(y.size());
  xf::apply_s_squared(space, x, sx);
  xf::apply_s_squared(space, y, sy);
  EXPECT_NEAR(dot(x, sy), dot(sx, y), 1e-10);
}

TEST(ApplyS2, EigenstateOfConvergedFci) {
  // A converged nondegenerate FCI state is a spin eigenstate:
  // S^2 c = s(s+1) c elementwise.
  const auto sys = xs::water({});
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  xf::FciOptions opt;
  opt.solver.method = xf::Method::kDavidson;  // reaches tight residuals
  opt.solver.residual_tolerance = 1e-8;
  opt.solver.max_iterations = 300;
  const auto res = xf::run_fci(sys.tables, 5, 5, 0, opt);
  ASSERT_TRUE(res.solve.converged);
  std::vector<double> s2c(space.dimension());
  xf::apply_s_squared(space, res.solve.vector, s2c);
  for (std::size_t i = 0; i < s2c.size(); ++i)
    EXPECT_NEAR(s2c[i], 0.0 * res.solve.vector[i], 2e-6) << i;  // singlet
}

TEST(ApplyS2, MaximumSpinDeterminant) {
  // All-alpha determinants have S = Sz = N/2 exactly: S^2 d = S(S+1) d.
  const auto tables = xs::hubbard_chain(4, 1.0, 1.0);
  const xf::CiSpace space(4, 3, 0, tables.group, tables.orbital_irreps, 0);
  std::vector<double> c(space.dimension(), 0.0);
  c[1] = 1.0;
  std::vector<double> s2c(c.size());
  xf::apply_s_squared(space, c, s2c);
  const double s = 1.5;
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(s2c[i], s * (s + 1.0) * c[i], 1e-12);
}

TEST(SpinProject, SeparatesSingletAndTriplet) {
  // Two electrons in two orbitals, Ms = 0: the determinant |a_up b_dn| is
  // an equal mixture of singlet and triplet.  Projection must produce pure
  // eigenstates with half the weight each.
  const auto tables = xs::hubbard_chain(2, 1.0, 0.0);
  const xf::CiSpace space(2, 1, 1, tables.group, tables.orbital_irreps, 0);
  // Determinant: alpha in orbital 0, beta in orbital 1.
  std::vector<double> c(space.dimension(), 0.0);
  const std::size_t ia = space.alpha().address(0b01);
  const std::size_t ib = space.beta().address(0b10);
  c[space.index(0, ia, ib)] = 1.0;

  auto singlet = c;
  const double w0 = xf::spin_project(space, 0.0, singlet);
  EXPECT_NEAR(w0 * w0, 0.5, 1e-12);  // half the weight is singlet
  EXPECT_NEAR(xf::s_squared_expectation(space, singlet) / (w0 * w0), 0.0,
              1e-10);

  auto triplet = c;
  const double w1 = xf::spin_project(space, 1.0, triplet);
  EXPECT_NEAR(w1 * w1, 0.5, 1e-12);
  EXPECT_NEAR(xf::s_squared_expectation(space, triplet) / (w1 * w1), 2.0,
              1e-10);

  // The two projections are orthogonal and sum back to the determinant.
  EXPECT_NEAR(dot(singlet, triplet), 0.0, 1e-12);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(singlet[i] + triplet[i], c[i], 1e-12);
}

TEST(SpinProject, IdempotentOnEigenstates) {
  const auto tables = xs::hubbard_chain(4, 1.0, 4.0);
  const xf::CiSpace space(4, 2, 2, tables.group, tables.orbital_irreps, 0);
  xfci::Rng rng(8);
  auto c = rng.signed_vector(space.dimension());
  const double w = xf::spin_project(space, 1.0, c);
  ASSERT_GT(w, 1e-6);
  auto c2 = c;
  const double w2 = xf::spin_project(space, 1.0, c2);
  EXPECT_NEAR(w2, w, 1e-9);  // P^2 = P
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c2[i], c[i], 1e-10);
  // And the projected vector is a spin eigenstate.
  double norm2 = 0.0;
  for (double x : c) norm2 += x * x;
  EXPECT_NEAR(xf::s_squared_expectation(space, c) / norm2, 2.0, 1e-8);
}

TEST(SpinProject, UnreachableSpinThrows) {
  const auto tables = xs::hubbard_chain(3, 1.0, 1.0);
  const xf::CiSpace space(3, 2, 1, tables.group, tables.orbital_irreps, 0);
  std::vector<double> c(space.dimension(), 1.0);
  // Sz = 1/2, so S = 0 is unreachable; S = 5 exceeds N/2.
  EXPECT_THROW(xf::spin_project(space, 0.0, c), xfci::Error);
  EXPECT_THROW(xf::spin_project(space, 5.0, c), xfci::Error);
}
