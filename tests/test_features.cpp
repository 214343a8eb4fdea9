// Tests for the extension features: the Ms = 0 transpose-symmetry shortcut
// ("Vector Symm."), which every DGEMM sigma takes on a vector of definite
// transpose parity, the parity projection behind it, and multi-root block
// Davidson.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "fci/fci.hpp"
#include "fci/slater_condon.hpp"
#include "fci/solve_session.hpp"
#include "linalg/eigen.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xf = xfci::fci;
namespace xs = xfci::systems;
namespace fcp = xfci::fcp;

namespace {

const xs::PreparedSystem& water_sys() {
  static const xs::PreparedSystem sys = xs::water({});
  return sys;
}

// Symmetrize / antisymmetrize a random vector under the transpose.
std::vector<double> parity_vector(const xf::CiSpace& space, int parity,
                                  std::uint64_t seed) {
  xfci::Rng rng(seed);
  auto v = rng.signed_vector(space.dimension());
  std::vector<double> pv;
  space.transpose_vector(v, pv);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 0.5 * (v[i] + parity * pv[i]);
  return v;
}

int parity_of(const xf::CiSpace& space, const std::vector<double>& v,
              xf::ParityTest test = xf::ParityTest::kExact) {
  std::vector<double> out(v.size());
  return xf::parity_project(space, v, out, test);
}

// The serial water solve over 5 alpha and 5 beta electrons.
xf::FciResult water_solve(xf::Algorithm algorithm) {
  xf::FciOptions opt;
  opt.algorithm = algorithm;
  return xf::run_fci(water_sys().tables, 5, 5, 0, opt);
}

}  // namespace

TEST(TransposeParity, DetectsSymmetricAntisymmetricAndNeither) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  EXPECT_EQ(parity_of(space, parity_vector(space, +1, 3)), 1);
  EXPECT_EQ(parity_of(space, parity_vector(space, -1, 4)), -1);
  xfci::Rng rng(5);
  const auto v = rng.signed_vector(space.dimension());
  EXPECT_EQ(parity_of(space, v), 0);
  EXPECT_EQ(parity_of(space, v, xf::ParityTest::kDominant), 0);
}

TEST(TransposeParity, ZeroWhenSpinCountsDiffer) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 4, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  std::vector<double> v(space.dimension(), 1.0);
  EXPECT_EQ(parity_of(space, v), 0);
  EXPECT_EQ(parity_of(space, v, xf::ParityTest::kDominant), 0);
}

TEST(TransposeParity, DominantTestProjectsInPlace) {
  // A mostly odd vector: the solver's test projects it onto the odd
  // sector, in place; the sigma's exact test leaves it alone.
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const auto odd = parity_vector(space, -1, 6);
  const auto even = parity_vector(space, +1, 7);
  std::vector<double> v(odd.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = odd[i] + 0.05 * even[i];
  EXPECT_EQ(parity_of(space, v), 0);
  ASSERT_EQ(xf::parity_project(space, v, v, xf::ParityTest::kDominant), -1);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(v[i], odd[i], 1e-15);
  EXPECT_EQ(parity_of(space, v), -1);
}

TEST(Ms0Transpose, SigmaIdenticalOnSymmetricVectors) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, sys.tables);
  xfci::oracle::SigmaDense dense(space, sys.tables);
  xf::SigmaDgemm fast(ctx);

  for (int parity : {+1, -1}) {
    const auto c = parity_vector(space, parity, 7 + parity);
    std::vector<double> s1(c.size()), s2(c.size());
    dense.apply(c, s1);
    fast.apply(c, s2);
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(s2[i], s1[i], 1e-11) << "parity " << parity;
  }
  EXPECT_EQ(fast.ms0_hits(), 2u);
}

TEST(Ms0Transpose, FallsBackOnAsymmetricVectors) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, sys.tables);
  xfci::oracle::SigmaDense dense(space, sys.tables);
  xf::SigmaDgemm fast(ctx);
  xfci::Rng rng(11);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  dense.apply(c, s1);
  fast.apply(c, s2);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(s2[i], s1[i], 1e-11);
  EXPECT_EQ(fast.ms0_hits(), 0u);
}

TEST(Ms0Transpose, FullSolveMatchesAndUsesShortcut) {
  // MOC takes no shortcut: it is the reference for the DGEMM solve, whose
  // every sigma does.
  const auto ref = water_solve(xf::Algorithm::kMoc);
  const auto& sys = water_sys();
  const auto setup = xf::SolveSetup::create(sys.tables, 5, 5, 0);
  xf::SolveSession session(setup);
  const auto res = session.solve();
  ASSERT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.solve.energy, ref.solve.energy, 1e-9);
  const auto& sigma = dynamic_cast<const xf::SigmaDgemm&>(session.sigma());
  EXPECT_EQ(sigma.ms0_hits(), res.solve.iterations);
}

TEST(Ms0Transpose, ParallelSolveMatches) {
  const auto ref = water_solve(xf::Algorithm::kMoc);
  const auto& sys = water_sys();
  fcp::ParallelOptions popt;
  popt.num_ranks = 4;
  const auto res = fcp::run_parallel_fci(sys.tables, 5, 5, 0, popt);
  ASSERT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.solve.energy, ref.solve.energy, 1e-9);
  // The shortcut trades the alpha-side phase for an extra transpose.
  EXPECT_LT(res.metrics.per_sigma.alpha_side, 1e-12);
  EXPECT_GT(res.metrics.per_sigma.transpose, 0.0);
}

TEST(Ms0Transpose, OddParityGroundStateIsFound) {
  // O, 6 correlated electrons in 15 orbitals: the 3P components in
  // irreps 3, 5 and 6 are the lowest states there, and their Ms = 0 parts
  // are odd under the transpose.  The Ms = 0 solve must reach them, not
  // the lowest even state.
  xs::SpaceOptions o;
  o.basis = "x-dz";
  o.freeze_core = 1;
  const auto sys = xs::oxygen_atom(o);
  ASSERT_EQ(sys.tables.norb, 15u);
  for (const std::size_t irrep : {3u, 5u, 6u}) {
    const auto ms0 = xf::run_fci(sys.tables, 3, 3, irrep);
    const auto ms1 = xf::run_fci(sys.tables, 4, 2, irrep);
    ASSERT_TRUE(ms0.solve.converged) << "irrep " << irrep;
    ASSERT_TRUE(ms1.solve.converged) << "irrep " << irrep;
    EXPECT_NEAR(ms0.solve.energy, ms1.solve.energy, 1e-9) << "irrep " << irrep;
    EXPECT_NEAR(ms0.s_squared, 2.0, 1e-6) << "irrep " << irrep;
    const xf::CiSpace space(sys.tables.norb, 3, 3, sys.tables.group,
                            sys.tables.orbital_irreps, irrep);
    EXPECT_EQ(parity_of(space, ms0.solve.vector), -1) << "irrep " << irrep;
  }
}

TEST(MultiRoot, LowestRootsMatchDenseSpectrum) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  // Dense reference spectrum.
  const auto h = xf::build_dense_hamiltonian(space, sys.tables);
  const auto eig = xfci::linalg::eigh(h);

  xf::FciOptions opt;
  opt.solver.method = xf::Method::kDavidson;
  opt.solver.num_roots = 4;
  opt.solver.max_iterations = 200;
  opt.solver.residual_tolerance = 1e-6;
  const auto res = xf::run_fci(sys.tables, 5, 5, 0, opt);
  ASSERT_TRUE(res.solve.converged);
  ASSERT_EQ(res.solve.energies.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(res.solve.energies[k],
                eig.values[k] + sys.tables.core_energy, 1e-7)
        << "root " << k;
  // Roots ascending and vectors orthonormal.
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_LE(res.solve.energies[k - 1], res.solve.energies[k] + 1e-10);
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = 0; b <= a; ++b) {
      double ov = 0.0;
      for (std::size_t i = 0; i < space.dimension(); ++i)
        ov += res.solve.vectors[a][i] * res.solve.vectors[b][i];
      EXPECT_NEAR(ov, a == b ? 1.0 : 0.0, 1e-6) << a << "," << b;
    }
}

TEST(MultiRoot, SingleRootPathUnchanged) {
  const auto& sys = water_sys();
  xf::FciOptions opt;
  opt.solver.method = xf::Method::kDavidson;
  const auto res = xf::run_fci(sys.tables, 5, 5, 0, opt);
  ASSERT_TRUE(res.solve.converged);
  ASSERT_EQ(res.solve.energies.size(), 1u);
  EXPECT_DOUBLE_EQ(res.solve.energies[0], res.solve.energy);
}

TEST(MultiRoot, RejectedForSingleVectorMethods) {
  const auto& sys = water_sys();
  xf::FciOptions opt;
  opt.solver.method = xf::Method::kAutoAdjusted;
  opt.solver.num_roots = 3;
  EXPECT_THROW(xf::run_fci(sys.tables, 5, 5, 0, opt), xfci::Error);
}
