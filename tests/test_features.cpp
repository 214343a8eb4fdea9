// Tests for the extension features: the Ms = 0 transpose-symmetry shortcut
// ("Vector Symm."), which every DGEMM sigma takes on a vector of exact
// transpose parity, the exact parity test and the solver's projection
// behind it, and multi-root block Davidson.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "fci/fci.hpp"
#include "fci/slater_condon.hpp"
#include "fci/solve_session.hpp"
#include "linalg/eigen.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "parallel/shm_ipc.hpp"
#include "systems/standard_systems.hpp"

#if defined(__SANITIZE_THREAD__)
#define XFCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XFCI_TSAN 1
#endif
#endif
#ifndef XFCI_TSAN
#define XFCI_TSAN 0
#endif

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

// The solver's projection applied to a copy of v.
int projected_parity(const xf::CiSpace& space, std::vector<double> v) {
  return xf::parity_project(space, v);
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
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
  EXPECT_EQ(space.transpose_parity(parity_vector(space, +1, 3)), 1);
  auto odd = parity_vector(space, -1, 4);
  EXPECT_EQ(space.transpose_parity(odd), -1);
  // P maps the determinant with equal alpha and beta strings to itself,
  // so an odd vector must vanish there.
  odd[space.index(0, 0, 0)] = 1e-300;
  EXPECT_EQ(space.transpose_parity(odd), 0);
  xfci::Rng rng(5);
  const auto v = rng.signed_vector(space.dimension());
  EXPECT_EQ(space.transpose_parity(v), 0);
  EXPECT_EQ(projected_parity(space, v), 0);
}

TEST(TransposeParity, ZeroWhenSpinCountsDiffer) {
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 4, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  std::vector<double> v(space.dimension(), 1.0);
  EXPECT_EQ(space.transpose_parity(v), 0);
  EXPECT_EQ(projected_parity(space, v), 0);
}

TEST(TransposeParity, DominantTestProjectsInPlace) {
  // A mostly odd vector: the solver projects it onto the odd sector, in
  // place, and only the projected vector passes the exact test.
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const auto odd = parity_vector(space, -1, 6);
  const auto even = parity_vector(space, +1, 7);
  std::vector<double> v(odd.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = odd[i] + 0.05 * even[i];
  EXPECT_EQ(space.transpose_parity(v), 0);
  ASSERT_EQ(xf::parity_project(space, v), -1);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(v[i], odd[i], 1e-15);
  EXPECT_EQ(space.transpose_parity(v), -1);
}

TEST(Ms0Transpose, SigmaIdenticalOnSymmetricVectors) {
  // In a target irrep other than the totally symmetric one P maps every
  // block onto another, so the parallel fold writes across blocks.
  const auto& sys = water_sys();
  for (const std::size_t irrep : {0u, 2u}) {
    const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                            sys.tables.orbital_irreps, irrep);
    const xf::SigmaContext ctx(space, sys.tables);
    xfci::oracle::SigmaDense dense(space, sys.tables);
    xf::SigmaDgemm fast(ctx);
    fcp::ParallelOptions popt;
    popt.num_ranks = 4;
    fcp::ParallelSigma parallel(ctx, popt);

    for (int parity : {+1, -1}) {
      const auto c = parity_vector(space, parity, 7 + parity);
      std::vector<double> s1(c.size()), s2(c.size()), s3(c.size());
      dense.apply(c, s1);
      fast.apply(c, s2);
      parallel.apply(c, s3);
      EXPECT_LT(max_abs_diff(s2, s1), 1e-11)
          << "irrep " << irrep << ", parity " << parity;
      EXPECT_LT(max_abs_diff(s3, s1), 1e-11)
          << "irrep " << irrep << ", parity " << parity;
    }
    EXPECT_EQ(fast.ms0_hits(), 2u) << "irrep " << irrep;
    EXPECT_EQ(parallel.breakdown().alpha_side, 0.0) << "irrep " << irrep;
  }
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

TEST(Ms0Transpose, NearlyPureVectorsRunTheFullPath) {
  // c = even + delta * odd has no exact parity, however small delta is:
  // every DGEMM sigma must return H c (not H of c's even part) and so run
  // the full alpha side, on every backend.
  const auto& sys = water_sys();
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, sys.tables);
  xfci::oracle::SigmaDense dense(space, sys.tables);
  xf::SigmaDgemm serial(ctx);
  std::vector<fcp::ParallelOptions> backends(2);
  backends[1].execution = fcp::ExecutionMode::kThreads;
  backends[1].num_threads = 2;
  if (!XFCI_TSAN && xfci::pv::process_backend_supported())
    backends.emplace_back().execution = fcp::ExecutionMode::kProcess;
  std::vector<std::unique_ptr<fcp::ParallelSigma>> parallel;
  for (auto& opt : backends) {
    opt.num_ranks = 4;
    parallel.push_back(std::make_unique<fcp::ParallelSigma>(ctx, opt));
  }

  const auto even = parity_vector(space, +1, 21);
  const auto odd = parity_vector(space, -1, 22);
  for (const double delta : {1e-9, 1e-6, 1e-5}) {
    std::vector<double> c(even.size());
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = even[i] + delta * odd[i];
    ASSERT_EQ(space.transpose_parity(c), 0) << "delta " << delta;
    const std::vector<double> c0 = c;
    std::vector<double> ref(c.size()), s(c.size());
    dense.apply(c, ref);
    serial.apply(c, s);
    EXPECT_LT(max_abs_diff(s, ref), 1e-11) << "serial, delta " << delta;
    for (std::size_t k = 0; k < parallel.size(); ++k) {
      const double alpha_side = parallel[k]->breakdown().alpha_side;
      parallel[k]->apply(c, s);
      EXPECT_LT(max_abs_diff(s, ref), 1e-11)
          << parallel[k]->ddi().name() << ", delta " << delta;
      EXPECT_GT(parallel[k]->breakdown().alpha_side, alpha_side)
          << parallel[k]->ddi().name() << ", delta " << delta;
    }
    EXPECT_EQ(c, c0) << "a sigma altered its input";
  }
  EXPECT_EQ(serial.ms0_hits(), 0u);
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
    EXPECT_EQ(space.transpose_parity(ms0.solve.vector), -1)
        << "irrep " << irrep;
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
