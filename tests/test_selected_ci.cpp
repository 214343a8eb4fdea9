// Tests for the excitation-truncated CI module: the CI hierarchy
// CIS <= CISD <= CISDT <= ... <= FCI, bitwise agreement with run_fci at the
// FCI level, Brillouin's theorem, and the projected sigma P H P against the
// dense Hamiltonian restricted to the truncated space.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "fci/fci.hpp"
#include "fci/selected_ci.hpp"
#include "integrals/basis.hpp"
#include "scf/scf.hpp"
#include "systems/model_systems.hpp"
#include "systems/standard_systems.hpp"

namespace xf = xfci::fci;
namespace xs = xfci::systems;

namespace {

std::size_t count_marked(const std::vector<bool>& mask) {
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
}

}  // namespace

TEST(ExcitationLevel, CountsHoles) {
  const xf::Determinant ref{0b0011, 0b0011};
  EXPECT_EQ(xf::excitation_level(ref, ref), 0u);
  EXPECT_EQ(xf::excitation_level(ref, {0b0101, 0b0011}), 1u);
  EXPECT_EQ(xf::excitation_level(ref, {0b0101, 0b0110}), 2u);
  EXPECT_EQ(xf::excitation_level(ref, {0b1100, 0b1100}), 4u);
}

TEST(TruncatedSpace, SizesFollowTheHierarchy) {
  const auto sys = xs::water({});
  const xf::CiSpace space(sys.tables.norb, 5, 5, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  std::size_t prev = 0;
  for (std::size_t level = 0; level <= 10; ++level) {
    const auto mask = xf::truncated_space(space, level);
    ASSERT_EQ(mask.size(), space.dimension());
    EXPECT_GE(count_marked(mask), prev);
    prev = count_marked(mask);
  }
  // Level 10 = FCI: every determinant of the blocked space.
  EXPECT_EQ(prev, space.dimension());
  // Level 0 in the totally symmetric sector: just the reference.
  EXPECT_EQ(count_marked(xf::truncated_space(space, 0)), 1u);
}

TEST(ProjectedSigma, MatchesDenseHamiltonianOnTheMask) {
  // sigma of the truncated space is P H P: on vectors that vanish outside
  // the mask it must equal the dense Hamiltonian restricted to the mask,
  // and vanish outside it, at every level up to FCI.
  struct Case {
    std::size_t norb, na, nb;
    const char* group;
    std::vector<std::size_t> irreps;
    std::size_t target;
  };
  const std::vector<Case> cases = {
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 0},
      {6, 3, 2, "C2v", {0, 0, 1, 2, 3, 3}, 2},  // open shell, B1 target
      {8, 3, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 5},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& cs = cases[k];
    const auto tables =
        xfci::oracle::random_tables(cs.norb, cs.group, cs.irreps, 700 + k);
    const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                            tables.orbital_irreps, cs.target);
    const xf::SigmaContext ctx(space, tables);
    const auto dgemm = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
    const auto h = xf::build_dense_hamiltonian(space, tables);
    for (std::size_t level = 0; level <= cs.na + cs.nb; ++level) {
      const auto mask = xf::truncated_space(space, level);
      const auto op = xf::project_sigma(*dgemm, mask);
      xfci::Rng rng(900 + 10 * k + level);
      auto x = rng.signed_vector(space.dimension());
      for (std::size_t i = 0; i < x.size(); ++i)
        if (!mask[i]) x[i] = 0.0;
      std::vector<double> y(x.size());
      op->apply(x, y);
      for (std::size_t i = 0; i < x.size(); ++i) {
        double ref = 0.0;
        if (mask[i])
          for (std::size_t j = 0; j < x.size(); ++j)
            if (mask[j]) ref += h(i, j) * x[j];
        EXPECT_NEAR(y[i], ref, 1e-11)
            << "case " << k << " level " << level << " det " << i;
      }
    }
    EXPECT_EQ(count_marked(xf::truncated_space(space, cs.na + cs.nb)),
              space.dimension());
  }
}

TEST(TruncatedCi, VariationalHierarchyOnWater) {
  const auto sys = xs::water({});
  const double e_fci = xf::run_fci(sys.tables, 5, 5, 0).solve.energy;

  double prev = 1e9;
  for (std::size_t level : {1u, 2u, 3u, 4u}) {
    const auto res = xf::run_truncated_ci(sys.tables, 5, 5, 0, level);
    ASSERT_TRUE(res.solve.converged) << "level " << level;
    EXPECT_LE(res.solve.energy, prev + 1e-10) << "level " << level;
    EXPECT_GE(res.solve.energy, e_fci - 1e-9) << "level " << level;
    prev = res.solve.energy;
  }
  // CISD already recovers most of the water correlation energy.
  const auto cisd = xf::run_truncated_ci(sys.tables, 5, 5, 0, 2);
  EXPECT_LT(cisd.solve.energy,
            sys.scf_energy - 0.9 * (sys.scf_energy - e_fci) +
                0.05 * std::abs(sys.scf_energy - e_fci));
  // A warm start from the FCI vector is projected into the CISD space.
  xf::SolverOptions warm;
  warm.initial_vector = xf::run_fci(sys.tables, 5, 5, 0).solve.vector;
  const auto warm_cisd = xf::run_truncated_ci(sys.tables, 5, 5, 0, 2, warm);
  ASSERT_TRUE(warm_cisd.solve.converged);
  EXPECT_NEAR(warm_cisd.solve.energy, cisd.solve.energy, 1e-9);
}

TEST(TruncatedCi, FullLevelReproducesFci) {
  // At a level >= nalpha + nbeta the mask covers the space, the projection
  // zeroes nothing, and the solve is run_fci's, bit for bit.
  const auto tables = xs::hubbard_chain(6, 1.0, 4.0);
  const auto fci = xf::run_fci(tables, 3, 3, 0);
  ASSERT_TRUE(fci.solve.converged);
  for (std::size_t level : {6u, 9u}) {
    const auto res = xf::run_truncated_ci(tables, 3, 3, 0, level);
    EXPECT_EQ(res.dimension, fci.dimension) << "level " << level;
    EXPECT_EQ(res.solve.energy, fci.solve.energy) << "level " << level;
    EXPECT_EQ(res.solve.vector, fci.solve.vector) << "level " << level;
    EXPECT_EQ(res.solve.iterations, fci.solve.iterations)
        << "level " << level;
  }
}

TEST(TruncatedCi, LevelZeroIsTheReferenceEnergy) {
  // The aufbau reference of the half-filled chain puts both electrons of
  // three sites on sites 0-2: <ref|H|ref> = 3U = 12 Eh, although the
  // lowest diagonal of the FCI space lies elsewhere.  The initial guess
  // must come from the one-determinant space, not from that diagonal.
  const auto tables = xs::hubbard_chain(6, 1.0, 4.0);
  const auto res = xf::run_truncated_ci(tables, 3, 3, 0, 0);
  const xf::Determinant ref{0b000111, 0b000111};
  ASSERT_TRUE(res.solve.converged);
  EXPECT_EQ(res.dimension, 1u);
  EXPECT_NEAR(res.solve.energy,
              xf::hamiltonian_element(tables, ref, ref) + tables.core_energy,
              1e-12);
  EXPECT_NEAR(res.solve.energy, 12.0, 1e-12);
}

TEST(TruncatedCi, EmptySpaceThrows) {
  // Water's reference is totally symmetric: no level-0 determinant exists
  // in any other irrep.
  const auto sys = xs::water({});
  EXPECT_THROW(xf::run_truncated_ci(sys.tables, 5, 5, 1, 0), xfci::Error);
}

TEST(TruncatedCi, BrillouinTheorem) {
  // With canonical HF orbitals, singles do not couple to the reference:
  // E(CIS) == E(HF) for the ground state.
  const auto sys = xs::water({});
  xf::SolverOptions opt;
  opt.residual_tolerance = 1e-8;
  const auto cis = xf::run_truncated_ci(sys.tables, 5, 5, 0, 1, opt);
  ASSERT_TRUE(cis.solve.converged);
  EXPECT_NEAR(cis.solve.energy, sys.scf_energy, 1e-6);
}

TEST(TruncatedCi, SizeConsistencyFailureOfCisd) {
  // The textbook calibration lesson: CISD of two non-interacting H2
  // molecules is NOT twice CISD of one (FCI is).  For 2 electrons CISD is
  // FCI, so compare at the dimer level where quadruples are missing.
  xs::SpaceOptions o;
  o.basis = "sto-3g";
  const auto one = xs::h2(1.4, o);
  const double e1_fci = xf::run_fci(one.tables, 1, 1, 0).solve.energy;

  // Two H2 molecules 60 bohr apart (C1 to keep one sector).
  const auto mol = xfci::chem::Molecule::from_xyz_bohr(
      "H 0 0 -0.7\nH 0 0 0.7\nH 0.3 0 59.3\nH 0.3 0 60.7\n");
  const auto basis = xfci::integrals::BasisSet::build("sto-3g", mol);
  const auto pair = xfci::scf::prepare_mo_system(mol, basis, 1);

  const double e2_fci = xf::run_fci(pair.tables, 2, 2, 0).solve.energy;
  EXPECT_NEAR(e2_fci, 2.0 * e1_fci, 1e-5);  // FCI is size-consistent

  xf::SolverOptions opt;
  opt.residual_tolerance = 1e-7;
  const auto cisd = xf::run_truncated_ci(pair.tables, 2, 2, 0, 2, opt);
  ASSERT_TRUE(cisd.solve.converged);
  // CISD misses the simultaneous double excitation on both monomers.
  EXPECT_GT(cisd.solve.energy, e2_fci + 1e-4);
}
