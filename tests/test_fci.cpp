// End-to-end FCI tests on real molecules: literature energies, invariance
// of the ground-state energy across algorithms / symmetry treatment /
// diagonalization methods, variational ordering, and spin expectation
// values.

#include <gtest/gtest.h>

#include <cmath>

#include "chem/molecule.hpp"
#include "fci/fci.hpp"
#include "fci/slater_condon.hpp"
#include "integrals/basis.hpp"
#include "linalg/eigen.hpp"
#include "scf/scf.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace xs = xfci::scf;

namespace {

// Centered on the origin so the full D2h symmetry is detected.
xc::Molecule h2(double r = 1.4) {
  return xc::Molecule::from_xyz_bohr("H 0 0 " + std::to_string(-0.5 * r) +
                                     "\nH 0 0 " + std::to_string(0.5 * r) +
                                     "\n");
}

xc::Molecule water() {
  return xc::Molecule::from_xyz_bohr(
      "O 0.0 0.0 -0.143225816552\n"
      "H 1.638036840407 0.0 1.136548822547\n"
      "H -1.638036840407 0.0 1.136548822547\n");
}

xi::IntegralTables water_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = water();
    const auto basis = xi::BasisSet::build("sto-3g", mol);
    return xs::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

}  // namespace

TEST(FciH2, MatchesLiteratureAndDense) {
  const auto mol = h2();
  const auto basis = xi::BasisSet::build("sto-3g", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 1);

  const auto res = xf::run_fci(sys.tables, 1, 1, 0);
  EXPECT_TRUE(res.solve.converged);
  // Szabo-Ostlund: E(FCI, H2/STO-3G, 1.4 a0) = -1.1373 Eh.
  EXPECT_NEAR(res.solve.energy, -1.1373, 2e-4);
  // FCI below HF (correlation energy ~ -0.0206).
  EXPECT_LT(res.solve.energy, sys.scf.energy - 0.01);
  // Singlet.
  EXPECT_NEAR(res.s_squared, 0.0, 1e-8);

  // Against our dense diagonalization.
  const xf::CiSpace space(sys.tables.norb, 1, 1, sys.tables.group,
                          sys.tables.orbital_irreps, 0);
  const auto h = xf::build_dense_hamiltonian(space, sys.tables);
  const double e_dense =
      xfci::linalg::eigh(h).values[0] + sys.tables.core_energy;
  EXPECT_NEAR(res.solve.energy, e_dense, 1e-9);
}

TEST(FciWater, AllAlgorithmsAgreeWithDense) {
  const auto tables = water_tables();
  // Full space: 7 orbitals, 5 alpha, 5 beta -> dim 441 in C1.
  const xf::CiSpace space(7, 5, 5, tables.group, tables.orbital_irreps, 0);
  const auto h = xf::build_dense_hamiltonian(space, tables);
  const double e_dense =
      xfci::linalg::eigh(h).values[0] + tables.core_energy;

  for (const auto alg : {xf::Algorithm::kDgemm, xf::Algorithm::kMoc}) {
    xf::FciOptions opt;
    opt.algorithm = alg;
    const auto res = xf::run_fci(tables, 5, 5, 0, opt);
    EXPECT_TRUE(res.solve.converged) << xf::algorithm_name(alg);
    EXPECT_NEAR(res.solve.energy, e_dense, 1e-8) << xf::algorithm_name(alg);
  }
}

TEST(FciWater, SymmetryOnAndOffAgree) {
  const auto tables = water_tables();
  // With C2v blocking.
  const auto sym = xf::run_fci(tables, 5, 5, 0);
  // Without: same integrals in C1.
  xi::IntegralTables c1 = tables;
  c1.group = xc::PointGroup::make("C1");
  c1.orbital_irreps.assign(c1.norb, 0);
  const auto nosym = xf::run_fci(c1, 5, 5, 0);
  ASSERT_TRUE(sym.solve.converged);
  ASSERT_TRUE(nosym.solve.converged);
  EXPECT_NEAR(sym.solve.energy, nosym.solve.energy, 1e-8);
  // The blocked space is smaller.
  EXPECT_LT(sym.dimension, nosym.dimension);
}

TEST(FciWater, CorrelationEnergyIsNegativeAndSinglet) {
  const auto mol = water();
  const auto basis = xi::BasisSet::build("sto-3g", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 1);
  const auto res = xf::run_fci(sys.tables, 5, 5, 0);
  ASSERT_TRUE(res.solve.converged);
  // STO-3G water correlation energy is about -0.05 Eh.
  EXPECT_LT(res.solve.energy, sys.scf.energy - 0.03);
  EXPECT_GT(res.solve.energy, sys.scf.energy - 0.15);
  EXPECT_NEAR(res.s_squared, 0.0, 1e-7);
}

TEST(FciWater, GroundStateIsTotallySymmetric) {
  const auto tables = water_tables();
  double e0 = 0.0;
  for (std::size_t h = 0; h < 4; ++h) {
    const auto res = xf::run_fci(tables, 5, 5, h);
    ASSERT_TRUE(res.solve.converged) << "irrep " << h;
    if (h == 0)
      e0 = res.solve.energy;
    else
      EXPECT_GT(res.solve.energy, e0) << "irrep " << h;
  }
}

TEST(FciOxygen, GroundStateIsTriplet) {
  // O atom, minimal basis, (5 alpha, 3 beta): lowest state is 3P with
  // <S^2> = 2.
  const auto mol = xc::Molecule::from_xyz_bohr("O 0 0 0\n");
  const auto basis = xi::BasisSet::build("sto-3g", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 3);

  // The 3P components with Ms=1 live in the B1g/B2g/B3g irreps of D2h
  // (open shells in two different p orbitals).  Find the lowest energy over
  // all irreps and check its spin.
  double e_best = 1e9;
  double s2_best = -1.0;
  for (std::size_t h = 0; h < sys.tables.group.num_irreps(); ++h) {
    const xf::CiSpace probe(sys.tables.norb, 5, 3, sys.tables.group,
                            sys.tables.orbital_irreps, h);
    if (probe.dimension() == 0) continue;
    const auto res = xf::run_fci(sys.tables, 5, 3, h);
    if (res.solve.converged && res.solve.energy < e_best) {
      e_best = res.solve.energy;
      s2_best = res.s_squared;
    }
  }
  EXPECT_LT(e_best, sys.scf.energy);  // correlation lowers the energy
  EXPECT_NEAR(s2_best, 2.0, 1e-7);    // triplet
}

TEST(FciHeh, CationIsClosedShellSinglet) {
  const auto mol = xc::Molecule::from_xyz_bohr("He 0 0 0\nH 0 0 1.4632\n", 1);
  const auto basis = xi::BasisSet::build("sto-3g", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 1);
  const auto res = xf::run_fci(sys.tables, 1, 1, 0);
  ASSERT_TRUE(res.solve.converged);
  // Szabo-Ostlund's favorite: HeH+ FCI/STO-3G around -2.85 Eh.
  EXPECT_NEAR(res.solve.energy, -2.85, 0.01);
  EXPECT_NEAR(res.s_squared, 0.0, 1e-8);
}

TEST(FciMethods, AllFourConvergeToSameWaterEnergy) {
  const auto tables = water_tables();
  double e_ref = 0.0;
  for (const auto m :
       {xf::Method::kDavidson, xf::Method::kOlsen, xf::Method::kModifiedOlsen,
        xf::Method::kAutoAdjusted}) {
    xf::FciOptions opt;
    opt.solver.method = m;
    opt.solver.max_iterations = 300;
    const auto res = xf::run_fci(tables, 5, 5, 0, opt);
    EXPECT_TRUE(res.solve.converged) << xf::method_name(m);
    if (e_ref == 0.0)
      e_ref = res.solve.energy;
    else
      EXPECT_NEAR(res.solve.energy, e_ref, 1e-8) << xf::method_name(m);
  }
}

TEST(TruncateOrbitals, CasSpaceEnergyAboveFullFci) {
  const auto tables = water_tables();
  const auto small = xf::truncate_orbitals(tables, 6);
  EXPECT_EQ(small.norb, 6u);
  const auto full = xf::run_fci(tables, 5, 5, 0);
  const auto cas = xf::run_fci(small, 5, 5, 0);
  ASSERT_TRUE(full.solve.converged);
  ASSERT_TRUE(cas.solve.converged);
  // Smaller variational space -> higher energy.
  EXPECT_GT(cas.solve.energy, full.solve.energy);
  // Integrals are shared on the retained block (truncation symmetrizes h,
  // so compare within round-off of the SCF transform).
  EXPECT_NEAR(small.h(2, 3), tables.h(2, 3), 1e-12);
  EXPECT_DOUBLE_EQ(small.eri(1, 2, 3, 0), tables.eri(1, 2, 3, 0));
}

TEST(SSquared, HydrogenTripletSigmaU) {
  // H2 with (2 alpha, 0 beta) is the Ms = 1 triplet: <S^2> = 2 trivially
  // for any state.
  const auto mol = h2();
  const auto basis = xi::BasisSet::build("sto-3g", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 3);
  // Target irrep: sigma_g x sigma_u.
  const std::size_t h_su = sys.tables.orbital_irreps[1];
  const auto res = xf::run_fci(sys.tables, 2, 0, h_su);
  ASSERT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.s_squared, 2.0, 1e-10);
}

TEST(SSquared, HeliumSingletAndTripletSplitting) {
  // He in a split basis: the (1s,2s) singlet lies below the triplet, and
  // our S^2 labels them correctly.
  const auto mol = xc::Molecule::from_xyz_bohr("He 0 0 0\n");
  const auto basis = xi::BasisSet::build("x-dz", mol);
  const auto sys = xs::prepare_mo_system(mol, basis, 1);

  const auto singlet = xf::run_fci(sys.tables, 1, 1, 0);
  ASSERT_TRUE(singlet.solve.converged);
  EXPECT_NEAR(singlet.s_squared, 0.0, 1e-7);
  // He FCI in a modest s-only basis: between -2.88 and -2.86.
  EXPECT_LT(singlet.solve.energy, -2.85);
  EXPECT_GT(singlet.solve.energy, -2.91);

  const auto triplet = xf::run_fci(sys.tables, 2, 0, 0);
  ASSERT_TRUE(triplet.solve.converged);
  EXPECT_NEAR(triplet.s_squared, 2.0, 1e-10);
  EXPECT_GT(triplet.solve.energy, singlet.solve.energy);
}
