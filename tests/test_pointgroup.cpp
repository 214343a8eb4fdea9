// Tests for the abelian point-group machinery: group construction,
// character tables, products, detection, and atom mappings.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "chem/pointgroup.hpp"
#include "common/error.hpp"

namespace xc = xfci::chem;

namespace {

xc::Molecule water() {
  // C2v with z the C2 axis, molecule in the xz plane.
  return xc::Molecule::from_xyz_bohr(
      "O 0.0 0.0 0.0\n"
      "H 1.43 0.0 1.108\n"
      "H -1.43 0.0 1.108\n");
}

}  // namespace

// The group name is held as a std::string, not a const char*: gtest names
// each case by its printed parameter, and a printed pointer carries a load
// address that changes from run to run.
class GroupOrderTest
    : public ::testing::TestWithParam<std::pair<std::string, std::size_t>> {};

TEST_P(GroupOrderTest, OrderAndIrrepCount) {
  const auto [name, order] = GetParam();
  const auto g = xc::PointGroup::make(name);
  EXPECT_EQ(g.order(), order);
  EXPECT_EQ(g.num_irreps(), order);
  EXPECT_EQ(g.name(), name);
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, GroupOrderTest,
    ::testing::Values(std::pair{"C1", 1ul}, std::pair{"Ci", 2ul},
                      std::pair{"Cs", 2ul}, std::pair{"C2", 2ul},
                      std::pair{"C2v", 4ul}, std::pair{"C2h", 4ul},
                      std::pair{"D2", 4ul}, std::pair{"D2h", 8ul}));

TEST(PointGroup, TrivialIrrepIsIndexZero) {
  for (const char* name : {"C1", "Ci", "Cs", "C2", "C2v", "C2h", "D2", "D2h"}) {
    const auto g = xc::PointGroup::make(name);
    for (std::size_t o = 0; o < g.order(); ++o)
      EXPECT_EQ(g.character(0, o), 1) << name;
  }
}

TEST(PointGroup, ProductTableIsAbelianGroup) {
  for (const char* name : {"Cs", "C2v", "C2h", "D2", "D2h"}) {
    const auto g = xc::PointGroup::make(name);
    const std::size_t n = g.num_irreps();
    for (std::size_t a = 0; a < n; ++a) {
      // Identity: a x 0 = a.  Self-inverse: a x a = 0 (real 1D irreps).
      EXPECT_EQ(g.product(a, 0), a) << name;
      EXPECT_EQ(g.product(a, a), 0u) << name;
      for (std::size_t b = 0; b < n; ++b) {
        EXPECT_EQ(g.product(a, b), g.product(b, a)) << name;
        // Characters multiply: chi_ab(o) = chi_a(o) chi_b(o).
        const std::size_t ab = g.product(a, b);
        for (std::size_t o = 0; o < g.order(); ++o)
          EXPECT_EQ(g.character(ab, o),
                    g.character(a, o) * g.character(b, o))
              << name;
      }
    }
  }
}

TEST(PointGroup, D2hMullikenLabels) {
  const auto g = xc::PointGroup::make("D2h");
  std::vector<std::string> names;
  for (std::size_t h = 0; h < 8; ++h) names.push_back(g.irrep_name(h));
  // All canonical labels present exactly once.
  for (const char* expect : {"Ag", "B1g", "B2g", "B3g", "Au", "B1u", "B2u",
                             "B3u"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), expect), 1)
        << "missing " << expect;
  }
  EXPECT_EQ(g.irrep_name(0), "Ag");
}

TEST(PointGroup, D2hProductExamples) {
  const auto g = xc::PointGroup::make("D2h");
  auto idx = [&](const std::string& n) {
    for (std::size_t h = 0; h < g.num_irreps(); ++h)
      if (g.irrep_name(h) == n) return h;
    ADD_FAILURE() << "no irrep " << n;
    return std::size_t{0};
  };
  // B1u x B1u = Ag;  B3u x B2u = B1g;  Au x B1u = B1g?  No: Au x B1u = B1g
  // is wrong -- Au x B1u: chi products give B1g only if ... verify via the
  // physical rule z x z = Ag, x x y = (xy) = B1g, xyz x z = (xy) = B1g.
  EXPECT_EQ(g.product(idx("B1u"), idx("B1u")), idx("Ag"));
  EXPECT_EQ(g.product(idx("B3u"), idx("B2u")), idx("B1g"));
  EXPECT_EQ(g.product(idx("Au"), idx("B1u")), idx("B1g"));
  EXPECT_EQ(g.product(idx("B2g"), idx("B3g")), idx("B1g"));
  EXPECT_EQ(g.product(idx("B1g"), idx("B2g")), idx("B3g"));
}

TEST(PointGroup, C2vLabels) {
  const auto g = xc::PointGroup::make("C2v");
  EXPECT_EQ(g.irrep_name(0), "A1");
  std::vector<std::string> names;
  for (std::size_t h = 0; h < 4; ++h) names.push_back(g.irrep_name(h));
  for (const char* expect : {"A1", "A2", "B1", "B2"})
    EXPECT_EQ(std::count(names.begin(), names.end(), expect), 1);
}

TEST(Detect, WaterIsC2v) {
  EXPECT_EQ(xc::PointGroup::detect(water()).name(), "C2v");
}

TEST(Detect, HomonuclearDiatomicOnZAxisIsD2h) {
  const auto mol = xc::Molecule::from_xyz_bohr(
      "C 0.0 0.0 1.2\n"
      "C 0.0 0.0 -1.2\n");
  EXPECT_EQ(xc::PointGroup::detect(mol).name(), "D2h");
}

TEST(Detect, HeteronuclearDiatomicIsC2v) {
  const auto mol = xc::Molecule::from_xyz_bohr(
      "C 0.0 0.0 0.0\n"
      "N 0.0 0.0 2.2\n");
  EXPECT_EQ(xc::PointGroup::detect(mol).name(), "C2v");
}

TEST(Detect, SingleAtomIsD2h) {
  const auto mol = xc::Molecule::from_xyz_bohr("O 0.0 0.0 0.0\n");
  EXPECT_EQ(xc::PointGroup::detect(mol).name(), "D2h");
}

TEST(Detect, AsymmetricMoleculeIsC1) {
  const auto mol = xc::Molecule::from_xyz_bohr(
      "O 0.1 0.2 0.3\n"
      "H 1.0 0.0 0.0\n"
      "H 0.0 1.3 0.7\n");
  EXPECT_EQ(xc::PointGroup::detect(mol).name(), "C1");
}

TEST(AtomMapping, WaterHydrogenSwap) {
  const auto mol = water();
  const auto g = xc::PointGroup::detect(mol);
  // Find the C2z operation and verify it swaps the hydrogens.
  for (std::size_t o = 0; o < g.order(); ++o) {
    if (g.ops()[o].name() == "C2z") {
      const auto map = g.atom_mapping(mol, o);
      EXPECT_EQ(map[0], 0u);
      EXPECT_EQ(map[1], 2u);
      EXPECT_EQ(map[2], 1u);
      return;
    }
  }
  FAIL() << "C2z not found in detected group";
}

TEST(AtomMapping, ThrowsForNonInvariantMolecule) {
  const auto mol = xc::Molecule::from_xyz_bohr(
      "O 0.0 0.0 0.0\n"
      "H 1.0 0.0 0.5\n");
  const auto d2h = xc::PointGroup::make("D2h");
  // The inversion cannot map this molecule onto itself.
  bool threw = false;
  for (std::size_t o = 0; o < d2h.order(); ++o) {
    if (d2h.ops()[o].name() == "i") {
      try {
        d2h.atom_mapping(mol, o);
      } catch (const xfci::Error&) {
        threw = true;
      }
    }
  }
  EXPECT_TRUE(threw);
}

TEST(SymOp, ApplyFlipsCoordinates) {
  // i negates everything.
  const xc::SymOp inv{7};
  const auto p = inv.apply({1.0, -2.0, 3.0});
  EXPECT_DOUBLE_EQ(p[0], -1.0);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
  EXPECT_DOUBLE_EQ(p[2], -3.0);
}

TEST(IrrepFromCharacters, RoundTripsAllIrreps) {
  const auto g = xc::PointGroup::make("D2h");
  for (std::size_t h = 0; h < g.num_irreps(); ++h) {
    std::vector<int> chi(g.order());
    for (std::size_t o = 0; o < g.order(); ++o) chi[o] = g.character(h, o);
    EXPECT_EQ(g.irrep_from_characters(chi), h);
  }
}
