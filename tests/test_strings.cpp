// Tests for occupation strings, addressing and the coupling tables: counts,
// rank/unrank bijection, and sign consistency against explicit operator
// algebra.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chem/pointgroup.hpp"
#include "fci/strings.hpp"

namespace xf = xfci::fci;
namespace xc = xfci::chem;

namespace {

std::size_t binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  std::size_t r = 1;
  for (std::size_t i = 0; i < k; ++i) r = r * (n - i) / (i + 1);
  return r;
}

// Sign of creating p on mask by explicit counting.
int ref_create_sign(xf::StringMask m, int p) {
  int cnt = 0;
  for (int i = 0; i < p; ++i)
    if (m & (xf::StringMask{1} << i)) ++cnt;
  return cnt % 2 == 0 ? 1 : -1;
}

}  // namespace

TEST(Signs, CreateMatchesExplicitCount) {
  for (xf::StringMask m : {0ull, 0b1011ull, 0b110101ull, 0b11111100ull}) {
    for (int p = 0; p < 10; ++p) {
      if (m & (xf::StringMask{1} << p)) continue;
      EXPECT_EQ(xf::create_sign(m, p), ref_create_sign(m, p));
    }
  }
}

TEST(Signs, CreateAnnihilateRoundTrip) {
  // a_p a^+_p |K> = |K> exactly (signs cancel).
  const xf::StringMask m = 0b101101;
  for (int p : {1, 4, 6, 9}) {
    if (m & (xf::StringMask{1} << p)) continue;
    const int s1 = xf::create_sign(m, p);
    const int s2 = xf::annihilate_sign(m | (xf::StringMask{1} << p), p);
    EXPECT_EQ(s1 * s2, 1);
  }
}

TEST(Signs, AnticommutationOfCreations) {
  // a+p a+q = -a+q a+p for p != q.
  const xf::StringMask m = 0b1001;
  const int p = 2, q = 5;
  const int s_pq = xf::create_sign(m, q) *
                   xf::create_sign(m | (xf::StringMask{1} << q), p);
  const int s_qp = xf::create_sign(m, p) *
                   xf::create_sign(m | (xf::StringMask{1} << p), q);
  EXPECT_EQ(s_pq, -s_qp);
}

struct SpaceParam {
  std::size_t norb, nelec;
};

// The ctest name, e.g. norb4_nelec2.
void PrintTo(const SpaceParam& p, std::ostream* os) {
  *os << "norb" << p.norb << "_nelec" << p.nelec;
}

class StringSpaceTest : public ::testing::TestWithParam<SpaceParam> {};

TEST_P(StringSpaceTest, CountsAndAddressingC1) {
  const auto p = GetParam();
  const auto group = xc::PointGroup::make("C1");
  const std::vector<std::size_t> irreps(p.norb, 0);
  const xf::StringSpace sp(p.norb, p.nelec, group, irreps);
  EXPECT_EQ(sp.total(), binomial(p.norb, p.nelec));
  EXPECT_EQ(sp.count(0), sp.total());
  // rank/unrank bijection.
  std::set<xf::StringMask> seen;
  for (std::size_t i = 0; i < sp.count(0); ++i) {
    const xf::StringMask m = sp.mask(0, i);
    EXPECT_EQ(__builtin_popcountll(m), static_cast<int>(p.nelec));
    EXPECT_EQ(sp.address(m), i);
    EXPECT_EQ(sp.irrep_of(m), 0u);
    seen.insert(m);
  }
  EXPECT_EQ(seen.size(), sp.total());
}

INSTANTIATE_TEST_SUITE_P(Sizes, StringSpaceTest,
                         ::testing::Values(SpaceParam{4, 2}, SpaceParam{6, 3},
                                           SpaceParam{8, 1}, SpaceParam{8, 0},
                                           SpaceParam{10, 5},
                                           SpaceParam{12, 4},
                                           SpaceParam{5, 5}));

TEST(StringSpace, SymmetryBlocksPartitionTheSpace) {
  const auto group = xc::PointGroup::make("D2h");
  // Orbital irreps like an atom: s, s, px, py, pz (B3u=?, ...): just use a
  // spread of labels.
  const std::vector<std::size_t> irreps = {0, 0, 1, 2, 4, 3, 5, 6};
  const xf::StringSpace sp(8, 3, group, irreps);
  std::size_t total = 0;
  for (std::size_t h = 0; h < sp.num_irreps(); ++h) {
    for (std::size_t i = 0; i < sp.count(h); ++i) {
      const auto m = sp.mask(h, i);
      EXPECT_EQ(xf::string_irrep(m, group, irreps), h);
      EXPECT_EQ(sp.address(m), i);
      EXPECT_EQ(sp.irrep_of(m), h);
    }
    total += sp.count(h);
  }
  EXPECT_EQ(total, binomial(8, 3));
}

TEST(StringIrrep, XorOfOccupiedOrbitals) {
  const auto group = xc::PointGroup::make("D2h");
  const std::vector<std::size_t> irreps = {0, 1, 2, 3, 4, 5, 6, 7};
  // Empty string: totally symmetric.
  EXPECT_EQ(xf::string_irrep(0, group, irreps), 0u);
  // Single orbital: its own irrep.
  for (std::size_t p = 0; p < 8; ++p)
    EXPECT_EQ(xf::string_irrep(xf::StringMask{1} << p, group, irreps),
              irreps[p]);
  // Product rule.
  EXPECT_EQ(xf::string_irrep(0b110, group, irreps),
            group.product(irreps[1], irreps[2]));
}

TEST(CreationTable, CompleteAndSignConsistent) {
  const auto group = xc::PointGroup::make("C2v");
  const std::vector<std::size_t> irreps = {0, 0, 1, 2, 3, 0};
  const xf::StringSpace m1(6, 2, group, irreps);
  const xf::StringSpace full(6, 3, group, irreps);
  const xf::CreationTable table(m1, full, irreps);

  std::size_t entries = 0;
  for (std::size_t h = 0; h < m1.num_irreps(); ++h) {
    for (std::size_t i = 0; i < m1.count(h); ++i) {
      const xf::StringMask k = m1.mask(h, i);
      for (const auto& cr : table.list(h, i)) {
        EXPECT_FALSE(k & (xf::StringMask{1} << cr.orbital));
        const xf::StringMask j = k | (xf::StringMask{1} << cr.orbital);
        EXPECT_EQ(full.irrep_of(j), cr.irrep);
        EXPECT_EQ(full.address(j), cr.address);
        EXPECT_EQ(static_cast<int>(cr.sign),
                  xf::create_sign(k, cr.orbital));
        ++entries;
      }
    }
  }
  // Every (K', r) pair appears exactly once: C(6,2) * 4 free orbitals.
  EXPECT_EQ(entries, binomial(6, 2) * 4);
}

TEST(PairCreationTable, CompleteAndOrdered) {
  const auto group = xc::PointGroup::make("C1");
  const std::vector<std::size_t> irreps(6, 0);
  const xf::StringSpace m2(6, 1, group, irreps);
  const xf::StringSpace full(6, 3, group, irreps);
  const xf::PairCreationTable table(m2, full, irreps);

  std::size_t entries = 0;
  for (std::size_t i = 0; i < m2.count(0); ++i) {
    const xf::StringMask k = m2.mask(0, i);
    for (const auto& pc : table.list(0, i)) {
      EXPECT_GT(pc.hi, pc.lo);
      const xf::StringMask j = k | (xf::StringMask{1} << pc.hi) |
                               (xf::StringMask{1} << pc.lo);
      EXPECT_EQ(__builtin_popcountll(j), 3);
      EXPECT_EQ(full.address(j), pc.address);
      // Sign: a+hi a+lo applied lo-first.
      const int s = xf::create_sign(k, pc.lo) *
                    xf::create_sign(k | (xf::StringMask{1} << pc.lo), pc.hi);
      EXPECT_EQ(static_cast<int>(pc.sign), s);
      ++entries;
    }
  }
  EXPECT_EQ(entries, binomial(6, 1) * binomial(5, 2));
}
