// The load-bearing correctness tests of the library: the DGEMM-based sigma
// (the paper's algorithm), the MOC baseline, and the explicit
// Slater-Condon Hamiltonian must agree to machine precision on random
// symmetry-blocked Hamiltonians across electron counts, point groups and
// target irreps.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;

namespace {

// Random integral tables respecting the orbital irrep structure: h is
// irrep-blocked, (pq|rs) vanishes unless the four irreps multiply to the
// totally symmetric irrep.
xi::IntegralTables random_tables(std::size_t norb, const std::string& group,
                                 std::vector<std::size_t> irreps,
                                 std::uint64_t seed) {
  xfci::Rng rng(seed);
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  t.group = xc::PointGroup::make(group);
  t.orbital_irreps = std::move(irreps);
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      const double v = (t.orbital_irreps[p] == t.orbital_irreps[q])
                           ? rng.uniform(-1, 1)
                           : 0.0;
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const std::size_t h4 = t.group.product(
              t.group.product(t.orbital_irreps[p], t.orbital_irreps[q]),
              t.group.product(t.orbital_irreps[r], t.orbital_irreps[s]));
          t.eri.set(p, q, r, s, h4 == 0 ? rng.uniform(-1, 1) : 0.0);
        }
  return t;
}

// hamiltonian_diagonal's partial sums in the same order, but with every
// (pp|qq) read through the packed EriTensor: its dense Coulomb table must
// not move a single bit.
std::vector<double> packed_eri_diagonal(const xf::CiSpace& space,
                                        const xi::IntegralTables& ints) {
  const auto& eri = ints.eri;
  const auto occupied = [](xf::StringMask m) {
    std::vector<int> occ;
    for (; m != 0; m &= m - 1) occ.push_back(std::countr_zero(m));
    return occ;
  };
  const auto string_energy = [&](const std::vector<int>& occ) {
    double e = 0.0;
    for (int p : occ) {
      e += ints.h(p, p);
      for (int q : occ) e += 0.5 * (eri(p, p, q, q) - eri(p, q, q, p));
    }
    return e;
  };
  std::vector<double> diag(space.dimension());
  for (const xf::CiBlock& blk : space.blocks())
    for (std::size_t ia = 0; ia < blk.na; ++ia) {
      const auto oa = occupied(space.alpha().mask(blk.halpha, ia));
      for (std::size_t ib = 0; ib < blk.nb; ++ib) {
        const auto ob = occupied(space.beta().mask(blk.hbeta, ib));
        double cross = 0.0;
        for (int p : oa)
          for (int q : ob) cross += eri(p, p, q, q);
        diag[blk.offset + ia * blk.nb + ib] =
            string_energy(oa) + string_energy(ob) + cross;
      }
    }
  return diag;
}

struct SigmaCase {
  std::size_t norb, na, nb;
  const char* group;
  std::vector<std::size_t> irreps;
  std::size_t target;
};

void expect_algorithms_agree(const SigmaCase& cs, std::uint64_t seed) {
  const auto tables = random_tables(cs.norb, cs.group, cs.irreps, seed);
  const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                          tables.orbital_irreps, cs.target);
  ASSERT_GT(space.dimension(), 0u);
  const xf::SigmaContext ctx(space, tables);

  xf::SigmaDense dense(space, tables);
  xf::SigmaDgemm dgemm(ctx);
  xf::SigmaMoc moc(ctx);

  xfci::Rng rng(seed + 1);
  const std::vector<double> c = rng.signed_vector(space.dimension());
  std::vector<double> s_dense(c.size()), s_dgemm(c.size()), s_moc(c.size());
  dense.apply(c, s_dense);
  dgemm.apply(c, s_dgemm);
  moc.apply(c, s_moc);

  double d1 = 0.0, d2 = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    d1 = std::max(d1, std::abs(s_dgemm[i] - s_dense[i]));
    d2 = std::max(d2, std::abs(s_moc[i] - s_dense[i]));
    norm = std::max(norm, std::abs(s_dense[i]));
  }
  EXPECT_LT(d1, 1e-11 * std::max(1.0, norm))
      << "dgemm vs dense, dim=" << space.dimension();
  EXPECT_LT(d2, 1e-11 * std::max(1.0, norm))
      << "moc vs dense, dim=" << space.dimension();
}

}  // namespace

class SigmaAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SigmaAgreement, RandomHamiltonians) {
  const int i = GetParam();
  static const std::vector<SigmaCase> cases = {
      // C1 cases across electron counts, including edge cases.
      {4, 1, 1, "C1", {0, 0, 0, 0}, 0},
      {4, 2, 2, "C1", {0, 0, 0, 0}, 0},
      {5, 2, 1, "C1", {0, 0, 0, 0, 0}, 0},
      {5, 3, 2, "C1", {0, 0, 0, 0, 0}, 0},
      {6, 2, 2, "C1", {0, 0, 0, 0, 0, 0}, 0},
      {4, 2, 0, "C1", {0, 0, 0, 0}, 0},     // no beta electrons
      {4, 0, 2, "C1", {0, 0, 0, 0}, 0},     // no alpha electrons
      {4, 1, 0, "C1", {0, 0, 0, 0}, 0},     // single electron
      {4, 4, 3, "C1", {0, 0, 0, 0}, 0},     // nearly full shell
      {3, 3, 3, "C1", {0, 0, 0}, 0},        // completely full
      // C2v with scrambled irreps, all four targets.
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 0},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 1},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 2},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 3},
      {6, 3, 2, "C2v", {0, 0, 1, 2, 3, 3}, 2},
      // Open shell in Cs.
      {5, 3, 1, "Cs", {0, 1, 0, 1, 0}, 1},
      // D2h, the group of the paper's C2 benchmark.
      {8, 2, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 0},
      {8, 3, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 5},
      {8, 2, 2, "D2h", {0, 0, 5, 5, 6, 6, 7, 7}, 4},
  };
  ASSERT_LT(static_cast<std::size_t>(i), cases.size());
  expect_algorithms_agree(cases[static_cast<std::size_t>(i)],
                          1234 + static_cast<std::uint64_t>(i));
}

INSTANTIATE_TEST_SUITE_P(Cases, SigmaAgreement, ::testing::Range(0, 19));

TEST(Sigma, HermiticityOfDgemm) {
  // <x|H y> == <H x|y> for random vectors.
  const auto tables = random_tables(6, "C2v", {0, 1, 0, 2, 3, 1}, 99);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xf::SigmaDgemm op(ctx);

  xfci::Rng rng(5);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> hx(x.size()), hy(y.size());
  op.apply(x, hx);
  op.apply(y, hy);
  double xhy = 0.0, hxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    xhy += x[i] * hy[i];
    hxy += hx[i] * y[i];
  }
  EXPECT_NEAR(xhy, hxy, 1e-10 * std::max(1.0, std::abs(xhy)));
}

TEST(Sigma, LinearityOfDgemm) {
  const auto tables = random_tables(5, "C1", {0, 0, 0, 0, 0}, 7);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xf::SigmaDgemm op(ctx);

  xfci::Rng rng(8);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
  std::vector<double> hx(x.size()), hy(x.size()), hz(x.size());
  op.apply(x, hx);
  op.apply(y, hy);
  op.apply(z, hz);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(hz[i], 2.0 * hx[i] - 3.0 * hy[i], 1e-11);
}

TEST(Sigma, DiagonalMatchesSlaterCondon) {
  // hamiltonian_diagonal must equal <D|H|D> from hamiltonian_element, and
  // bitwise the packed-ERI reference.
  const auto tables = random_tables(6, "C2v", {0, 1, 2, 3, 0, 1}, 55);
  const xf::CiSpace space(6, 3, 2, tables.group, tables.orbital_irreps, 1);
  const auto diag = xf::hamiltonian_diagonal(space, tables);
  for (std::size_t i = 0; i < space.dimension(); i += 3) {
    const auto d = xf::determinant_at(space, i);
    EXPECT_NEAR(diag[i], xf::hamiltonian_element(tables, d, d), 1e-12);
  }
  const auto reference = packed_eri_diagonal(space, tables);
  ASSERT_EQ(diag.size(), reference.size());
  for (std::size_t i = 0; i < diag.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(diag[i]),
              std::bit_cast<std::uint64_t>(reference[i]))
        << "determinant " << i;
}

TEST(Sigma, DenseHamiltonianIsSymmetric) {
  const auto tables = random_tables(5, "C1", {0, 0, 0, 0, 0}, 3);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const auto h = xf::build_dense_hamiltonian(space, tables);
  EXPECT_TRUE(h.is_symmetric(1e-12));
}

TEST(Sigma, StatsAccumulate) {
  const auto tables = random_tables(6, "C1", std::vector<std::size_t>(6, 0),
                                    11);
  const xf::CiSpace space(6, 3, 3, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xf::SigmaDgemm op(ctx);
  std::vector<double> c(space.dimension(), 1.0), s(space.dimension());
  op.apply(c, s);
  EXPECT_GT(op.stats().dgemm_flops, 0.0);
  EXPECT_GT(op.stats().gather_words, 0.0);
  const double f1 = op.stats().dgemm_flops;
  op.apply(c, s);
  EXPECT_NEAR(op.stats().dgemm_flops, 2.0 * f1, 1e-6);
  op.reset_stats();
  EXPECT_EQ(op.stats().dgemm_flops, 0.0);
}

TEST(TransposeVector, RoundTripIsIdentity) {
  const auto group = xc::PointGroup::make("C2v");
  const std::vector<std::size_t> irreps = {0, 1, 0, 2, 3};
  const xf::CiSpace space(5, 2, 3, group, irreps, 2);
  xfci::Rng rng(21);
  const auto v = rng.signed_vector(space.dimension());
  std::vector<double> t, back;
  space.transpose_vector(v, t);
  space.transposed().transpose_vector(t, back);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_DOUBLE_EQ(back[i], v[i]);
}
