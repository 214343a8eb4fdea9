// The load-bearing correctness tests of the library: the DGEMM-based sigma
// (the paper's algorithm), the MOC baseline -- both make_sigma, the phase
// engines on one rank -- and the explicit Slater-Condon Hamiltonian must
// agree to machine precision on random symmetry-blocked Hamiltonians
// across electron counts, point groups and target irreps.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "fci/fci.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "fci_parallel/distribution.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_kernels.hpp"
#include "linalg/kernels.hpp"
#include "serial_sigma.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;

namespace {

using xfci::oracle::random_tables;

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

const std::vector<SigmaCase>& agreement_cases() {
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
  return cases;
}

void expect_algorithms_agree(const SigmaCase& cs, std::uint64_t seed) {
  const auto tables = random_tables(cs.norb, cs.group, cs.irreps, seed);
  const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                          tables.orbital_irreps, cs.target);
  ASSERT_GT(space.dimension(), 0u);
  const xf::SigmaContext ctx(space, tables);

  xfci::oracle::SigmaDense dense(space, tables);
  const auto dgemm = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto moc = xf::make_sigma(xf::Algorithm::kMoc, ctx);

  xfci::Rng rng(seed + 1);
  const std::vector<double> c = rng.signed_vector(space.dimension());
  std::vector<double> s_dense(c.size()), s_dgemm(c.size()), s_moc(c.size());
  dense.apply(c, s_dense);
  dgemm->apply(c, s_dgemm);
  moc->apply(c, s_moc);

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
  const auto& cases = agreement_cases();
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
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);

  xfci::Rng rng(5);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> hx(x.size()), hy(y.size());
  op->apply(x, hx);
  op->apply(y, hy);
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
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);

  xfci::Rng rng(8);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
  std::vector<double> hx(x.size()), hy(x.size()), hz(x.size());
  op->apply(x, hx);
  op->apply(y, hy);
  op->apply(z, hz);
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
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  std::vector<double> c(space.dimension(), 1.0), s(space.dimension());
  op->apply(c, s);
  EXPECT_GT(op->stats().dgemm_flops, 0.0);
  EXPECT_GT(op->stats().gather_words, 0.0);
  const double f1 = op->stats().dgemm_flops;
  op->apply(c, s);
  EXPECT_NEAR(op->stats().dgemm_flops, 2.0 * f1, 1e-6);
  op->reset_stats();
  EXPECT_EQ(op->stats().dgemm_flops, 0.0);
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

// ------------------------------------------------ index plans vs. loops --
//
// The sigma kernels walk index plans that SigmaContext builds once.  Each
// plan holds the creation-table entries the kernels' irrep filters used to
// keep, in the order the filter loops visited them, so every sigma element
// sums the same terms in the same order: sigma must be bitwise equal and
// every SigmaStats counter exactly equal.  The oracle below is the filter
// loops, kept verbatim and used only by this test.

namespace xfci::fci::reference {

void sigma_one_electron_columns(const SigmaContext& ctx, Spin spin,
                                std::span<const ColumnView> views,
                                SigmaStats& stats) {
  XFCI_REQUIRE(views.size() == ctx.space().group().num_irreps(),
               "one-electron sigma: one view per irrep required");
  const SpinTables& t = ctx.tables(spin);
  if (!t.create) return;
  const auto& table = *t.create;
  const auto& h = ctx.ints().h;
  const StringSpace& m1 = *t.m1;

  for (std::size_t hk = 0; hk < m1.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m1.count(hk); ++ik) {
      const auto& list = table.list(hk, ik);
      for (const Creation& cq : list) {
        const ColumnView& vj = views[cq.irrep];
        if (vj.c == nullptr) continue;
        const double* ccol = vj.c + cq.address * vj.nrows;
        for (const Creation& cp : list) {
          // h_pq vanishes between different orbital irreps.
          if (ctx.orbital_irrep(cp.orbital) != ctx.orbital_irrep(cq.orbital))
            continue;
          if (cp.address < vj.write_begin || cp.address >= vj.write_end)
            continue;
          const double hpq = h(cp.orbital, cq.orbital);
          if (hpq == 0.0) continue;
          // Same target irrep, hence the same view.
          double* scol = vj.sigma + cp.address * vj.nrows;
          linalg::daxpy_n(vj.nrows, cp.sign * cq.sign * hpq, ccol, scol);
          stats.indexed_ops += static_cast<double>(vj.nrows);
        }
      }
    }
  }
}

void sigma_same_spin_columns(const SigmaContext& ctx, Spin spin,
                             std::span<const ColumnView> views,
                             SigmaStats& stats) {
  const auto& group = ctx.space().group();
  XFCI_REQUIRE(views.size() == group.num_irreps(),
               "same-spin sigma: one view per irrep required");
  const SpinTables& t = ctx.tables(spin);
  if (!t.m2) return;
  const std::size_t nh = group.num_irreps();
  const StringSpace& m2 = *t.m2;
  const auto& pair_table = *t.pair;

  linalg::Matrix d, e;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      const auto& list = pair_table.list(hk, ik);
      for (std::size_t hp = 0; hp < nh; ++hp) {
        const std::size_t npairs = ctx.ss_num_pairs(hp);
        if (npairs == 0) continue;
        const std::size_t hj = group.product(hk, hp);
        const ColumnView& view = views[hj];
        if (view.c == nullptr) continue;
        const std::size_t nr = view.nrows;
        if (nr == 0) continue;

        // Step 1 (Eq. 7): gather columns into D[(q>s), spectator rows].
        d.resize(npairs, nr);
        for (const PairCreation& pc : list) {
          if (pc.irrep != hj) continue;  // pair of a different irrep
          const std::size_t row = ctx.ss_pair_position(pc.hi, pc.lo);
          XFCI_DCHECK(row < npairs,
                      "same-spin gather row outside the pair block");
          const double* ccol = view.c + pc.address * nr;
          double* drow = d.data() + row * nr;
          for (std::size_t i = 0; i < nr; ++i) drow[i] = pc.sign * ccol[i];
          stats.gather_words += static_cast<double>(nr);
        }

        // Step 2 (Eq. 8): E = G * D, one dense DGEMM.
        e.resize(npairs, nr);
        const linalg::Matrix& g = ctx.ss_integrals(hp);
        linalg::gemm(false, false, npairs, nr, npairs, 1.0, g.data(), npairs,
                     d.data(), nr, 0.0, e.data(), nr);
        stats.dgemm_flops += linalg::gemm_flops(npairs, nr, npairs);
        stats.dgemm_shapes.push_back({npairs, nr, npairs});

        // Step 3 (Eq. 9): scatter-accumulate E rows into sigma columns.
        for (const PairCreation& pc : list) {
          if (pc.irrep != hj) continue;
          const std::size_t row = ctx.ss_pair_position(pc.hi, pc.lo);
          XFCI_DCHECK(row < npairs,
                      "same-spin scatter row outside the pair block");
          double* scol = view.sigma + pc.address * nr;
          linalg::daxpy_n(nr, pc.sign, e.data() + row * nr, scol);
          stats.scatter_words += static_cast<double>(nr);
        }
      }
    }
  }
}

void sigma_mixed_spin_core(const SigmaContext& ctx, std::size_t hk,
                           std::size_t ik,
                           std::span<const double* const> ccols,
                           std::span<double* const> scols,
                           SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const auto& alist = ctx.tables(Spin::kAlpha).create->list(hk, ik);
  XFCI_ASSERT(ccols.size() == alist.size() && scols.size() == alist.size(),
              "mixed-spin column pointer count mismatch");
  const StringSpace& bm1 = *ctx.tables(Spin::kBeta).m1;
  const auto& btable = *ctx.tables(Spin::kBeta).create;

  thread_local linalg::Matrix d, e;
  for (std::size_t hkb = 0; hkb < nh; ++hkb) {
    const std::size_t nkb = bm1.count(hkb);
    if (nkb == 0) continue;
    const std::size_t hx =
        group.product(group.product(space.target_irrep(), hk), hkb);
    const std::size_t ncols = ctx.ab_num_cols(hx);
    if (ncols == 0) continue;

    // Step 1 (Eq. 4): build D[K'beta, (s,q)] from the gathered C columns.
    d.resize(nkb, ncols);
    bool any = false;
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cq = alist[ai];
      const double* ccol = ccols[ai];
      if (ccol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cq.orbital);
      const std::size_t hs = group.product(hx, ctx.orbital_irrep(cq.orbital));
      for (std::size_t ikb = 0; ikb < nkb; ++ikb) {
        double* drow = d.data() + ikb * ncols;
        for (const Creation& cs : btable.list(hkb, ikb)) {
          if (ctx.orbital_irrep(cs.orbital) != hs) continue;
          XFCI_DCHECK(colbase + ctx.orbital_position(cs.orbital) < ncols,
                      "mixed-spin gather column outside the D block");
          drow[colbase + ctx.orbital_position(cs.orbital)] =
              cq.sign * cs.sign * ccol[cs.address];
        }
      }
      any = true;
    }
    if (!any) continue;

    // Step 2 (Eq. 5): E = D * INT, one dense DGEMM.
    e.resize(nkb, ncols);
    const linalg::Matrix& g = ctx.ab_integrals(hx);
    linalg::gemm(false, false, nkb, ncols, ncols, 1.0, d.data(), ncols,
                 g.data(), ncols, 0.0, e.data(), ncols);
    stats.dgemm_flops += linalg::gemm_flops(nkb, ncols, ncols);
    stats.dgemm_shapes.push_back({nkb, ncols, ncols});

    // Step 3 (Eq. 6): scatter E back through beta creations into the local
    // sigma column buffers.
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cp = alist[ai];
      double* scol = scols[ai];
      if (scol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cp.orbital);
      const std::size_t hr = group.product(hx, ctx.orbital_irrep(cp.orbital));
      for (std::size_t ikb = 0; ikb < nkb; ++ikb) {
        const double* erow = e.data() + ikb * ncols;
        for (const Creation& cr : btable.list(hkb, ikb)) {
          if (ctx.orbital_irrep(cr.orbital) != hr) continue;
          XFCI_DCHECK(colbase + ctx.orbital_position(cr.orbital) < ncols,
                      "mixed-spin scatter column outside the E block");
          scol[cr.address] +=
              cp.sign * cr.sign *
              erow[colbase + ctx.orbital_position(cr.orbital)];
        }
      }
    }
  }
}

}  // namespace xfci::fci::reference

namespace {

namespace xr = xfci::fci::reference;

// One set of ColumnViews over flat c / sigma buffers it owns.
struct ViewSet {
  std::string name;
  std::vector<double> c, sigma;
  std::vector<xf::ColumnView> views;
};

// The views of a full vector (whole blocks, as one rank sees them), with
// random sigma so the kernels accumulate onto nonzero columns.
ViewSet full_views(const xf::CiSpace& space, xfci::Rng& rng) {
  ViewSet v{"full", rng.signed_vector(space.dimension()),
            rng.signed_vector(space.dimension()), {}};
  v.views = xfci::oracle::full_vector_views(space, v.c, v.sigma);
  return v;
}

// Rank r's compact local copies, laid out as ParallelSigma's same-spin
// phases lay them out on both sides: the views over X, the space whose
// column strings are the kernels' spin, come from X.transposed()'s blocks,
// column j = string j of the view's irrep and one row per column of
// X.transposed() the rank owns.
ViewSet rank_local_views(const xf::CiSpace& x_space,
                         const xfci::fcp::ColumnDistribution& dist,
                         std::size_t rank, std::span<const double> c,
                         xfci::Rng& rng) {
  const xf::CiSpace& y = x_space.transposed();
  ViewSet v{"rank " + std::to_string(rank), {}, {}, {}};
  std::vector<std::size_t> off(y.blocks().size());
  std::size_t total = 0;
  for (std::size_t b = 0; b < y.blocks().size(); ++b) {
    const auto [c0, c1] = dist.columns(b, rank);
    off[b] = total;
    total += (c1 - c0) * y.blocks()[b].nb;
  }
  v.c.resize(total);
  v.sigma = rng.signed_vector(total);
  v.views.assign(y.group().num_irreps(), xf::ColumnView{});
  for (std::size_t b = 0; b < y.blocks().size(); ++b) {
    const auto [c0, c1] = dist.columns(b, rank);
    const std::size_t w = c1 - c0;
    if (w == 0) continue;
    const xf::CiBlock& blk = y.blocks()[b];
    double* tc = v.c.data() + off[b];
    const double* src = c.data() + blk.offset + c0 * blk.nb;
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < blk.nb; ++j)
        tc[j * w + i] = src[i * blk.nb + j];
    v.views[blk.hbeta] = xf::ColumnView{tc, v.sigma.data() + off[b], w};
  }
  return v;
}

void expect_same_stats(const xf::SigmaStats& got, const xf::SigmaStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.dgemm_flops, want.dgemm_flops) << where;
  EXPECT_EQ(got.indexed_ops, want.indexed_ops) << where;
  EXPECT_EQ(got.gather_words, want.gather_words) << where;
  EXPECT_EQ(got.scatter_words, want.scatter_words) << where;
  EXPECT_EQ(got.dgemm_shapes, want.dgemm_shapes) << where;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  if (got.empty()) return;  // memcmp needs non-null pointers
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << where;
}

// Runs the plan kernels and the reference loops of `spin` (one-electron,
// then same spin) over copies of one view set's sigma.
void expect_columns_match(const xf::SigmaContext& ctx, xf::Spin spin,
                          const ViewSet& v, const std::string& where) {
  const auto run = [&](auto one_electron, auto same_spin,
                       std::vector<double>& sigma, xf::SigmaStats& stats) {
    sigma = v.sigma;
    std::vector<xf::ColumnView> views = v.views;
    for (xf::ColumnView& view : views)
      if (view.sigma != nullptr)
        view.sigma = sigma.data() + (view.sigma - v.sigma.data());
    one_electron(ctx, spin, views, stats);
    same_spin(ctx, spin, views, stats);
  };
  std::vector<double> s_plan, s_ref;
  xf::SigmaStats st_plan, st_ref;
  run(xf::sigma_one_electron_columns, xf::sigma_same_spin_columns, s_plan,
      st_plan);
  run(xr::sigma_one_electron_columns, xr::sigma_same_spin_columns, s_ref,
      st_ref);
  const std::string at = where + ", " + v.name + " views";
  expect_same_bits(s_plan, s_ref, at);
  expect_same_stats(st_plan, st_ref, at);
}

// Every mixed-spin task over a full vector, the columns wired in place.
// With `drop` set some ccols / scols entries are null, as ParallelSigma
// stages columns it cannot reach.
void expect_mixed_matches(const xf::SigmaContext& ctx, xfci::Rng& rng,
                          bool drop, const std::string& where) {
  const xf::CiSpace& space = ctx.space();
  const std::vector<double> c = rng.signed_vector(space.dimension());
  const std::vector<double> sigma0 = rng.signed_vector(space.dimension());
  const auto run = [&](auto core, std::vector<double>& sigma,
                       xf::SigmaStats& stats) {
    sigma = sigma0;
    const xf::SpinTables& alpha = ctx.tables(xf::Spin::kAlpha);
    for (std::size_t hk = 0; hk < alpha.m1->num_irreps(); ++hk)
      for (std::size_t ik = 0; ik < alpha.m1->count(hk); ++ik) {
        const auto& alist = alpha.create->list(hk, ik);
        std::vector<const double*> ccols(alist.size(), nullptr);
        std::vector<double*> scols(alist.size(), nullptr);
        for (std::size_t ai = 0; ai < alist.size(); ++ai) {
          const xf::CiBlock* blk = space.block_for_alpha(alist[ai].irrep);
          if (blk == nullptr) continue;
          const std::size_t col = blk->offset + alist[ai].address * blk->nb;
          const std::size_t pattern = drop ? (ai + ik) % 4 : 0;
          if (pattern != 1 && pattern != 3) ccols[ai] = c.data() + col;
          if (pattern != 2 && pattern != 3) scols[ai] = sigma.data() + col;
        }
        core(ctx, hk, ik, ccols, scols, stats);
      }
  };
  // INT packed for the kernel the reference's gemm() dispatches to.
  const std::vector<xfci::linalg::GemmPackedB> ints =
      xf::pack_ab_integrals(ctx);
  const auto plan_core = [&ints](const xf::SigmaContext& x, std::size_t hk,
                                 std::size_t ik,
                                 std::span<const double* const> cc,
                                 std::span<double* const> sc,
                                 xf::SigmaStats& st) {
    xf::sigma_mixed_spin_core(x, ints, hk, ik, cc, sc, st);
  };
  std::vector<double> s_plan, s_ref;
  xf::SigmaStats st_plan, st_ref;
  run(plan_core, s_plan, st_plan);
  run(xr::sigma_mixed_spin_core, s_ref, st_ref);
  const std::string at = where + (drop ? ", mixed spin with null columns"
                                       : ", mixed spin");
  expect_same_bits(s_plan, s_ref, at);
  expect_same_stats(st_plan, st_ref, at);
}

// Restores the cpuid-dispatched default GEMM kernel when a test ends.
struct KernelGuard {
  ~KernelGuard() { xfci::linalg::set_gemm_kernel(""); }
};

constexpr xf::Spin kSpins[] = {xf::Spin::kAlpha, xf::Spin::kBeta};

const char* side_name(xf::Spin s) {
  return s == xf::Spin::kAlpha ? "alpha side" : "beta side";
}

// The space whose column (alpha) strings are spin s's strings of `space`:
// the one whose blocks spin s's views cover.
const xf::CiSpace& columns_of(const xf::CiSpace& space, xf::Spin s) {
  return s == xf::Spin::kAlpha ? space : space.transposed();
}

}  // namespace

class SigmaPlans : public ::testing::TestWithParam<int> {};

TEST_P(SigmaPlans, MatchTheIrrepFilterLoopsBitwise) {
  const auto i = static_cast<std::size_t>(GetParam());
  ASSERT_LT(i, agreement_cases().size());
  const SigmaCase& cs = agreement_cases()[i];
  auto tables = random_tables(cs.norb, cs.group, cs.irreps, 4321 + i);
  // A zero integral inside an irrep: the one-electron plan drops it, as the
  // loop skipped it.
  for (std::size_t p = 1; p < cs.norb; ++p)
    if (tables.orbital_irreps[p] == tables.orbital_irreps[0]) {
      tables.h(0, p) = tables.h(p, 0) = 0.0;
      break;
    }
  const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                          tables.orbital_irreps, cs.target);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(77 + i);
  constexpr std::size_t kRanks = 16;
  KernelGuard guard;

  for (const xf::Spin spin : kSpins) {
    const xf::CiSpace& xs = columns_of(space, spin);
    const std::string side = std::string(cs.group) + " case " +
                             std::to_string(i) + ", " + side_name(spin);

    ViewSet full = full_views(xs, rng);
    expect_columns_match(ctx, spin, full, side);

    // Absent blocks: every other present view dropped.
    ViewSet absent = full;
    absent.name = "absent-block";
    absent.views = xfci::oracle::full_vector_views(xs, absent.c, absent.sigma);
    for (std::size_t h = 1; h < absent.views.size(); h += 2)
      absent.views[h] = xf::ColumnView{};
    expect_columns_match(ctx, spin, absent, side);

    // MOC alpha side: every column readable, a rank's own range writable.
    const xfci::fcp::ColumnDistribution own(xs, kRanks);
    for (std::size_t r = 0; r < kRanks; ++r) {
      ViewSet ranged = full;
      ranged.name = "write-range rank " + std::to_string(r);
      for (std::size_t b = 0; b < xs.blocks().size(); ++b) {
        const xf::CiBlock& blk = xs.blocks()[b];
        const auto [c0, c1] = own.columns(b, r);
        ranged.views[blk.halpha] =
            xf::ColumnView{ranged.c.data() + blk.offset,
                           ranged.sigma.data() + blk.offset, blk.nb, c0, c1};
      }
      expect_columns_match(ctx, spin, ranged, side);
    }

    // Rank-local transposed views (ParallelSigma's same-spin phases).
    const xf::CiSpace& ys = xs.transposed();
    const xfci::fcp::ColumnDistribution dist(ys, kRanks);
    const std::vector<double> cy = rng.signed_vector(ys.dimension());
    for (std::size_t r = 0; r < kRanks; ++r)
      expect_columns_match(ctx, spin, rank_local_views(xs, dist, r, cy, rng),
                           side);
  }

  // Mixed spin, and with the spins' roles swapped over the transposed
  // space.
  const xf::SigmaContext swapped(space.transposed(), tables);
  for (const xf::SigmaContext* x : {&ctx, &swapped}) {
    if (!x->tables(xf::Spin::kAlpha).create ||
        !x->tables(xf::Spin::kBeta).create)
      continue;
    const std::string roles = std::string(cs.group) + " case " +
                              std::to_string(i) +
                              (x == &ctx ? "" : ", roles swapped");
    for (const std::string& kernel : xfci::linalg::gemm_kernel_names()) {
      ASSERT_TRUE(xfci::linalg::set_gemm_kernel(kernel));
      const std::string at = roles + ", " + kernel + " kernel";
      expect_mixed_matches(*x, rng, /*drop=*/false, at);
      expect_mixed_matches(*x, rng, /*drop=*/true, at);
    }
  }
}

namespace {

// Field by field: OneElectronPlanEntry has padding, which a memcmp over
// the entry array would read.
bool same_entry(const xf::PairPlanEntry& a, const xf::PairPlanEntry& b) {
  return a.row == b.row && a.address == b.address && a.sign == b.sign;
}
bool same_entry(const xf::OneElectronPlanEntry& a,
                const xf::OneElectronPlanEntry& b) {
  return std::bit_cast<std::uint64_t>(a.coef) ==
             std::bit_cast<std::uint64_t>(b.coef) &&
         a.irrep == b.irrep && a.source == b.source && a.target == b.target;
}

template <class Entry>
void expect_same_plan(const xf::IndexPlan<Entry>& got,
                      const xf::IndexPlan<Entry>& want,
                      const std::string& where) {
  EXPECT_EQ(got.offsets, want.offsets) << where;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
  for (std::size_t e = 0; e < got.entries.size(); ++e)
    EXPECT_TRUE(same_entry(got.entries[e], want.entries[e]))
        << where << ", entry " << e;
}

void expect_same_counts(const xf::StringSpace* got,
                        const xf::StringSpace* want,
                        const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where;
  if (got == nullptr) return;
  ASSERT_EQ(got->num_irreps(), want->num_irreps()) << where;
  for (std::size_t h = 0; h < got->num_irreps(); ++h)
    EXPECT_EQ(got->count(h), want->count(h)) << where << ", irrep " << h;
}

}  // namespace

// One context holds both spins' tables.  Each spin's must equal, entry by
// entry, what a context over the transposed space builds for the other
// spin, so a spin's kernels sum every sigma element exactly as the other
// spin's kernels do on the transposed space.
TEST_P(SigmaPlans, EachSpinsTablesEqualTheTransposedContextsBitwise) {
  const auto i = static_cast<std::size_t>(GetParam());
  ASSERT_LT(i, agreement_cases().size());
  const SigmaCase& cs = agreement_cases()[i];
  const auto tables = random_tables(cs.norb, cs.group, cs.irreps, 2468 + i);
  const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                          tables.orbital_irreps, cs.target);
  const xf::SigmaContext ctx(space, tables);
  const xf::SigmaContext swapped(space.transposed(), tables);
  for (const xf::Spin spin : kSpins) {
    const xf::Spin other =
        spin == xf::Spin::kAlpha ? xf::Spin::kBeta : xf::Spin::kAlpha;
    const xf::SpinTables& got = ctx.tables(spin);
    const xf::SpinTables& want = swapped.tables(other);
    const std::string where = std::string(cs.group) + " case " +
                              std::to_string(i) + ", " + side_name(spin);
    expect_same_counts(got.m1.get(), want.m1.get(), where + ", (N-1)");
    expect_same_counts(got.m2.get(), want.m2.get(), where + ", (N-2)");
    EXPECT_EQ(got.create == nullptr, want.create == nullptr) << where;
    EXPECT_EQ(got.pair == nullptr, want.pair == nullptr) << where;
    EXPECT_EQ(got.ss_string_base, want.ss_string_base) << where;
    expect_same_plan(got.same_spin_plan, want.same_spin_plan,
                     where + ", same-spin plan");
    expect_same_plan(got.one_electron_plan, want.one_electron_plan,
                     where + ", one-electron plan");
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SigmaPlans, ::testing::Range(0, 19));

namespace {

// Inputs at the stacked same-spin GEMM's run boundaries (at most 128
// columns, sigma_dgemm.cpp), too big for SigmaAgreement's dense oracle.  At
// 1 and 3 ranks the C1 views hold 40-210 rows, and the 210-row views pass
// the cap: one string per GEMM.  At 16 ranks they hold 7-14 rows and stack
// 9-18 strings: 4α4β's 45 (N-2) strings split into even runs of 9, while
// 4α3β's sides end in a short run (45 strings in runs of 16-18, 10 in runs
// of 9).  Each D2h irrep holds one or two (N-2) strings, so every D2h run
// is a short one.
const std::vector<SigmaCase>& batch_cases() {
  static const std::vector<SigmaCase> cases = {
      {10, 4, 4, "C1", std::vector<std::size_t>(10, 0), 0},
      {10, 4, 3, "C1", std::vector<std::size_t>(10, 0), 0},
      {12, 3, 3, "D2h", {0, 5, 6, 7, 1, 2, 3, 4, 0, 5, 6, 7}, 0},
  };
  return cases;
}

// A mixed-spin input past the pre-laid product's block boundaries, too big
// for SigmaAgreement's dense oracle: C1 norb 17, 2α3β (92,480
// determinants).  Every INT block has ncols = 289 columns, so each product
// sums two k-panels (kc = 256); on the alpha side nkb = 136 beta (N-1)
// strings make A 34 (mr = 4) or 17 (mr = 8) row strips deep and two row
// blocks (mc = 128).
const std::vector<SigmaCase>& panel_cases() {
  static const std::vector<SigmaCase> cases = {
      {17, 2, 3, "C1", std::vector<std::size_t>(17, 0), 0},
  };
  return cases;
}

}  // namespace

TEST(SigmaPlans, MixedSpinPanelsMatchTheFilterLoopsBitwise) {
  KernelGuard guard;
  for (std::size_t i = 0; i < panel_cases().size(); ++i) {
    const SigmaCase& cs = panel_cases()[i];
    const auto tables = random_tables(cs.norb, cs.group, cs.irreps, 5432 + i);
    const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                            tables.orbital_irreps, cs.target);
    const xf::SigmaContext ctx(space, tables);
    const xf::SigmaContext swapped(space.transposed(), tables);
    for (const std::string& kernel : xfci::linalg::gemm_kernel_names()) {
      ASSERT_TRUE(xfci::linalg::set_gemm_kernel(kernel));
      xfci::Rng rng(66 + i);
      for (const xf::SigmaContext* x : {&ctx, &swapped}) {
        const std::string where =
            std::string(cs.group) + " panel case " + std::to_string(i) +
            (x == &ctx ? ", " : ", roles swapped, ") + kernel + " kernel";
        expect_mixed_matches(*x, rng, /*drop=*/false, where);
        expect_mixed_matches(*x, rng, /*drop=*/true, where);
      }
    }
  }
}

TEST(SigmaPlans, StackedRunsMatchThePerStringLoopsBitwise) {
  KernelGuard guard;
  for (std::size_t i = 0; i < batch_cases().size(); ++i) {
    const SigmaCase& cs = batch_cases()[i];
    const auto tables = random_tables(cs.norb, cs.group, cs.irreps, 8765 + i);
    const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                            tables.orbital_irreps, cs.target);
    const xf::SigmaContext ctx(space, tables);
    for (const std::string& kernel : xfci::linalg::gemm_kernel_names()) {
      ASSERT_TRUE(xfci::linalg::set_gemm_kernel(kernel));
      xfci::Rng rng(99 + i);
      for (const xf::Spin spin : kSpins) {
        const xf::CiSpace& xs = columns_of(space, spin);
        const xf::CiSpace& ys = xs.transposed();
        const std::vector<double> cy = rng.signed_vector(ys.dimension());
        for (const std::size_t ranks : {1u, 3u, 16u}) {
          const std::string where =
              std::string(cs.group) + " batch case " + std::to_string(i) +
              ", " + side_name(spin) + ", " + kernel + " kernel, " +
              std::to_string(ranks) + " ranks";
          const xfci::fcp::ColumnDistribution dist(ys, ranks);
          for (std::size_t r = 0; r < ranks; ++r)
            expect_columns_match(ctx, spin,
                                 rank_local_views(xs, dist, r, cy, rng),
                                 where);
        }
      }
    }
  }
}
