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

void sigma_one_electron_columns(const SigmaContext& ctx,
                                std::span<const ColumnView> views,
                                SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "one-electron sigma: one view per irrep required");
  if (space.nalpha() == 0) return;
  const auto& table = *ctx.alpha_create();
  const auto& h = ctx.ints().h;
  const StringSpace& m1 = *ctx.alpha_m1();

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

void sigma_same_spin_columns(const SigmaContext& ctx,
                             std::span<const ColumnView> views,
                             SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "same-spin sigma: one view per irrep required");
  if (space.nalpha() < 2) return;
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const StringSpace& m2 = *ctx.alpha_m2();
  const auto& pair_table = *ctx.alpha_pair();

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
  const auto& alist = ctx.alpha_create()->list(hk, ik);
  XFCI_ASSERT(ccols.size() == alist.size() && scols.size() == alist.size(),
              "mixed-spin column pointer count mismatch");
  const StringSpace& bm1 = *ctx.beta_m1();
  const auto& btable = *ctx.beta_create();

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

// Rank r's locally transposed blocks, laid out as ParallelSigma's
// build_beta_local lays them out: the views of a context over X come from
// X.transposed()'s blocks, column j = string j of the view's irrep and one
// row per column the rank owns.
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

// Runs the plan kernels and the reference loops (one-electron, then same
// spin) over copies of one view set's sigma.
void expect_columns_match(const xf::SigmaContext& ctx, const ViewSet& v,
                          const std::string& where) {
  const auto run = [&](auto one_electron, auto same_spin,
                       std::vector<double>& sigma, xf::SigmaStats& stats) {
    sigma = v.sigma;
    std::vector<xf::ColumnView> views = v.views;
    for (xf::ColumnView& view : views)
      if (view.sigma != nullptr)
        view.sigma = sigma.data() + (view.sigma - v.sigma.data());
    one_electron(ctx, views, stats);
    same_spin(ctx, views, stats);
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

// Rank `rank`'s rows of every full block, read and written in place through
// the column stride, as ParallelSigma's alpha side reads them: sigma must
// be bitwise the reference loops run on the same rows copied into compact
// buffers, with every other row untouched.
void expect_strided_matches(const xf::SigmaContext& ctx, const ViewSet& full,
                            const xfci::fcp::ColumnDistribution& rows,
                            std::size_t rank, const std::string& where) {
  const xf::CiSpace& xs = ctx.space();
  const xf::CiSpace& ys = xs.transposed();
  struct Part {
    const xf::CiBlock* blk;
    std::size_t r0, w, off;  // rows [r0, r0 + w); compact offset
  };
  std::vector<Part> parts;
  std::size_t total = 0;
  for (std::size_t b = 0; b < ys.blocks().size(); ++b) {
    const auto [r0, r1] = rows.columns(b, rank);
    if (r1 == r0) continue;
    const xf::CiBlock* blk = xs.block_for_alpha(ys.blocks()[b].hbeta);
    parts.push_back({blk, r0, r1 - r0, total});
    total += blk->na * (r1 - r0);
  }
  std::vector<double> sigma = full.sigma, want = full.sigma, cc(total),
                      sc(total);
  const std::size_t nh = xs.group().num_irreps();
  std::vector<xf::ColumnView> strided(nh), compact(nh);
  for (const Part& p : parts) {
    const std::size_t nb = p.blk->nb, at = p.blk->offset + p.r0;
    for (std::size_t j = 0; j < p.blk->na; ++j)
      for (std::size_t i = 0; i < p.w; ++i) {
        cc[p.off + j * p.w + i] = full.c[at + j * nb + i];
        sc[p.off + j * p.w + i] = full.sigma[at + j * nb + i];
      }
    strided[p.blk->halpha] = xf::ColumnView{.c = full.c.data() + at,
                                            .sigma = sigma.data() + at,
                                            .nrows = p.w,
                                            .stride = nb};
    compact[p.blk->halpha] =
        xf::ColumnView{cc.data() + p.off, sc.data() + p.off, p.w};
  }
  xf::SigmaStats st_plan, st_ref;
  xf::sigma_one_electron_columns(ctx, strided, st_plan);
  xf::sigma_same_spin_columns(ctx, strided, st_plan);
  xr::sigma_one_electron_columns(ctx, compact, st_ref);
  xr::sigma_same_spin_columns(ctx, compact, st_ref);
  for (const Part& p : parts)
    for (std::size_t j = 0; j < p.blk->na; ++j)
      for (std::size_t i = 0; i < p.w; ++i)
        want[p.blk->offset + p.r0 + j * p.blk->nb + i] =
            sc[p.off + j * p.w + i];
  const std::string at = where + ", strided rank " + std::to_string(rank);
  expect_same_bits(sigma, want, at);
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
    const xf::StringSpace& am1 = *ctx.alpha_m1();
    for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
      for (std::size_t ik = 0; ik < am1.count(hk); ++ik) {
        const auto& alist = ctx.alpha_create()->list(hk, ik);
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
  std::vector<double> s_plan, s_ref;
  xf::SigmaStats st_plan, st_ref;
  run(xf::sigma_mixed_spin_core, s_plan, st_plan);
  run(xr::sigma_mixed_spin_core, s_ref, st_ref);
  const std::string at = where + (drop ? ", mixed spin with null columns"
                                       : ", mixed spin");
  expect_same_bits(s_plan, s_ref, at);
  expect_same_stats(st_plan, st_ref, at);
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

  for (const xf::SigmaContext* x : {&ctx, &ctx.transposed()}) {
    const xf::CiSpace& xs = x->space();
    const std::string side = std::string(cs.group) + " case " +
                             std::to_string(i) +
                             (x == &ctx ? ", alpha side" : ", beta side");

    ViewSet full = full_views(xs, rng);
    expect_columns_match(*x, full, side);

    // Absent blocks: every other present view dropped.
    ViewSet absent = full;
    absent.name = "absent-block";
    absent.views = xfci::oracle::full_vector_views(xs, absent.c, absent.sigma);
    for (std::size_t h = 1; h < absent.views.size(); h += 2)
      absent.views[h] = xf::ColumnView{};
    expect_columns_match(*x, absent, side);

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
      expect_columns_match(*x, ranged, side);
    }

    // Rank-local transposed views (ParallelSigma's same-spin phases).
    const xf::CiSpace& ys = xs.transposed();
    const xfci::fcp::ColumnDistribution dist(ys, kRanks);
    const std::vector<double> cy = rng.signed_vector(ys.dimension());
    for (std::size_t r = 0; r < kRanks; ++r)
      expect_columns_match(*x, rank_local_views(xs, dist, r, cy, rng), side);

    // The same rows of every column in place (ParallelSigma's alpha side).
    for (std::size_t r = 0; r < kRanks; ++r)
      expect_strided_matches(*x, full, dist, r, side);

    if (x->alpha_create() != nullptr && x->beta_create() != nullptr) {
      expect_mixed_matches(*x, rng, /*drop=*/false, side);
      expect_mixed_matches(*x, rng, /*drop=*/true, side);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SigmaPlans, ::testing::Range(0, 19));
