// DGEMM-based sigma kernels (paper section 2.1, Eqs. 4-9).
//
// All three building blocks are column-oriented: excitations act on the
// column string index, so gathers and scatters touch contiguous columns.
// The same-spin / one-electron kernels run over ColumnViews so
// ParallelSigma can hand them each rank's compact local copies (paper
// section 3.3: "In the same-spin routine the transposed local C and sigma
// coefficients matrices are used to facilitate the gather and scatter
// operations"); the mixed-spin core receives explicit per-column pointers
// so ParallelSigma can route them through one-sided DDI gather/accumulate.

#include <algorithm>
#include <array>
#include <vector>

#include "fci/sigma.hpp"
#include "linalg/gemm.hpp"

namespace xfci::fci {
namespace {

// Widest stacked D block of the same-spin GEMM, in columns.  Consecutive
// (N-2) strings that multiply the same G_hP share one GEMM while their
// blocks fit; a view of this many rows or more runs one string per GEMM.
constexpr std::size_t kSameSpinBatchCols = 128;

// y += s * x.  The plan loops call it once per entry on rank views of a
// few rows, where an out-of-line call would cost more than the loop.
inline void axpy(std::size_t n, double s, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

}  // namespace

void sigma_one_electron_columns(const SigmaContext& ctx, Spin spin,
                                std::span<const ColumnView> views,
                                SigmaStats& stats) {
  XFCI_REQUIRE(views.size() == ctx.space().group().num_irreps(),
               "one-electron sigma: one view per irrep required");
  for (const OneElectronPlanEntry& x : ctx.one_electron_plan(spin)) {
    const ColumnView& vj = views[x.irrep];
    if (vj.c == nullptr) continue;
    if (x.target < vj.write_begin || x.target >= vj.write_end) continue;
    axpy(vj.nrows, x.coef, vj.c + x.source * vj.nrows,
         vj.sigma + x.target * vj.nrows);
    stats.indexed_ops += static_cast<double>(vj.nrows);
  }
}

void sigma_same_spin_columns(const SigmaContext& ctx, Spin spin,
                             std::span<const ColumnView> views,
                             SigmaStats& stats) {
  const auto& group = ctx.space().group();
  XFCI_REQUIRE(views.size() == group.num_irreps(),
               "same-spin sigma: one view per irrep required");
  if (!ctx.tables(spin).m2) return;  // under two electrons
  const std::size_t nh = group.num_irreps();
  const StringSpace& m2 = *ctx.tables(spin).m2;

  // Every (N-2) string K of irrep hK multiplies G_hP for each pair irrep
  // hP, so the D blocks of a run of consecutive K stack along n into one
  // npairs x (run * nrows) GEMM.  Each E(i, j) sums its k-panels in one
  // order wherever column j sits, hK stays outermost with K ascending
  // inside each (hK, hP), each target view takes one hP per hK, and c never
  // aliases sigma: every sigma element sums the same terms in the same
  // order as one GEMM per K.
  // D is zeroed per run (its gather writes a subset); E grows only and
  // only gemm() writes it (beta = 0 overwrites every element).
  linalg::Matrix d;
  std::vector<double> e;
  std::vector<std::array<std::size_t, 3>> shapes;  // this hK's, in hP order
  for (std::size_t hk = 0; hk < nh; ++hk) {
    const std::size_t nk = m2.count(hk);
    shapes.clear();
    for (std::size_t hp = 0; hp < nh; ++hp) {
      const std::size_t npairs = ctx.ss_num_pairs(hp);
      if (npairs == 0) continue;
      const std::size_t hj = group.product(hk, hp);
      const ColumnView& view = views[hj];
      if (view.c == nullptr) continue;
      const std::size_t nr = view.nrows;
      if (nr == 0) continue;
      shapes.push_back({npairs, nr, npairs});
      const linalg::Matrix& g = ctx.ss_integrals(hp);
      const std::size_t run = std::max<std::size_t>(1, kSameSpinBatchCols / nr);

      for (std::size_t k0 = 0; k0 < nk; k0 += run) {
        const std::size_t nb = std::min(run, nk - k0);
        const std::size_t w = nb * nr;  // leading dimension of D and E

        // Step 1 (Eq. 7): gather columns into D[(q>s), (K, spectator rows)].
        d.resize(npairs, w);
        for (std::size_t s = 0; s < nb; ++s) {
          const auto entries = ctx.same_spin_plan(spin, hk, k0 + s, hj);
          for (const PairPlanEntry& pe : entries) {
            XFCI_DCHECK(pe.row < npairs,
                        "same-spin gather row outside the pair block");
            const double* ccol = view.c + pe.address * nr;
            double* drow = d.data() + pe.row * w + s * nr;
            for (std::size_t i = 0; i < nr; ++i) drow[i] = pe.sign * ccol[i];
          }
          stats.gather_words += static_cast<double>(entries.size() * nr);
        }

        // Step 2 (Eq. 8): E = G * D, one dense DGEMM for the run.
        if (e.size() < npairs * w) e.resize(npairs * w);
        linalg::gemm(false, false, npairs, w, npairs, 1.0, g.data(), npairs,
                     d.data(), w, 0.0, e.data(), w);

        // Step 3 (Eq. 9): scatter-accumulate E rows into sigma columns.
        for (std::size_t s = 0; s < nb; ++s) {
          const auto entries = ctx.same_spin_plan(spin, hk, k0 + s, hj);
          for (const PairPlanEntry& pe : entries)
            axpy(nr, pe.sign, e.data() + pe.row * w + s * nr,
                 view.sigma + pe.address * nr);
          stats.scatter_words += static_cast<double>(entries.size() * nr);
        }
      }
    }
    // The algorithm's record, which the X1 model charges: one npairs x
    // nrows x npairs GEMM per (K, hP), in (K, hP) order.
    for (std::size_t ik = 0; ik < nk; ++ik)
      for (const auto& shape : shapes) {
        stats.dgemm_flops += linalg::gemm_flops(shape[0], shape[1], shape[2]);
        stats.dgemm_shapes.push_back(shape);
      }
  }
}

std::vector<linalg::GemmPackedB> pack_ab_integrals(const SigmaContext& ctx) {
  const std::size_t nh = ctx.space().group().num_irreps();
  std::vector<linalg::GemmPackedB> ints;
  ints.reserve(nh);
  for (std::size_t hx = 0; hx < nh; ++hx) {
    const linalg::Matrix& g = ctx.ab_integrals(hx);
    ints.emplace_back(g.rows(), g.cols(), g.data(), g.cols());
  }
  return ints;
}

void sigma_mixed_spin_core(const SigmaContext& ctx,
                           std::span<const linalg::GemmPackedB> ints,
                           std::size_t hk, std::size_t ik,
                           std::span<const double* const> ccols,
                           std::span<double* const> scols,
                           SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const auto& alist = ctx.tables(Spin::kAlpha).create->list(hk, ik);
  XFCI_ASSERT(ccols.size() == alist.size() && scols.size() == alist.size(),
              "mixed-spin column pointer count mismatch");
  XFCI_ASSERT(ints.size() == nh, "mixed-spin core needs one INT per irrep");
  const StringSpace& bm1 = *ctx.tables(Spin::kBeta).m1;

  // Grow-only scratch: the gather zeroes D's panels before writing a
  // subset of them; only the product writes E.
  thread_local std::vector<double> d_scratch, e;
  for (std::size_t hkb = 0; hkb < nh; ++hkb) {
    const std::size_t nkb = bm1.count(hkb);
    if (nkb == 0) continue;
    const std::size_t hx =
        group.product(group.product(space.target_irrep(), hk), hkb);
    const std::size_t ncols = ctx.ab_num_cols(hx);
    if (ncols == 0) continue;
    const linalg::GemmPackedB& g = ints[hx];
    XFCI_DCHECK(g.rows() == ncols && g.cols() == ncols,
                "packed INT block does not match the context");

    // Step 1 (Eq. 4): build D[K'beta, (s,q)] from the gathered C columns,
    // straight into the micro-kernel's row panels.
    const linalg::GemmPanelsA panels(nkb, g);
    double* d = nullptr;
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cq = alist[ai];
      const double* ccol = ccols[ai];
      if (ccol == nullptr) continue;
      if (d == nullptr) d = panels.zeroed(d_scratch);
      const std::size_t colbase = ctx.ab_col_base(hx, cq.orbital);
      const std::size_t hs = group.product(hx, ctx.orbital_irrep(cq.orbital));
      for (const MixedPlanEntry& me : ctx.mixed_plan(hkb, hs)) {
        XFCI_DCHECK(colbase + me.pos < ncols,
                    "mixed-spin gather column outside the D block");
        d[panels.at(me.ikb, colbase + me.pos)] =
            cq.sign * me.sign * ccol[me.address];
      }
    }
    if (d == nullptr) continue;

    // Step 2 (Eq. 5): E = D * INT, one dense DGEMM over the packed INT.
    if (e.size() < nkb * ncols) e.resize(nkb * ncols);
    linalg::gemm_prelaid(panels, d, g, e.data(), ncols);
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
      for (const MixedPlanEntry& me : ctx.mixed_plan(hkb, hr)) {
        XFCI_DCHECK(colbase + me.pos < ncols,
                    "mixed-spin scatter column outside the E block");
        scol[me.address] +=
            cp.sign * me.sign * e[me.ikb * ncols + colbase + me.pos];
      }
    }
  }
}

}  // namespace xfci::fci
