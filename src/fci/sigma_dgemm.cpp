// DGEMM-based sigma kernels (paper section 2.1, Eqs. 4-9).
//
// All three building blocks are column-oriented: excitations act on the
// column string index, so gathers and scatters touch contiguous columns.
// The same-spin / one-electron kernels run over ColumnViews so the phase
// engines can hand them locally transposed blocks (paper section 3.3: "In
// the same-spin routine the transposed local C and sigma coefficients
// matrices are used to facilitate the gather and scatter operations"); the
// mixed-spin core receives explicit per-column pointers so the engines can
// route them through one-sided DDI gather/accumulate.

#include "fci/sigma.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {

void sigma_one_electron_columns(const SigmaContext& ctx,
                                std::span<const ColumnView> views,
                                SigmaStats& stats) {
  XFCI_REQUIRE(views.size() == ctx.space().group().num_irreps(),
               "one-electron sigma: one view per irrep required");
  for (const OneElectronPlanEntry& x : ctx.one_electron_plan()) {
    const ColumnView& vj = views[x.irrep];
    if (vj.c == nullptr) continue;
    if (x.target < vj.write_begin || x.target >= vj.write_end) continue;
    const std::size_t ld = vj.ld();
    linalg::daxpy_n(vj.nrows, x.coef, vj.c + x.source * ld,
                    vj.sigma + x.target * ld);
    stats.indexed_ops += static_cast<double>(vj.nrows);
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

  linalg::Matrix d, e;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      for (std::size_t hp = 0; hp < nh; ++hp) {
        const std::size_t npairs = ctx.ss_num_pairs(hp);
        if (npairs == 0) continue;
        const std::size_t hj = group.product(hk, hp);
        const ColumnView& view = views[hj];
        if (view.c == nullptr) continue;
        const std::size_t nr = view.nrows, ld = view.ld();
        if (nr == 0) continue;

        // Step 1 (Eq. 7): gather columns into D[(q>s), spectator rows].
        const auto entries = ctx.same_spin_plan(hk, ik, hj);
        d.resize(npairs, nr);
        for (const PairPlanEntry& pe : entries) {
          XFCI_DCHECK(pe.row < npairs,
                      "same-spin gather row outside the pair block");
          const double* ccol = view.c + pe.address * ld;
          double* drow = d.data() + pe.row * nr;
          for (std::size_t i = 0; i < nr; ++i) drow[i] = pe.sign * ccol[i];
        }
        stats.gather_words += static_cast<double>(entries.size() * nr);

        // Step 2 (Eq. 8): E = G * D, one dense DGEMM.
        e.resize(npairs, nr);
        const linalg::Matrix& g = ctx.ss_integrals(hp);
        linalg::gemm(false, false, npairs, nr, npairs, 1.0, g.data(), npairs,
                     d.data(), nr, 0.0, e.data(), nr);
        stats.dgemm_flops += linalg::gemm_flops(npairs, nr, npairs);
        stats.dgemm_shapes.push_back({npairs, nr, npairs});

        // Step 3 (Eq. 9): scatter-accumulate E rows into sigma columns.
        for (const PairPlanEntry& pe : entries)
          linalg::daxpy_n(nr, pe.sign, e.data() + pe.row * nr,
                          view.sigma + pe.address * ld);
        stats.scatter_words += static_cast<double>(entries.size() * nr);
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
      for (const MixedPlanEntry& me : ctx.mixed_plan(hkb, hs)) {
        XFCI_DCHECK(colbase + me.pos < ncols,
                    "mixed-spin gather column outside the D block");
        d.data()[me.ikb * ncols + colbase + me.pos] =
            cq.sign * me.sign * ccol[me.address];
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
      for (const MixedPlanEntry& me : ctx.mixed_plan(hkb, hr)) {
        XFCI_DCHECK(colbase + me.pos < ncols,
                    "mixed-spin scatter column outside the E block");
        scol[me.address] +=
            cp.sign * me.sign * e.data()[me.ikb * ncols + colbase + me.pos];
      }
    }
  }
}

}  // namespace xfci::fci
