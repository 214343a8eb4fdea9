// Minimum-operation-count (MOC) sigma routines: the classical baseline the
// paper measures against (Table 1, Fig. 4).  Hamiltonian contributions are
// applied excitation-by-excitation with indexed multiply-add updates; no
// dense matrix multiplications are formed.

#include "fci/sigma.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {

void moc_same_spin_columns(const SigmaContext& ctx,
                           std::span<const ColumnView> views,
                           SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "MOC same-spin sigma: one view per irrep required");
  if (space.nalpha() < 2) return;
  const auto& group = space.group();
  const StringSpace& m2 = *ctx.alpha_m2();
  const auto& pair_table = *ctx.alpha_pair();

  // For each intermediate K, every (annihilated pair, created pair)
  // combination is one Hamiltonian element applied as a column AXPY:
  //   sigma(:, I) += sign * [(pq|rs) - (ps|rq)] * C(:, J).
  for (std::size_t hk = 0; hk < m2.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      const auto& list = pair_table.list(hk, ik);
      for (const PairCreation& ann : list) {  // (q > s): J = K + q + s
        const ColumnView& view = views[ann.irrep];
        if (view.c == nullptr || view.nrows == 0) continue;
        const std::size_t ld = view.ld();
        const double* ccol = view.c + ann.address * ld;
        const std::size_t hp_ann =
            group.product(ctx.orbital_irrep(ann.hi), ctx.orbital_irrep(ann.lo));
        const linalg::Matrix& g = ctx.ss_integrals(hp_ann);
        const std::size_t col = ctx.ss_pair_position(ann.hi, ann.lo);
        XFCI_DCHECK(col < g.cols(),
                    "MOC annihilated pair outside the integral block");
        for (const PairCreation& cre : list) {  // (p > r): I = K + p + r
          if (cre.irrep != ann.irrep) continue;  // different row space
          XFCI_DCHECK(ctx.ss_pair_position(cre.hi, cre.lo) < g.rows(),
                      "MOC created pair outside the integral block");
          // Element generation happens regardless of who applies it -- the
          // replicated-work cost of the historical MOC parallelization.
          stats.element_count += 1.0;
          if (cre.address < view.write_begin || cre.address >= view.write_end)
            continue;
          const double val =
              g(ctx.ss_pair_position(cre.hi, cre.lo), col) * ann.sign *
              cre.sign;
          if (val == 0.0) continue;
          double* scol = view.sigma + cre.address * ld;
          linalg::daxpy_n(view.nrows, val, ccol, scol);
          stats.indexed_ops += static_cast<double>(view.nrows);
        }
      }
    }
  }
}

void moc_mixed_spin(const SigmaContext& ctx, std::span<const double> c,
                    std::span<double> sigma, SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(c.size() == space.dimension() && sigma.size() == c.size(),
               "MOC mixed-spin sigma: c/sigma size must equal the CI "
               "dimension");
  if (space.nalpha() < 1 || space.nbeta() < 1) return;
  const StringSpace& am1 = *ctx.alpha_m1();
  const StringSpace& bm1 = *ctx.beta_m1();
  const auto& atable = *ctx.alpha_create();
  const auto& btable = *ctx.beta_create();
  const auto& eri = ctx.ints().eri;

  // For every alpha single excitation (J_a -> I_a via E_pq) and every beta
  // single excitation (J_b -> I_b via E_rs):
  //   sigma(I_b, I_a) += (pq|rs) * signs * C(J_b, J_a)
  // -- the indexed multiply-and-add kernel of Table 1.
  for (std::size_t hka = 0; hka < am1.num_irreps(); ++hka) {
    for (std::size_t ika = 0; ika < am1.count(hka); ++ika) {
      const auto& alist = atable.list(hka, ika);
      for (const Creation& cq : alist) {
        const CiBlock* bj = space.block_for_alpha(cq.irrep);
        if (bj == nullptr) continue;
        const double* ccol = c.data() + bj->offset + cq.address * bj->nb;
        stats.gather_words += static_cast<double>(bj->nb);
        for (const Creation& cp : alist) {
          const CiBlock* bi = space.block_for_alpha(cp.irrep);
          if (bi == nullptr) continue;
          double* scol = sigma.data() + bi->offset + cp.address * bi->nb;
          const double sa = cp.sign * cq.sign;
          const std::size_t p = cp.orbital, q = cq.orbital;
          // Required beta excitation irrep: rows h(J_b) -> rows h(I_b).
          for (std::size_t hkb = 0; hkb < bm1.num_irreps(); ++hkb) {
            for (std::size_t ikb = 0; ikb < bm1.count(hkb); ++ikb) {
              const auto& blist = btable.list(hkb, ikb);
              for (const Creation& cs : blist) {
                if (cs.irrep != bj->hbeta) continue;
                XFCI_DCHECK(cs.address < bj->nb,
                            "MOC gather row outside the source block");
                const double cj = ccol[cs.address];
                if (cj == 0.0) continue;
                for (const Creation& cr : blist) {
                  if (cr.irrep != bi->hbeta) continue;
                  XFCI_DCHECK(cr.address < bi->nb,
                              "MOC scatter row outside the target block");
                  scol[cr.address] += sa * cr.sign * cs.sign *
                                      eri(p, q, cr.orbital, cs.orbital) * cj;
                  stats.indexed_ops += 1.0;
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace xfci::fci
