#pragma once
// Test-only serial reference: the library's kernels orchestrated over
// whole vectors, independently of fcp::ParallelSigma's phase engines,
// which fci::make_sigma runs on one rank.  The alpha side runs on the full
// blocks in place, the mixed spin task by task on in-place columns (or the
// whole-vector MOC kernel), and the beta side on a transposed copy of c.
// It takes no Ms = 0 shortcut.  It sums in another order than the engines,
// so it agrees with them to rounding, not bitwise: the "parallel equals
// serial" tests compare against it at 1e-11 to 1e-12, and the engines
// against each other by memcmp.

#include <algorithm>
#include <span>
#include <vector>

#include "fci/fci.hpp"
#include "fci/sigma.hpp"

namespace xfci::oracle {

// One view per irrep over full flat vectors: column j of the irrep-h block
// is its nb values at offset + j * nb.
inline std::vector<fci::ColumnView> full_vector_views(
    const fci::CiSpace& space, std::span<const double> c,
    std::span<double> sigma) {
  std::vector<fci::ColumnView> views(space.group().num_irreps());
  for (const fci::CiBlock& blk : space.blocks())
    views[blk.halpha] = fci::ColumnView{c.data() + blk.offset,
                                        sigma.data() + blk.offset, blk.nb};
  return views;
}

class SigmaSerial : public fci::SigmaOperator {
 public:
  SigmaSerial(const fci::SigmaContext& ctx, fci::Algorithm algorithm)
      : ctx_(ctx), moc_(algorithm == fci::Algorithm::kMoc) {}

  void apply(std::span<const double> c, std::span<double> sigma) override {
    const fci::CiSpace& space = ctx_.space();
    std::fill(sigma.begin(), sigma.end(), 0.0);
    same_spin(ctx_, c, sigma);
    if (space.nalpha() >= 1 && space.nbeta() >= 1) {
      if (moc_)
        fci::moc_mixed_spin(ctx_, c, sigma, stats_);
      else
        mixed_spin(c, sigma);
    }
    if (space.nbeta() >= 1) {
      // sigma += P B P c, with B the column routines of the transposed
      // context.
      const fci::SigmaContext& tctx = ctx_.transposed();
      std::vector<double> ct, back;
      space.transpose_vector(c, ct);
      std::vector<double> st(ct.size(), 0.0);
      same_spin(tctx, ct, st);
      tctx.space().transpose_vector(st, back);
      for (std::size_t i = 0; i < sigma.size(); ++i) sigma[i] += back[i];
    }
  }
  const fci::CiSpace& space() const override { return ctx_.space(); }

 private:
  // One-electron and same-spin work on the column strings of x's space.
  void same_spin(const fci::SigmaContext& x, std::span<const double> c,
                 std::span<double> sigma) {
    const auto views = full_vector_views(x.space(), c, sigma);
    fci::sigma_one_electron_columns(x, views, stats_);
    if (moc_)
      fci::moc_same_spin_columns(x, views, stats_);
    else
      fci::sigma_same_spin_columns(x, views, stats_);
  }

  // Every alpha (N-1)-string task, its columns wired in place.
  void mixed_spin(std::span<const double> c, std::span<double> sigma) {
    const fci::CiSpace& space = ctx_.space();
    const fci::StringSpace& am1 = *ctx_.alpha_m1();
    for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
      for (std::size_t ik = 0; ik < am1.count(hk); ++ik) {
        const auto& alist = ctx_.alpha_create()->list(hk, ik);
        std::vector<const double*> ccols(alist.size(), nullptr);
        std::vector<double*> scols(alist.size(), nullptr);
        for (std::size_t ai = 0; ai < alist.size(); ++ai)
          if (const fci::CiBlock* blk =
                  space.block_for_alpha(alist[ai].irrep)) {
            const std::size_t col =
                blk->offset + alist[ai].address * blk->nb;
            ccols[ai] = c.data() + col;
            scols[ai] = sigma.data() + col;
          }
        fci::sigma_mixed_spin_core(ctx_, hk, ik, ccols, scols, stats_);
      }
  }

  const fci::SigmaContext& ctx_;
  bool moc_;
};

}  // namespace xfci::oracle
