// Reproduces Table 1: the performance model of the alpha-beta (mixed-spin)
// routine -- operation and communication counts of the MOC and DGEMM
// algorithms:
//
//            MOC                          DGEMM
//   ops      Nci (n-Na) Na (n-Nb) Nb      ~ Nci n^2 Na Nb
//   comm     Nci Na (n-Na)                3 Nci Na   (1x gather + 2x acc)
//
// The bench evaluates the formulas AND measures the actual counts from the
// instrumented implementations, validating that the code realizes the
// model.

#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
using namespace xfci::bench;

namespace {

void analyze(const xs::PreparedSystem& sys) {
  const std::size_t n = sys.tables.norb;
  const double na = static_cast<double>(sys.nalpha);
  const double nb = static_cast<double>(sys.nbeta);
  const double nn = static_cast<double>(n);

  const xf::CiSpace space(n, sys.nalpha, sys.nbeta, sys.tables.group,
                          sys.tables.orbital_irreps, sys.ground_irrep);
  const double nci = static_cast<double>(space.dimension());
  const xf::SigmaContext ctx(space, sys.tables);

  // Model values (Table 1).
  const double moc_ops_model = nci * (nn - na) * na * (nn - nb) * nb;
  const double dgemm_ops_model = nci * nn * nn * na * nb;
  const double moc_comm_model = nci * na * (nn - na);
  const double dgemm_comm_model = 3.0 * nci * na;

  // Measured: serial mixed-spin routines with fresh counters.
  xfci::Rng rng(7);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s(c.size(), 0.0);

  xf::SigmaStats moc_stats;
  xf::moc_mixed_spin(ctx, c, s, moc_stats);

  // DGEMM: every alpha (N-1)-string task through the mixed-spin core, its
  // columns wired in place.
  xf::SigmaStats dg_stats;
  const auto& am1 = *ctx.alpha_m1();
  for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
    for (std::size_t ik = 0; ik < am1.count(hk); ++ik) {
      const auto& alist = ctx.alpha_create()->list(hk, ik);
      std::vector<const double*> ccols(alist.size(), nullptr);
      std::vector<double*> scols(alist.size(), nullptr);
      for (std::size_t ai = 0; ai < alist.size(); ++ai)
        if (const xf::CiBlock* blk = space.block_for_alpha(alist[ai].irrep)) {
          const std::size_t col = blk->offset + alist[ai].address * blk->nb;
          ccols[ai] = c.data() + col;
          scols[ai] = s.data() + col;
        }
      xf::sigma_mixed_spin_core(ctx, hk, ik, ccols, scols, dg_stats);
    }

  // Measured communication: the parallel drivers' mixed-phase traffic.
  auto measured_comm = [&](xf::Algorithm alg) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 4;
    opt.algorithm = alg;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> sg(c.size());
    op.apply(c, sg);
    return op.breakdown().mixed_comm_words;
  };

  std::printf("\nSystem %s: n = %zu, Na = %zu, Nb = %zu, Nci = %.0f\n",
              sys.name.c_str(), n, sys.nalpha, sys.nbeta, nci);
  print_row({"Quantity", "Model", "Measured", "ratio"}, 18);
  print_rule(4, 18);
  print_row({"MOC ops", fmt(moc_ops_model), fmt(moc_stats.indexed_ops),
             fmt(moc_stats.indexed_ops / moc_ops_model, "%.2f")},
            18);
  print_row({"DGEMM ops", fmt(dgemm_ops_model),
             fmt(dg_stats.dgemm_flops / 2.0),
             fmt(dg_stats.dgemm_flops / 2.0 / dgemm_ops_model, "%.2f")},
            18);
  const double moc_comm = measured_comm(xf::Algorithm::kMoc);
  const double dgemm_comm = measured_comm(xf::Algorithm::kDgemm);
  print_row({"MOC comm", fmt(moc_comm_model), fmt(moc_comm),
             fmt(moc_comm / moc_comm_model, "%.2f")},
            18);
  print_row({"DGEMM comm", fmt(dgemm_comm_model), fmt(dgemm_comm),
             fmt(dgemm_comm / dgemm_comm_model, "%.2f")},
            18);
  print_row({"comm reduction", fmt(moc_comm_model / dgemm_comm_model, "%.1f"),
             fmt(moc_comm / std::max(dgemm_comm, 1.0), "%.1f"), ""},
            18);
}

}  // namespace

int main() {
  std::printf(
      "Table 1: performance model of the alpha-beta routine, MOC vs DGEMM\n"
      "(operation counts in multiply-adds, communication in words).\n"
      "Measured/model ratios near 1 validate the implementation; DGEMM ops\n"
      "slightly exceed the model at small n (zero-padded pair blocks), and\n"
      "measured communication sits below the model when P = 4 keeps some\n"
      "columns local.\n");

  {
    xs::SpaceOptions o;
    o.basis = "x-dz";
    o.freeze_core = 1;
    o.max_orbitals = 12;
    o.use_symmetry = false;
    auto sys = xs::oxygen_atom(o);
    analyze(sys);
  }
  {
    xs::SpaceOptions o;
    o.basis = "x-dz";
    o.freeze_core = 1;
    o.max_orbitals = 14;
    o.use_symmetry = false;
    auto sys = xs::water(o);
    analyze(sys);
  }
  std::printf(
      "\nPaper's point: the DGEMM algorithm needs ~(n-Na)(n-Nb)/(3(n-Na))\n"
      "times less communication and replaces the indexed kernel with DGEMM\n"
      "at 5x the sustained rate on the X1.\n");
  return 0;
}
