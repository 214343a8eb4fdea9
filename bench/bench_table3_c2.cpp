// Reproduces Table 3: the C2 X 1Sigma_g+ benchmark calculation -- the
// paper's flagship run (FCI(8,66), 64.9e9 determinants, 432 MSPs):
//
//   Beta-beta        62 s / 8.5 GF/MSP
//   Alpha-beta      167 s / 8.8 GF/MSP
//   Load imbalance    9 s
//   Vector/Symm.     11 s
//   Total           249 s / ~8.0 GF/MSP (62% of peak), 25 iterations to
//                   residual 1e-5 with the auto-adjusted method; 6.2 TB of
//                   network traffic per iteration.
//
// Here: the same molecule and state, FCI(8,16) in D2h (3.3M determinants),
// solved with the same auto-adjusted single-vector method on the simulated
// X1.  Two rank counts are reported: 432 MSPs (the paper's count; at our
// scaled dimension each rank holds only a few columns, so the imbalance
// row grows) and 48 MSPs (per-rank work comparable in spirit).

#include <cstdio>

#include "bench_util.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
using namespace xfci::bench;

namespace {

double report(const xs::PreparedSystem& sys, std::size_t msps,
              BenchReport& json) {
  fcp::ParallelOptions popt;
  popt.num_ranks = msps;
  popt.cost = popt.cost.with_overhead_scale(fcp::kDriverOverheadScale);
  xf::SolverOptions sopt;
  sopt.method = xf::Method::kAutoAdjusted;
  sopt.residual_tolerance = 1e-5;
  sopt.energy_tolerance = 1e-9;
  sopt.max_iterations = 80;

  const auto res = fcp::run_parallel_fci(sys.tables, sys.nalpha, sys.nbeta,
                                         sys.ground_irrep, popt, sopt);
  const auto& b = res.metrics.per_sigma;
  const double per_iter = res.metrics.total_seconds /
                          static_cast<double>(res.solve.iterations);

  json.begin_row();
  json.col("msps", static_cast<double>(msps));
  json.col("beta_beta", b.beta_side + b.alpha_side);
  json.col("alpha_beta", b.mixed);
  json.col("load_imbalance", b.load_imbalance);
  json.col("vector_symm", b.transpose + b.vector_ops);
  json.col("total_per_iteration", per_iter);
  json.col("gflops_per_msp", res.metrics.gflops_per_rank());
  json.col("comm_mb_per_iteration", b.comm_words * 8.0 / 1e6);
  json.col("iterations", static_cast<double>(res.solve.iterations));
  json.col("energy", res.solve.energy);
  json.col_str("converged", res.solve.converged ? "yes" : "no");

  std::printf("\n--- %zu simulated MSPs ---\n", msps);
  print_row({"Row", "This work", "Paper (FCI(8,66), 432 MSPs)"}, 26);
  print_rule(3, 26);
  print_row({"Beta-beta (same-spin)",
             fmt_seconds(b.beta_side + b.alpha_side), "62 s / 8.5 GF/MSP"},
            26);
  print_row({"Alpha-beta (mixed)", fmt_seconds(b.mixed),
             "167 s / 8.8 GF/MSP"}, 26);
  print_row({"Load imbalance", fmt_seconds(b.load_imbalance), "9 s"}, 26);
  print_row({"Vector / Symm.", fmt_seconds(b.transpose + b.vector_ops),
             "11 s"}, 26);
  print_row({"Total per iteration", fmt_seconds(per_iter),
             "249 s / ~8.0 GF/MSP"}, 26);
  print_row({"Sustained GF/MSP", fmt(res.metrics.gflops_per_rank(), "%.2f"),
             "8.0 (62% of peak)"}, 26);
  print_row({"Comm per iteration",
             fmt(b.comm_words * 8.0 / 1e6, "%.1f") + " MB",
             "6.2 TB (mixed-spin)"}, 26);
  print_row({"Iterations", std::to_string(res.solve.iterations),
             "25 (residual 1e-5)"}, 26);
  print_row({"E(FCI)", fmt(res.solve.energy, "%.8f"), "-"}, 26);
  print_row({"Converged", res.solve.converged ? "yes" : "NO"}, 26);
  return res.metrics.total_seconds;
}

}  // namespace

int main() {
  xs::SpaceOptions o;
  o.basis = "x-dz";
  o.freeze_core = 2;      // carbon 1s cores, as in the paper's FCI(8,66)
  o.max_orbitals = 16;
  auto sys = xs::carbon_dimer(o);

  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps, 0);
  std::printf(
      "Table 3: C2 X 1Sigma_g+ FCI benchmark on the simulated Cray-X1\n"
      "Space: FCI(%zu,%zu) in %s, CI dimension %zu (paper: FCI(8,66),\n"
      "64,931,348,928 determinants)\n",
      sys.nalpha + sys.nbeta, sys.tables.norb, sys.tables.group.name().c_str(),
      space.dimension());

  BenchReport json("table3");
  json.config_str("backend", "sim");
  json.config_num("ci_dimension", static_cast<double>(space.dimension()));
  double total_seconds = 0.0;
  total_seconds += report(sys, 12, json);
  total_seconds += report(sys, 48, json);
  total_seconds += report(sys, 432, json);

  std::printf(
      "\nShape check: at matched per-rank block widths (12 MSPs) the\n"
      "alpha-beta routine dominates as in the paper (167 vs 62 s).  At 432\n"
      "MSPs the scaled problem leaves each rank ~1 column and ~1 task, so\n"
      "the same-spin DGEMM rate collapses and imbalance grows -- the regime\n"
      "the paper's 65e9-determinant run never enters (EXPERIMENTS.md).\n");
  json.write("BENCH_table3.json", total_seconds);
  return 0;
}
