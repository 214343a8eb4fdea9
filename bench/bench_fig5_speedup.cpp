// Reproduces Fig. 5: parallel speedup of the full DGEMM-based FCI
// iteration for the oxygen anion ground state.
//
// Paper: O- / aug-cc-pVQZ, 14.85e9 determinants, 128 -> 256 MSPs, almost
// perfect speedup; same-spin ~9.6 GF/MSP, mixed-spin 8.5-8.1 GF/MSP.
// Here: O- in the x-dz basis truncated to 13 active orbitals, 16 -> 256
// simulated MSPs; speedups are normalized to the 16-MSP run.

#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "fci_parallel/driver_cli.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
using namespace xfci::bench;

int main(int argc, char** argv) {
  const auto cli = fcp::DriverCli::parse(argc, argv);
  xs::SpaceOptions o;
  o.basis = "x-dzp";
  o.max_orbitals = 17;
  o.use_symmetry = false;  // unblocked: large DGEMM operands (EXPERIMENTS.md)
  auto sys = xs::oxygen_anion(o);
  sys.ground_irrep = xs::scf_determinant_irrep(sys);

  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps,
                          sys.ground_irrep);
  const xf::SigmaContext ctx(space, sys.tables);
  std::printf(
      "Fig. 5: parallel speedup of the DGEMM FCI sigma, O- anion\n"
      "CI dimension %zu, irrep %s\n\n",
      space.dimension(),
      sys.tables.group.irrep_name(sys.ground_irrep).c_str());
  const bool process = cli.backend == fcp::ExecutionMode::kProcess;
  if (cli.backend != fcp::ExecutionMode::kSimulate)
    std::printf("backend: %s (wall-clock seconds per sigma%s)\n\n",
                cli.backend_name(),
                process ? ", one forked OS process per rank" : "");
  // Real backends sweep small rank counts on this machine's cores and
  // normalize to the single-rank run; the simulator reproduces the
  // paper's 16-256 MSP axis normalized to 16.
  const std::vector<std::size_t> sweep =
      cli.backend == fcp::ExecutionMode::kSimulate
          ? std::vector<std::size_t>{16, 32, 64, 128, 256}
          : std::vector<std::size_t>{1, 2, 4};
  const double base = static_cast<double>(sweep.front());

  xfci::Rng rng(4);
  const auto c = rng.signed_vector(space.dimension());

  // One Chrome pid per MSP count (each row's backend clock restarts at 0).
  xfci::obs::Tracer tracer;
  if (!cli.trace.empty()) tracer.enable(0);

  BenchReport report(process ? "process_speedup" : "fig5");
  report.config_str("backend", cli.backend_name());
  report.config_num("ci_dimension", static_cast<double>(space.dimension()));

  fcp::RunMetrics last_metrics;
  double total_seconds = 0.0;
  print_row({"MSPs", "t/sigma", "speedup", "ideal", "efficiency",
             "GF/MSP"});
  print_rule(6);
  double t16 = 0.0;
  for (std::size_t p : sweep) {
    // Shared driver defaults (overhead-scaled cost model, backend
    // selection); the MSP sweep overrides the rank count per row.
    fcp::ParallelOptions opt = cli.parallel_options();
    opt.num_ranks = p;
    if (!cli.trace.empty()) {
      tracer.begin_run("fig5 p=" + std::to_string(p));
      opt.tracer = &tracer;
    }
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    const double t = op.breakdown().total;
    if (p == sweep.front()) t16 = t;
    const double flops = op.ddi().totals().flops;
    const double gf = flops / static_cast<double>(p) / t / 1e9;
    const double speedup = base * t16 / t;
    total_seconds += t;
    print_row({std::to_string(p), fmt_seconds(t), fmt(speedup, "%.1f"),
               std::to_string(p), fmt(speedup / static_cast<double>(p), "%.2f"),
               fmt(gf, "%.2f")});
    report.begin_row();
    report.col("msps", static_cast<double>(p));
    report.col("t_sigma", t);
    report.col("speedup", speedup);
    report.col("efficiency", speedup / static_cast<double>(p));
    report.col("gflops_per_msp", gf);
    if (!cli.metrics.empty() && p == sweep.back())
      last_metrics = fcp::RunMetrics::capture(op);
  }
  std::printf(
      "\nShape check (paper): near-perfect speedup 128 -> 256 MSPs;\n"
      "sustained 8-10 GF/MSP (62-80%% of the 12.8 GF/MSP peak).\n");
  report.write(process ? "BENCH_process_speedup.json" : "BENCH_fig5.json",
               total_seconds);
  if (!cli.trace.empty()) tracer.write_chrome_trace(cli.trace);
  if (!cli.metrics.empty()) {
    last_metrics.run = "fig5 p=" + std::to_string(sweep.back());
    last_metrics.write(cli.metrics);
  }
  return 0;
}
