// The C2 benchmark on the simulated Cray-X1: a walk through the parallel
// driver -- column distribution, phase breakdown, communication counters,
// and the final energy, on a configurable number of simulated MSPs.
//
//   $ ./examples/c2_on_simulated_x1 [num_msps] [options]
//
// Options (shared driver flags, see fci_parallel/driver_cli.hpp):
//   --backend sim|threads|process  execution backend (default: simulated
//                       X1; process = forked OS ranks over POSIX shm with
//                       real SIGKILL fault injection, Linux only)
//   --ranks N           rank count (same as the bare integer form)
//   --threads N         worker threads for --backend threads (0 = auto)
//   --faults            seeded fault demo: kill one MSP mid-sigma and drop
//                       an accumulate; the run recovers, converges to the
//                       same energy, and the breakdown shows what the
//                       recovery cost.  On --backend process the kills are
//                       real SIGKILLs of live rank processes, including
//                       one mid-accumulate (a torn shared-memory write).
//   --checkpoint PATH   write the solver state to PATH every iteration
//   --restart PATH      resume from a checkpoint written by --checkpoint
//                       (bitwise continuation for the single-vector methods)
//   --max-iters N       stop after N iterations (use with --checkpoint to
//                       stage a "crash", then finish with --restart)
//   --trace PATH        record per-rank span traces to PATH as Chrome
//                       trace-event JSON (open in https://ui.perfetto.dev)
//   --metrics PATH      write the machine-readable run report JSON
//   --telemetry-port N  serve live Prometheus text on 127.0.0.1:N
//                       (plus /healthz and /snapshot.json) while running
//   --telemetry PATH    write periodic xfci-telemetry-v1 snapshots; the
//                       final write happens at exit, so PATH ends up with
//                       the run's total solver/gemm/DDI counters
//
// Kill-then-restart demo:
//   $ c2_on_simulated_x1 16 --checkpoint /tmp/c2.ck --max-iters 4
//   $ c2_on_simulated_x1 16 --restart /tmp/c2.ck
//
// Observability demo (deterministic on the simulated backend):
//   $ c2_on_simulated_x1 8 --trace=c2_trace.json --metrics=c2_metrics.json

#include <cstdio>

#include "common/trace.hpp"
#include "fci_parallel/driver_cli.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "obs/exporter.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;

int main(int argc, char** argv) {
  const auto cli = fcp::DriverCli::parse(argc, argv);
  const std::size_t msps = cli.num_ranks;
  // Telemetry observes values the solver already computes (never clocks
  // of its own), so a --telemetry run prints the exact same text and
  // energy as a plain one; without the flags the registry stays disabled.
  const auto exporter = xfci::obs::start_telemetry(
      cli.telemetry_wanted, cli.telemetry_port, cli.telemetry);

  xs::SpaceOptions o;
  o.basis = "x-dz";
  o.freeze_core = 2;
  o.max_orbitals = 14;
  const auto sys = xs::carbon_dimer(o);

  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps, 0);
  std::printf("C2 X 1Sigma_g+  FCI(%zu,%zu) in %s, %zu determinants\n",
              sys.nalpha + sys.nbeta, sys.tables.norb,
              sys.tables.group.name().c_str(), space.dimension());
  if (cli.backend == fcp::ExecutionMode::kSimulate)
    std::printf("running on %zu simulated Cray-X1 MSPs\n", msps);
  else
    std::printf("running on %zu ranks (backend: %s)\n", msps,
                cli.backend_name());

  fcp::ParallelOptions popt = cli.parallel_options();
  if (cli.faults) {
    // Deterministic plan: MSP 3 dies on its 40th one-sided op (mid mixed
    // phase of an early sigma) and MSP 0's 7th op is silently dropped.
    popt.faults.kill_rank_at_op(3 % msps, 40).drop_op(0, 7);
    std::printf("fault plan: kill MSP %zu at op 40, drop MSP 0 op 7\n",
                3 % msps);
    if (cli.backend == fcp::ExecutionMode::kProcess && msps > 1) {
      // On the process backend also SIGKILL a second live rank on its 2nd
      // chunk claim, mid-accumulate: a genuinely torn shm write that the
      // seqlock protocol must discard and reassign.
      popt.faults.kill_worker_at_claim(1, 2);
      std::printf("fault plan: SIGKILL rank 1 mid-accumulate (claim 2)\n");
    }
  }
  std::printf("\n");

  // Tracing only observes backend clocks, so a --trace run prints the
  // exact same text (and energy) as an untraced one.
  xfci::obs::Tracer tracer;
  if (!cli.trace.empty()) {
    tracer.enable(0);
    tracer.begin_run("c2_fci");
    popt.tracer = &tracer;
  }

  xf::SolverOptions sopt;
  sopt.method = xf::Method::kAutoAdjusted;
  sopt.residual_tolerance = 1e-5;
  sopt.checkpoint_path = cli.checkpoint;
  sopt.restart_path = cli.restart;
  if (cli.max_iters != 0) sopt.max_iterations = cli.max_iters;

  auto res = fcp::run_parallel_fci(sys.tables, sys.nalpha, sys.nbeta,
                                   0, popt, sopt);

  if (!cli.trace.empty()) tracer.write_chrome_trace(cli.trace);
  if (!cli.metrics.empty()) {
    res.metrics.run = "c2_fci";
    res.metrics.write(cli.metrics);
  }

  std::printf("E(FCI)      = %.8f Eh  (%s, %zu iterations)\n",
              res.solve.energy, res.solve.converged ? "converged" : "NOT converged",
              res.solve.iterations);
  if (!res.solve.converged && !cli.checkpoint.empty())
    std::printf("              (resume with --restart %s)\n",
                cli.checkpoint.c_str());
  std::printf("%s   = %.3f s total, %.3f ms per sigma\n",
              cli.backend == fcp::ExecutionMode::kSimulate ? "simulated"
                                                           : "wall time",
              res.metrics.total_seconds, res.metrics.per_sigma.total * 1e3);
  std::printf("sustained   = %.2f GF per MSP\n\n",
              res.metrics.gflops_per_rank());

  const auto& b = res.metrics.per_sigma;
  std::printf("per-sigma phase breakdown (%s ms):\n",
              cli.backend == fcp::ExecutionMode::kSimulate ? "simulated"
                                                           : "wall-clock");
  std::printf("  same-spin (beta+alpha)   %8.3f\n",
              (b.beta_side + b.alpha_side) * 1e3);
  std::printf("  mixed-spin (alpha-beta)  %8.3f\n", b.mixed * 1e3);
  std::printf("  transposes (vector symm) %8.3f\n", b.transpose * 1e3);
  std::printf("  solver vector ops        %8.3f\n", b.vector_ops * 1e3);
  std::printf("  load imbalance           %8.3f\n", b.load_imbalance * 1e3);
  std::printf("  fault recovery           %8.3f\n", b.recovery * 1e3);
  std::printf("  network traffic          %8.1f MB/sigma\n",
              b.comm_words * 8.0 / 1e6);
  if (b.ranks_lost + b.tasks_reassigned + b.ops_retried + b.ops_dropped +
          b.ops_delayed >
      0) {
    std::printf("  recovery events: %zu rank(s) lost, %zu task(s) reassigned, "
                "%zu op(s) retried\n",
                b.ranks_lost, b.tasks_reassigned, b.ops_retried);
    std::printf("  fault injection: %zu op(s) dropped, %zu op(s) delayed, "
                "%zu DLB claim(s) total\n",
                b.ops_dropped, b.ops_delayed, b.dlb_calls);
  }
  return 0;
}
