#pragma once
// Options and reporting types of the distributed FCI driver, shared by the
// ParallelSigma operator (parallel_sigma.hpp) and the driver CLI helper
// (driver_cli.hpp).

#include <cstddef>

#include "common/trace.hpp"
#include "fci/fci.hpp"
#include "parallel/fault.hpp"
#include "parallel/process_ddi.hpp"
#include "parallel/task_pool.hpp"
#include "x1/cost_model.hpp"

namespace xfci::fcp {

/// Execution backend for the distributed algorithm (selects the pv::Ddi
/// implementation ParallelSigma's phases run on).
enum class ExecutionMode {
  /// Deterministic discrete-event simulation: ranks are simulated clocks,
  /// every kernel and communication event charges the calibrated X1 cost
  /// model (Figs. 4-5 / Table 3 reproductions).
  kSimulate,
  /// Real shared-memory execution: the same rank decomposition and task
  /// pool, but rank work is claimed by a pv::ThreadTeam and the breakdown
  /// reports wall-clock seconds.  Numerically bitwise-identical to
  /// kSimulate for every thread count (disjoint writes in the static
  /// phases, ordered commit in the dynamic mixed-spin phase).
  kThreads,
  /// Real multi-process execution: each rank is a forked OS process over
  /// a POSIX shared-memory arena (pv::make_process_ddi) with a genuine
  /// failure domain — FaultPlan deaths are actual SIGKILLs.  Same ordered
  /// commit, so still bitwise-identical.  Linux only.
  kProcess,
};

/// Cost-model overhead scaling of the small-system drivers and benches
/// (EXPERIMENTS.md, "Overhead scaling"): fixed latencies shrink with the
/// problem size; rates never do.
inline constexpr double kDriverOverheadScale = 0.02;

struct ParallelOptions {
  std::size_t num_ranks = 16;
  fci::Algorithm algorithm = fci::Algorithm::kDgemm;
  x1::CostModel cost;
  pv::TaskPoolParams lb;
  /// Backend: simulated X1 timing or real std::thread execution.
  ExecutionMode execution = ExecutionMode::kSimulate;
  /// Thread count for ExecutionMode::kThreads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Failure-domain deadlines of ExecutionMode::kProcess (defaults are
  /// generous for production; tests shrink them to exercise degradation).
  pv::ProcessDdiParams process;
  /// Fault injection: installed into the simulated machine (kSimulate);
  /// the threads backend consults the worker-death schedule (kThreads).
  pv::FaultPlan faults;
  /// Span/instant sink, installed into the backend at construction
  /// (nullptr — the default — records nothing and costs nothing; see
  /// common/trace.hpp).  The driver owns the Tracer and writes the
  /// Chrome-trace file after the run.
  obs::Tracer* tracer = nullptr;
};

/// Simulated-time breakdown accumulated over sigma applications; the rows
/// of Table 3.
struct PhaseBreakdown {
  double beta_side = 0.0;       ///< beta-index same-spin + 1e ("Beta-beta")
  double alpha_side = 0.0;      ///< alpha-index same-spin + 1e (0 on a
                                ///< vector that takes the Ms = 0 shortcut)
  double mixed = 0.0;           ///< alpha-beta routine
  double transpose = 0.0;       ///< local + distributed transposes and the
                                ///< Ms = 0 parity fold ("Vector Symm.")
  double vector_ops = 0.0;      ///< solver vector work per iteration
  double load_imbalance = 0.0;  ///< barrier spread of the dynamic phase
  double recovery = 0.0;        ///< fault-recovery time (timeouts, refetch,
                                ///< redistribution); overlaps the phase rows
  double total = 0.0;           ///< wall (simulated) time of the sigmas
  double comm_words = 0.0;      ///< one-sided words moved (gets + 2x accs)
  double mixed_comm_words = 0.0;  ///< words moved by the mixed-spin phase
  double flops = 0.0;           ///< charged floating-point operations
  std::size_t count = 0;        ///< sigma applications accumulated

  // Recovery event counters (cumulative, not averaged by averaged()).
  // Reassignments come from Ddi::run_pool and rank losses from survivor
  // redistribution; retransmits are per-sigma deltas of the DDI ledger.
  std::size_t tasks_reassigned = 0;  ///< DLB chunks redone after a death
  std::size_t ops_retried = 0;       ///< one-sided retransmissions
  std::size_t ranks_lost = 0;        ///< rank deaths absorbed by survivors

  // Per-sigma deltas of the DDI ledger, Ddi::totals() (cumulative).
  std::size_t dlb_calls = 0;    ///< shared DLB-counter round-trips
  std::size_t ops_dropped = 0;  ///< one-sided ops lost to fault injection
  std::size_t ops_delayed = 0;  ///< one-sided ops delayed by fault injection

  /// Per-sigma averages (event counters stay cumulative).
  PhaseBreakdown averaged() const;
};

}  // namespace xfci::fcp
