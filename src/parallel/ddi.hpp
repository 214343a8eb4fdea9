#pragma once
// A DDI-style one-sided communication layer (the paper's section 2 stack).
//
// The paper's FCI program never touches the transport directly: the sigma
// algorithm talks to the Distributed Data Interface -- its two one-sided
// ops DDI_GET and DDI_ACC, barriers, and a shared dynamic-load-balancing
// counter (DDI_DLBNEXT, a SHMEM_SWAP on a server rank) -- and DDI is in turn
// implemented over SHMEM on the X1.  pv::Ddi reproduces that seam: the
// sigma phases in src/fci_parallel/ speak only this interface, and a
// backend supplies the transport, the clocks, and the failure semantics.
//
// Backends:
//  * SimulatedDdi (make_simulated_ddi, simulated_ddi.cpp): a discrete-
//    event virtual X1 -- per-rank simulated clocks, calibrated
//    x1::CostModel charges, fault injection.  The workers are the
//    simulated ranks; parallel regions run sequentially, so a run is a
//    pure function of its inputs.
//  * ThreadsDdi (make_threads_ddi): real shared-memory execution on a
//    pv::ThreadTeam.  One-sided ops are delivered no-ops (every rank's
//    columns live in the shared address space, so the ledger counts their
//    calls but no words), clocks are wall time, and run_pool() commits
//    chunks through an OrderedSequencer so results are bitwise identical
//    for every thread count.
//  * ProcessDdi (make_process_ddi, parallel/process_ddi.hpp): ranks are
//    OS processes, forked once and kept for the backend's lifetime, over
//    a POSIX shm_open+mmap arena — true one-sided atomics, a real
//    SHMEM_SWAP-style DLB counter, and a genuine failure domain:
//    FaultPlan deaths are actual SIGKILLs, detected by heartbeats and
//    deadlines, recovered by generation-fenced chunk reassignment.
//
// What every backend shares lives here, once: the DDI ledger is one
// CommCounters row per charge slot (flops, one-sided ops and words, DLB
// claims, recovery events), which backends write and totals() sums, and
// set_tracer() sizes, names and clocks the trace tracks for all three.
//
// Concurrency contract: a Ddi instance is owned by one driver thread.
// Methods called *inside* parallel regions (the for_ranks and run_pool
// bodies: charge, one_sided, now) must be safe for concurrent rank-/worker-
// disjoint use — backends keep their state either slot-disjoint or atomic
// (see ThreadsDdi in ddi.cpp), never behind a lock a body could block on.
// Everything else (set_tracer, counters, totals, barrier, run_pool entry)
// is driver-thread-only, called between regions.
// The thread_team/sync layers underneath carry the compile-time capability
// annotations (DESIGN.md §13).
//
// Seam for a real transport: an MPI or native-SHMEM backend plugs in as one
// more implementation of this interface -- one_sided's get and acc map
// onto MPI_Get and MPI_Accumulate (or shmem_getmem + atomics), barrier onto
// MPI_Win_fence / shmem_barrier_all, and run_pool onto a claim loop over a
// MPI_Fetch_and_op / shmem_swap task counter on rank 0 (DDI_DLBNEXT) with
// the same staged-commit hooks.  Its charge adds a Work record's counts to
// the slot's row and no time (real time is measured, not modeled), exactly
// as in ThreadsDdi, and nothing in src/fci_parallel/ changes.  See
// DESIGN.md section 10 for the layer diagram.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/trace.hpp"
#include "parallel/fault.hpp"
#include "x1/cost_model.hpp"

namespace xfci::pv {

class TaskPool;

/// One charge slot's row of the DDI ledger (words are doubles): the only
/// record of flops, one-sided ops, words and op-level recovery events.
/// Each backend writes a row at one site per event, under its own word
/// rule (DESIGN.md §16): the simulator counts words only when issuer !=
/// owner, the process backend counts the words of every delivered op, and
/// the threads backend counts calls but no words (one address space).
/// The flop rule is the same everywhere: charge(slot, work) adds
/// work.flops() and work.retransmits to the charged slot's row.
struct CommCounters {
  /// Charged floating-point operations (exact: every charge is an
  /// integer-valued double).
  double flops = 0.0;
  double get_words = 0.0;
  double acc_words = 0.0;  ///< logical payload words (wire traffic is 2x)
  std::size_t get_calls = 0;
  std::size_t acc_calls = 0;
  std::size_t dlb_calls = 0;
  std::size_t ops_dropped = 0;  ///< one-sided ops lost by fault injection
  std::size_t ops_delayed = 0;  ///< one-sided ops delayed by fault injection
  std::size_t retransmits = 0;  ///< dropped ops this slot re-issued
  /// Rank processes forked for this slot: one per surviving rank per
  /// process backend, written by ProcessDdi; 0 on sim and threads.
  std::size_t spawns = 0;

  /// One-sided words moved: gets + 2x accumulates (payload + applied
  /// result).
  double words() const { return get_words + 2.0 * acc_words; }
  CommCounters& operator+=(const CommCounters& o);
};

/// The paper's two one-sided ops: a gather (DDI_GET) and an accumulate
/// (DDI_ACC).
enum class OneSided { kGet, kAcc };

/// What one charge point of the sigma did, in counts, with the fields in
/// the order the simulator (the only backend that does) turns them into
/// seconds.  flops() is the flop rule, written once: 2mnk per DGEMM shape
/// plus daxpy_flops, exact because every term is an integer-valued double.
struct Work {
  std::size_t alltoall_peers = 0;  ///< a distributed transpose's share:
  double alltoall_words = 0.0;     ///< remote words over that many peers
  /// The algorithm's DGEMM shapes (m, n, k), in its order.
  std::span<const std::array<std::size_t, 3>> dgemm = {};
  double indexed_words = 0.0;   ///< indexed gather/scatter or copy words
  double daxpy_flops = 0.0;     ///< streaming vector (DAXPY-like) flops
  double seconds = 0.0;         ///< fixed time: MOC elements, ack timeout
  std::size_t retransmits = 0;  ///< dropped one-sided ops re-issued
  double flops() const;
};

/// Abstract one-sided communication + execution substrate (the DDI layer).
class Ddi {
 public:
  virtual ~Ddi() = default;

  /// Stable backend identifier ("sim" / "threads" / "process"), used by
  /// run reports and driver banners.
  virtual const char* name() const = 0;

  // --- process group / liveness ---------------------------------------------
  /// Logical ranks of the data distribution (columns are split this way on
  /// every backend, so results do not depend on the transport).
  virtual std::size_t num_ranks() const = 0;
  /// Execution width: ranks for the simulator, threads for the shared-
  /// memory backend.  Sizes task pools and per-worker scratch.
  virtual std::size_t num_workers() const = 0;
  virtual bool alive(std::size_t rank) const = 0;
  /// Surviving ranks, counted from alive().
  std::size_t num_alive() const;
  /// alive(r) as 0/1 for every rank r.
  std::vector<std::uint8_t> alive_mask() const;

  // --- one-sided data movement ----------------------------------------------
  /// Issues `op` of `words` doubles from `rank` to `owner`.  Data movement
  /// itself is performed by the caller (the vectors live in one address
  /// space on every current backend); the Ddi accounts for the transfer
  /// and reports whether it was delivered.  kDropped means the op was lost
  /// (fault injection, or an endpoint died); the caller owns
  /// retransmission and reassignment.
  virtual OpOutcome one_sided(OneSided op, std::size_t rank,
                              std::size_t owner, double words) = 0;

  // --- work records ---------------------------------------------------------
  /// Records what `slot` did.  The simulator turns `work` into seconds on
  /// the rank's clock, field by field in Work's order (a dead rank's clock
  /// and row stay frozen); the real backends measure wall time instead.
  /// Every backend adds work.flops() and work.retransmits to the slot's
  /// ledger row (so a retransmit inside a forked rank reaches the totals).
  virtual void charge(std::size_t slot, const Work& work) = 0;
  /// True when the backend models cost (simulated clocks); false when it
  /// executes for real and the solver's vector work needs no charges.
  virtual bool models_cost() const = 0;

  // --- synchronization / clocks ---------------------------------------------
  /// Barrier over the surviving ranks; returns the synchronized backend
  /// time (simulated seconds, or wall seconds since construction).  Sigma
  /// phases meter their rows with barrier-to-barrier deltas.
  virtual double barrier() = 0;
  /// Current backend time (max surviving clock, or wall seconds).
  virtual double elapsed() const = 0;
  /// Spread between the latest and earliest surviving rank at the last
  /// barrier (the "Load Imbalance" row of Table 3); 0 when not modeled.
  virtual double imbalance() const = 0;

  // --- dynamic load balancing -----------------------------------------------
  /// Reassignments allowed per aggregated task before run_pool aborts.
  static constexpr std::size_t kMaxTaskRetries = 3;

  /// Hooks of the resilient aggregated-task pool driver (run_pool): the
  /// pool program.  An item's result travels as a flat payload of doubles
  /// in storage the backend owns: `stage` writes it, `commit` reads it
  /// back.  The process backend forks its ranks with the first program it
  /// runs and keeps them, so it runs that one program only.
  struct PoolHooks {
    /// Exact length, in doubles, of `item`'s payload.  A pure function of
    /// the item: the process backend sizes every item's shm slot with it
    /// before the fork.
    std::function<std::size_t(std::size_t item)> stage_words;
    /// Computes `item` on `worker` from `input` into `payload` (exactly
    /// stage_words(item) doubles, with unspecified contents on entry),
    /// without touching shared output; returns false when the worker died
    /// mid-item (the item is then reassigned and re-staged from scratch).
    /// `input` is the span run_pool was given, or the process backend's
    /// shm copy of it: stage reads the pool's input only through it.
    std::function<bool(std::size_t item, std::size_t worker,
                       std::span<const double> input,
                       std::span<double> payload)>
        stage;
    /// Applies `payload`, what the last successful stage(item) wrote;
    /// run_pool calls this exactly once per item, in global item order,
    /// on every backend, in the driver.
    std::function<void(std::size_t item, std::span<const double> payload)>
        commit;
    /// Invoked in the driver when a worker death interrupts a task, before
    /// the task is reassigned (the phase layer redistributes columns here).
    std::function<void()> on_worker_death;
    /// Runs in each rank process at the start of every pool, before the
    /// rank's first claim, *in the rank's own address space*: a rank holds
    /// the copy of process-wide state it was forked with (thread pools do
    /// not survive fork; driver-side updates made since do not reach it).
    /// In-process backends never call it.
    std::function<void(std::size_t worker)> on_pool_start;
  };
  struct PoolStats {
    std::size_t tasks_reassigned = 0;  ///< chunks redone after a death
    double recovery_seconds = 0.0;     ///< timeout / recompute time
  };

  /// Runs every chunk of `pool` through stage-then-commit over `input`,
  /// with dynamic load balancing (each backend claims chunks from its own
  /// DDI_DLBNEXT-style counter) and task-level fault recovery; requires
  /// stage_words, stage and commit.  Commit order equals global item
  /// order, so the accumulation is bitwise identical across backends and
  /// worker counts.  Each backend owns the payload storage its schedule
  /// needs: sim one item buffer (it commits each item right after staging
  /// it), threads one buffer per worker holding the worker's current
  /// chunk (staged whole before its ordered commit), the process backend
  /// the item's shm slot.  sim and threads run whatever hooks they are
  /// given and pass `input` through uncopied.  The process backend binds
  /// its first call's hooks, chunk table and input length (its ranks are
  /// forked with them) and throws xfci::Error on a later call that passes
  /// any other; it copies `input` into a shm slab once per pool.  Holding
  /// `hooks` keeps the program alive, and its address unique, while ranks
  /// run it.
  virtual PoolStats run_pool(const TaskPool& pool,
                             const std::shared_ptr<const PoolHooks>& hooks,
                             std::span<const double> input) = 0;

  // --- execution primitives --------------------------------------------------
  /// Runs `body(rank)` for every rank in [0, num_ranks()): sequentially in
  /// rank order on the simulator and the process backend, concurrently
  /// (dynamically claimed) on the threads backend.  Bodies must write only
  /// rank-disjoint output.
  virtual void for_ranks(const std::function<void(std::size_t)>& body) = 0;

  // --- observability ----------------------------------------------------------
  /// Attaches a span/instant sink (nullptr detaches) and enables it: one
  /// track per charge slot ("rank r", then "worker w" for the threads
  /// backend's workers past num_ranks), then the "driver" control track,
  /// with elapsed() as the tracer's clock — simulated seconds or wall
  /// seconds.  From then on the backend emits DLB task spans and
  /// claim/death instants from run_pool; layers above add
  /// phase, solver and checkpoint spans through tracer().
  void set_tracer(obs::Tracer* tracer);
  /// The attached tracer, which set_tracer enabled, or nullptr when
  /// tracing is off: emission sites test this one pointer.
  obs::Tracer* tracer() const { return tracer_; }
  /// `rank`'s current time in this backend's trace clock domain: the
  /// rank's simulated clock, or wall seconds since construction.  Span
  /// emitters inside for_ranks bodies timestamp with this.
  virtual double now(std::size_t rank) const = 0;

  // --- metrics: the DDI ledger ----------------------------------------------
  /// Charge slots: static phases charge by rank id, pool stages by worker
  /// id, so a backend keeps one ledger row per slot.
  std::size_t num_slots() const {
    return std::max(num_ranks(), num_workers());
  }
  /// The ledger row of one charge slot, as a snapshot.
  virtual CommCounters counters(std::size_t slot) const = 0;
  /// The ledger summed over every slot, in slot order.
  CommCounters totals() const;
  /// Total one-sided words moved so far (totals().words()).
  double comm_words() const { return totals().words(); }

 private:
  obs::Tracer* tracer_ = nullptr;
};

/// Discrete-event simulated backend: `num_ranks` virtual MSPs with `cost`
/// charges and `faults` armed (simulated_ddi.cpp).
std::unique_ptr<Ddi> make_simulated_ddi(std::size_t num_ranks,
                                        const x1::CostModel& cost,
                                        const FaultPlan& faults);

/// Shared-memory backend over pv::ThreadTeam: `num_ranks` logical ranks
/// executed by `num_threads` workers (0 = hardware concurrency); `faults`
/// supplies the worker-death schedule for run_pool.
std::unique_ptr<Ddi> make_threads_ddi(std::size_t num_ranks,
                                      std::size_t num_threads,
                                      const FaultPlan& faults);

}  // namespace xfci::pv
