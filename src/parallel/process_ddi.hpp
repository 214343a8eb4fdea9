#pragma once
// ProcessDdi: a pv::Ddi backend whose ranks are forked OS processes with a
// *real* failure domain — the transport the paper's DDI actually ran on
// (SHMEM over hardware shared memory), reproduced with POSIX shm.
//
// The ranks are persistent: the first run_pool() forks one process per
// surviving rank and keeps it until the backend is destroyed, like the
// SHMEM processes of the paper's DDI, which live for the whole run.  The
// ranks share two shm_open+mmap arenas with the driver: a control segment
// (per-rank heartbeat, alive and pool check-in words, one-sided op, comm,
// flop and fork counters, the SHMEM_SWAP-style DLB counter, and the pool
// lifecycle words and futex doorbells — all std::atomic ops on shared
// cache lines) and a pool segment (chunk claim table, a retry ring for
// reassigned chunks, one seqlock-protected payload slot per work item,
// and the slab holding the pool's input).  Between pools the ranks sleep
// on a shared futex.  The driver opens a pool by resetting the pool
// segment's protocol cells, copying the input (the CI vector C) into the
// slab and ringing the ranks' doorbell; the ranks claim aggregated tasks
// from the shared counter, stage each item straight into its payload slot
// (PoolHooks::stage writes the slot; there is no private copy), and
// publish with a seq/generation handshake; the driver commits each item
// from its slot in global item order, so the accumulation is bitwise
// identical to the simulated and threaded backends, and closes the pool
// once every live rank is idle again.
//
// One pool program per backend: ranks run the hooks they were forked
// with, so the first run_pool binds its hooks, chunk table and input
// length, and a later call that passes any other throws xfci::Error.
//
// The robustness envelope (DESIGN.md §14):
//  * FaultPlan rank deaths are *actual* SIGKILLs: op-count triggers make
//    the rank raise(SIGKILL) mid-operation (worker-claim triggers die
//    mid-publish, after poisoning the second half of the staged slot
//    with NaN, leaving a genuinely torn payload for the seqlock to
//    catch); time triggers make the driver's watchdog — or, between
//    pools, the next barrier() — kill the rank's process.
//  * Deaths are detected within a deadline via waitpid and per-rank
//    heartbeats; the victim's chunk is re-issued through the retry ring
//    with a bumped generation, after STONITH-fencing the old claimant.
//    Every rank the driver declares dead is fenced (SIGKILL, then reap):
//    its process would otherwise outlive the pool.  Dead ranks are never
//    forked again.
//  * A rank must check in to each pool, and go idle after it, within a
//    deadline; otherwise it is fenced and the pool completes on the
//    survivors instead of hanging.  An idle rank owes no heartbeat.
//  * Orphan hygiene: ranks tether to the forking thread (prctl
//    PDEATHSIG), segments are RAII-unlinked on every exit path, teardown
//    SIGKILLs every rank before reaping any, and construction reaps stale
//    segments leaked by previously SIGKILL'd runs.
//
// Static phases (for_ranks) execute sequentially in the driver: on this
// backend they are zero-communication by construction (every rank's data
// lives in the driver's address space; transposes are charged, not done),
// and the dynamic mixed-spin pool is where all traffic and deaths happen.

#include <cstddef>
#include <memory>

#include "parallel/ddi.hpp"

namespace xfci::pv {

/// Deadlines and polling knobs of the process backend's failure domain.
struct ProcessDdiParams {
  /// Seconds a claimed chunk may go unpublished before the driver fences
  /// (SIGKILLs) the claimant and re-issues the chunk.
  double task_deadline = 20.0;
  /// Seconds without a heartbeat tick before a rank is declared wedged
  /// and fenced, even between claims.
  double heartbeat_deadline = 20.0;
  /// Pool check-in: seconds a rank may take to start a pool after it
  /// opens (its fork, for the first pool) before it is fenced and the
  /// pool degrades to the survivor set.
  double spawn_deadline = 10.0;
  /// Pool close: seconds to wait after the last commit for the ranks to go
  /// idle before the stragglers are fenced.
  double shutdown_deadline = 10.0;
  /// Timeout (microseconds) of every futex wait: the driver's watchdog
  /// interval, and how often a drained or idle rank wakes to re-check the
  /// pool, its own fencing and its parent.
  std::size_t poll_micros = 200;
};

/// Multi-process backend: `num_ranks` persistent forked ranks over POSIX
/// shared memory; `faults` maps to real SIGKILLs of rank processes.  Throws on
/// platforms without shm_open/fork support (process_backend_supported()
/// in shm_ipc.hpp is the advance check).
std::unique_ptr<Ddi> make_process_ddi(std::size_t num_ranks,
                                      const FaultPlan& faults,
                                      const ProcessDdiParams& params = {});

}  // namespace xfci::pv
