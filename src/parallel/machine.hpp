#pragma once
// A deterministic virtual parallel machine.
//
// The paper's implementation runs on P Cray-X1 MSPs communicating through
// one-sided DDI/SHMEM operations.  This host is a single core, so xfci
// reproduces the parallel behaviour with a discrete-event simulation: the
// P ranks are logical entities with individual simulated clocks; all rank
// work is executed for real (the numerics are exact), and every kernel and
// communication event charges simulated time from the x1::CostModel.
//
// Determinism: scheduling decisions (e.g. which rank receives the next
// dynamic-load-balancing task) are made on simulated time with rank-id tie
// breaking, so a run is a pure function of its inputs -- no OS-thread
// nondeterminism.  Receiver-side congestion of accumulates and of the DLB
// server is modeled with per-target busy-time accounting.
//
// Fault injection: an optional FaultPlan makes ranks die, messages drop or
// lag, and stragglers crawl -- all reproducibly (see fault.hpp).  A dead
// rank's clock freezes and it is excluded from earliest_rank(), barrier()
// and last_imbalance(); one-sided operations report whether they were
// delivered so callers can retransmit or reassign.

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "parallel/ddi.hpp"  // CommCounters (shared with the DDI layer)
#include "parallel/fault.hpp"
#include "x1/cost_model.hpp"

namespace xfci::pv {

// Concurrency contract (capability-negative): a Machine is confined to the
// driver thread.  The simulator executes rank bodies *sequentially* (that
// is what makes runs pure functions of their inputs), so the clocks, alive
// masks and counters have exactly one thread touching them and carry no
// capability.  The threaded backend never constructs a Machine; its
// concurrency lives in ThreadTeam, whose state is capability-annotated
// (DESIGN.md §13).
class Machine {
 public:
  Machine(std::size_t num_ranks, x1::CostModel model = {});

  std::size_t num_ranks() const { return clocks_.size(); }
  const x1::CostModel& model() const { return model_; }

  // --- fault injection --------------------------------------------------------
  /// Installs the fault plan (replaces any previous one) and re-arms it:
  /// all ranks are alive again and op counters restart from zero.
  void set_fault_plan(FaultPlan plan);

  bool alive(std::size_t rank) const { return alive_.at(rank) != 0; }
  std::size_t num_alive() const;
  std::vector<std::uint8_t> alive_mask() const { return alive_; }

  /// Declares `rank` failed: its clock freezes at the current value and it
  /// no longer participates in scheduling, charges or barriers.  Called by
  /// the plan's triggers; may also be invoked directly by a driver.
  void kill_rank(std::size_t rank);

  // --- simulated clocks -----------------------------------------------------
  double clock(std::size_t rank) const { return clocks_.at(rank); }
  void charge(std::size_t rank, double seconds) {
    XFCI_ASSERT(seconds >= 0.0, "negative time charge");
    if (alive_.at(rank) == 0) return;  // a dead rank's clock is frozen
    clocks_[rank] += seconds * slowdown_[rank];
  }
  void charge_dgemm(std::size_t rank, std::size_t m, std::size_t n,
                    std::size_t k) {
    if (alive_.at(rank) == 0) return;
    charge(rank, model_.dgemm_seconds(m, n, k));
    flops_.at(rank) += 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  }
  void charge_daxpy_flops(std::size_t rank, double flops) {
    if (alive_.at(rank) == 0) return;
    charge(rank, model_.daxpy_seconds(flops));
    flops_.at(rank) += flops;
  }
  void charge_indexed(std::size_t rank, double words) {
    charge(rank, model_.indexed_seconds(words));
  }

  /// Surviving rank with the smallest clock (ties broken by rank id); used
  /// by the dynamic-load-balance scheduler.  Dead ranks never win (their
  /// frozen clocks would otherwise take every tie-break).
  std::size_t earliest_rank() const;

  // --- one-sided communication accounting ------------------------------------
  // Data movement itself is performed by the caller (the DistVector layer);
  // the machine charges time and tracks congestion.  The returned outcome
  // is kDropped when the op was lost by fault injection (or the issuing
  // rank is dead / died on this very op); the caller owns retransmission.
  OpOutcome record_get(std::size_t rank, std::size_t owner, double words);
  OpOutcome record_acc(std::size_t rank, std::size_t owner, double words);
  OpOutcome record_put(std::size_t rank, std::size_t owner, double words);

  /// One dynamic-load-balancing request (SHMEM_SWAP on the server rank):
  /// serialized at the server; returns nothing, the task id is managed by
  /// the TaskPool.
  void record_dlb_request(std::size_t rank);

  /// All-to-all participation of one rank: `remote_words` spread over
  /// `peers` messages (used by the distributed transpose and the MOC
  /// collective gather).
  void record_alltoall(std::size_t rank, std::size_t peers,
                       double remote_words);

  /// One retransmission of a dropped op by `rank` (the recovery layer
  /// decides to re-issue; the machine's counters record it).
  void record_retransmit(std::size_t rank) { ++counters_.at(rank).retransmits; }

  const CommCounters& counters(std::size_t rank) const {
    return counters_.at(rank);
  }

  /// Flops charged on a rank since construction / last reset.
  double flops(std::size_t rank) const { return flops_.at(rank); }

  // --- synchronization --------------------------------------------------------
  /// Barrier over the surviving ranks: every live clock advances to the
  /// same value -- the maximum of the live rank clocks and receiver busy
  /// times -- plus the barrier cost.  Time-triggered rank deaths are
  /// declared at barrier entry (the phase just completed counts as
  /// delivered).  Returns the synchronized time.
  double barrier();

  /// Spread between the latest and the earliest *surviving* rank at the
  /// last barrier: the "Load Imbalance" row of Table 3.
  double last_imbalance() const { return last_imbalance_; }

  /// Maximum clock over surviving ranks (current makespan).
  double elapsed() const;

  /// Zeroes clocks, counters and congestion state, and re-arms the fault
  /// plan (all ranks alive, op counters back to zero).
  void reset();

 private:
  OpOutcome begin_one_sided(std::size_t rank, std::size_t* op_index);

  x1::CostModel model_;
  std::vector<double> clocks_;
  std::vector<double> flops_;
  std::vector<double> recv_busy_;  // receiver congestion accumulators
  double server_free_ = 0.0;       // DLB server availability
  double last_imbalance_ = 0.0;
  std::vector<CommCounters> counters_;
  FaultPlan plan_;
  std::vector<std::uint8_t> alive_;
  std::vector<double> slowdown_;        // cached plan_.slowdown per rank
  std::vector<std::size_t> op_index_;   // per-rank one-sided op counter
};

}  // namespace xfci::pv
