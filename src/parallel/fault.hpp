#pragma once
// Deterministic fault injection for the virtual parallel machine.
//
// The simulated backend is a pure function of its inputs: scheduling is
// decided on simulated clocks with rank-id tie breaking, and every charge
// is computed from the cost model.  A FaultPlan exploits that purity to
// make failures exactly reproducible -- the same plan against the same
// workload produces the same deaths, the same lost messages and the same
// recovery path on every run.
//
// Three failure classes are modeled (DESIGN.md "Failure model"):
//
//  * Rank death.  Triggered either when a rank issues its n-th one-sided
//    operation (a crash mid-task, detected immediately by the requester's
//    lost acknowledgement) or once its clock passes a simulated time
//    (detected at the next barrier).  A dead rank's clock freezes and it
//    is excluded from DLB scheduling, barriers and imbalance accounting.
//  * Lost / delayed one-sided operations.  The n-th get/acc of a rank
//    can be dropped (the payload never arrives; the requester notices via
//    an acknowledgement timeout and retransmits) or delayed by a fixed
//    amount.  Drops are defined to happen *before* the remote side applies
//    the data, so a retransmitted accumulate lands exactly once.
//  * Stragglers.  Every charge on a slowed rank is stretched by a factor,
//    modeling a thermally-throttled or contended node.
//
// Scripted triggers compose with a seeded random mode: randomize() draws a
// drop/delay decision for every remote operation from a counter-based hash
// of (seed, rank, op index), so decisions are independent of evaluation
// order and identical across the kSimulate and kThreads backends.
//
// The kThreads backend consumes only kill_worker_at_claim(): a worker
// thread "crashes" while executing its n-th claimed chunk, the chunk is
// re-executed by a replacement, and the worker retires from the claim loop
// (ThreadTeam::for_pool_resilient).

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

namespace xfci::pv {

/// Outcome of a one-sided operation under fault injection.  kDropped means
/// the payload was lost before the remote side applied it (or the issuing
/// rank is dead); the caller decides whether to retransmit.
enum class OpOutcome { kDelivered, kDropped };

// Concurrency contract (capability-negative): a FaultPlan is built
// single-threaded (the chaining setters), then handed to a backend and
// only *read* from parallel regions — worker_death_claim/on_one_sided are
// pure lookups on the frozen tables, so concurrent workers need no lock.
// The mutable alive masks and per-rank op counters derived from the plan
// live in the backends (driver-thread-confined on the simulator) and in
// run_pool locals, never in the shared plan.
class FaultPlan {
 public:
  FaultPlan() = default;

  // --- scripted events (all setters return *this for chaining) -------------
  /// Rank `rank` fails once its clock reaches `seconds`; the failure is
  /// declared at the next barrier (its phase contributions up to that
  /// barrier count as delivered).
  FaultPlan& kill_rank_at_time(std::size_t rank, double seconds);

  /// Rank `rank` crashes while issuing its `op`-th one-sided operation
  /// (1-based, counted over its get/acc calls); the operation
  /// never completes.
  FaultPlan& kill_rank_at_op(std::size_t rank, std::size_t op);

  /// The `op`-th one-sided operation of `rank` (1-based) is lost in the
  /// network.
  FaultPlan& drop_op(std::size_t rank, std::size_t op);

  /// The `op`-th one-sided operation of `rank` is delayed by `seconds`.
  FaultPlan& delay_op(std::size_t rank, std::size_t op, double seconds);

  /// Every time charge on `rank` is stretched by `factor` >= 1.
  FaultPlan& slow_rank(std::size_t rank, double factor);

  /// kThreads backend: worker `tid` crashes while executing its `claim`-th
  /// claimed chunk (1-based).
  FaultPlan& kill_worker_at_claim(std::size_t tid, std::size_t claim);

  // --- seeded random faults ------------------------------------------------
  /// Every remote one-sided operation is independently dropped with
  /// probability `drop_prob` and delayed with probability `delay_prob` by
  /// up to `max_delay` seconds.  Decisions come from a counter-based hash
  /// of (seed, rank, op index): same seed => same event sequence,
  /// regardless of evaluation order.
  FaultPlan& randomize(std::uint64_t seed, double drop_prob,
                       double delay_prob = 0.0, double max_delay = 0.0);

  /// True when the plan injects nothing (the default-constructed state).
  bool empty() const;

  // --- queries (consumed by the backends) ------------------------------------
  /// Straggler multiplier for `rank` (1.0 when not slowed).
  double slowdown(std::size_t rank) const;

  /// Simulated time at which `rank` dies, or +infinity when it never does.
  double death_time(std::size_t rank) const;

  /// 1-based one-sided op index at which `rank` dies (0 = never).
  std::size_t death_op(std::size_t rank) const;

  /// 1-based claim count at which worker `tid` dies (0 = never).
  std::size_t worker_death_claim(std::size_t tid) const;

  /// Fate of the `op`-th (1-based) remote one-sided operation of `rank`:
  /// scripted drop/delay merged with the seeded random draw.
  struct Decision {
    bool drop = false;
    double delay = 0.0;
  };
  Decision on_one_sided(std::size_t rank, std::size_t op) const;

 private:
  std::map<std::size_t, double> slow_;
  std::map<std::size_t, double> death_time_;
  std::map<std::size_t, std::size_t> death_op_;
  std::map<std::size_t, std::size_t> worker_claim_;
  std::map<std::pair<std::size_t, std::size_t>, double> delays_;
  std::map<std::pair<std::size_t, std::size_t>, bool> drops_;
  bool randomized_ = false;
  std::uint64_t seed_ = 0;
  double drop_prob_ = 0.0;
  double delay_prob_ = 0.0;
  double max_delay_ = 0.0;
};

}  // namespace xfci::pv
