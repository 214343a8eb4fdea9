// SimulatedDdi: the discrete-event backend of the DDI layer, a
// deterministic virtual parallel machine (make_simulated_ddi).
//
// The paper's implementation runs on P Cray-X1 MSPs communicating through
// one-sided DDI/SHMEM operations.  Without that machine, xfci reproduces
// the parallel behaviour with a discrete-event simulation: the P ranks are
// logical entities with individual simulated clocks; all rank work is
// executed for real (the numerics are exact), and every kernel and
// communication event charges simulated time from the x1::CostModel.
//
// Determinism: scheduling decisions (which rank receives the next
// dynamic-load-balancing task) are made on simulated time with rank-id tie
// breaking, so a run is a pure function of its inputs -- no OS-thread
// nondeterminism.  Receiver-side congestion of accumulates and all-to-alls
// and of the DLB server is modeled with per-target busy-time accounting.
//
// Fault injection: the FaultPlan makes ranks die, messages drop or lag,
// and stragglers crawl -- all reproducibly (see fault.hpp).  A dead rank's
// clock freezes and it is excluded from DLB scheduling, barrier() and
// imbalance(); one-sided operations report whether they were delivered so
// callers can retransmit or reassign.
//
// Concurrency contract (capability-negative): a SimulatedDdi is confined
// to the driver thread.  It executes rank bodies *sequentially* (that is
// what makes runs pure functions of their inputs), so the clocks, alive
// masks and counters have exactly one thread touching them and carry no
// capability.  The threads backend never constructs one; its concurrency
// lives in ThreadTeam, whose state is capability-annotated (DESIGN.md §13).

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "parallel/ddi.hpp"
#include "parallel/task_pool.hpp"

namespace xfci::pv {
namespace {

/// What differs between a get and an accumulate on the simulator: the
/// issuer's charge, the ledger fields, and the occupancy of the owner's
/// receive bandwidth (nullptr: none, a get's reply is the issuer's charge).
struct OpKind {
  double (x1::CostModel::*seconds)(double) const;
  std::size_t CommCounters::*calls;
  double CommCounters::*words;
  double (x1::CostModel::*absorb)(double) const;
};

/// Indexed by OneSided.  An accumulate touches the target twice (fetch +
/// writeback).
constexpr OpKind kOpKinds[2] = {
    {&x1::CostModel::get_seconds, &CommCounters::get_calls,
     &CommCounters::get_words, nullptr},
    {&x1::CostModel::acc_seconds, &CommCounters::acc_calls,
     &CommCounters::acc_words, &x1::CostModel::acc_target_seconds},
};

class SimulatedDdi final : public Ddi {
 public:
  SimulatedDdi(std::size_t num_ranks, const x1::CostModel& cost,
               const FaultPlan& faults)
      : model_(cost),
        plan_(faults),
        clocks_(num_ranks, 0.0),
        recv_busy_(num_ranks, 0.0),
        counters_(num_ranks),
        alive_(num_ranks, 1),
        slowdown_(num_ranks, 1.0),
        op_index_(num_ranks, 0) {
    XFCI_REQUIRE(num_ranks >= 1, "machine needs at least one rank");
    for (std::size_t r = 0; r < num_ranks; ++r)
      slowdown_[r] = plan_.slowdown(r);
  }

  const char* name() const override { return "sim"; }
  std::size_t num_ranks() const override { return clocks_.size(); }
  std::size_t num_workers() const override { return clocks_.size(); }
  bool alive(std::size_t rank) const override { return alive_.at(rank) != 0; }

  OpOutcome one_sided(OneSided op, std::size_t rank, std::size_t owner,
                      double words) override;
  void charge(std::size_t rank, const Work& work) override;
  bool models_cost() const override { return true; }

  double barrier() override;
  double elapsed() const override;
  double imbalance() const override { return last_imbalance_; }

  double now(std::size_t rank) const override { return clocks_.at(rank); }

  PoolStats run_pool(const TaskPool& pool,
                     const std::shared_ptr<const PoolHooks>& hooks,
                     std::span<const double> input) override;

  void for_ranks(const std::function<void(std::size_t)>& body) override {
    for (std::size_t r = 0; r < clocks_.size(); ++r) body(r);
  }

  CommCounters counters(std::size_t slot) const override {
    return counters_.at(slot);
  }

 private:
  /// Advances a live rank's clock by `seconds` times its slowdown.
  void charge_seconds(std::size_t rank, double seconds) {
    XFCI_ASSERT(seconds >= 0.0, "negative time charge");
    if (alive_.at(rank) == 0) return;
    clocks_[rank] += seconds * slowdown_[rank];
  }
  /// A live rank's all-to-all share, congesting every surviving receiver.
  void alltoall(std::size_t rank, std::size_t peers, double remote_words);

  /// Declares `rank` failed: its clock freezes at the current value and it
  /// no longer takes part in scheduling, charges or barriers.
  void kill_rank(std::size_t rank) { alive_.at(rank) = 0; }

  /// Surviving rank with the smallest clock (ties broken by rank id): the
  /// dynamic-load-balance scheduler's pick.  Dead ranks never win (their
  /// frozen clocks would otherwise take every tie-break).
  std::size_t earliest_rank() const;

  /// One DLB request (SHMEM_SWAP on the server rank), serialized at the
  /// server: it starts when both `rank` and the server are free.
  void serve_dlb(std::size_t rank) {
    if (alive_.at(rank) == 0) return;
    const double start = std::max(clocks_.at(rank), server_free_);
    server_free_ = start + model_.dlb_latency;
    clocks_.at(rank) = server_free_;
    ++counters_.at(rank).dlb_calls;
  }

  x1::CostModel model_;
  FaultPlan plan_;
  std::vector<double> clocks_;
  std::vector<double> recv_busy_;  // receiver congestion accumulators
  double server_free_ = 0.0;       // DLB server availability
  double last_imbalance_ = 0.0;
  std::vector<CommCounters> counters_;
  std::vector<std::uint8_t> alive_;
  std::vector<double> slowdown_;       // cached plan_.slowdown per rank
  std::vector<std::size_t> op_index_;  // per-rank one-sided op counter
  /// run_pool's payload buffer: one item at a time, since each item is
  /// committed right after it is staged.
  std::vector<double> payload_;
};

std::size_t SimulatedDdi::earliest_rank() const {
  std::size_t best = clocks_.size();
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    if (best == clocks_.size() || clocks_[r] < clocks_[best]) best = r;
  }
  XFCI_REQUIRE(best < clocks_.size(),
               "every rank has failed; the run cannot continue");
  return best;
}

// The one recorder of get and acc.  Data movement itself is performed by
// the caller; this charges time, counts the op in the issuer's ledger row
// and tracks congestion.  kDropped means the issuing rank is dead or died
// issuing this very op (neither is counted), or the op was lost by fault
// injection or to a dead owner; the caller owns retransmission.
OpOutcome SimulatedDdi::one_sided(OneSided op, std::size_t rank,
                                  std::size_t owner, double words) {
  const OpKind& kind = kOpKinds[static_cast<std::size_t>(op)];
  if (alive_.at(rank) == 0) return OpOutcome::kDropped;
  const std::size_t n = ++op_index_[rank];
  if (n == plan_.death_op(rank)) {
    kill_rank(rank);
    return OpOutcome::kDropped;
  }
  CommCounters& cc = counters_.at(rank);
  ++(cc.*kind.calls);
  if (rank == owner) {  // an indexed copy, not a network transfer
    charge_seconds(rank, model_.indexed_seconds(words));
    return OpOutcome::kDelivered;
  }
  charge_seconds(rank, (model_.*kind.seconds)(words));
  cc.*kind.words += words;
  const FaultPlan::Decision d = plan_.on_one_sided(rank, n);
  if (d.delay > 0.0) {
    charge_seconds(rank, d.delay);
    ++cc.ops_delayed;
  }
  // A dropped op is lost before the target applies it (a dropped
  // accumulate never took the DDI_ACC mutex), so a retransmit lands
  // exactly once.
  if (d.drop || alive_.at(owner) == 0) {
    ++cc.ops_dropped;
    return OpOutcome::kDropped;
  }
  if (kind.absorb != nullptr)
    recv_busy_.at(owner) += (model_.*kind.absorb)(words);
  return OpOutcome::kDelivered;
}

// The one converter of work into seconds: each field advances the clock in
// Work's order, then the record's counts join the rank's row.
void SimulatedDdi::charge(std::size_t rank, const Work& work) {
  if (alive_.at(rank) == 0) return;  // a dead rank's clock and row freeze
  alltoall(rank, work.alltoall_peers, work.alltoall_words);
  for (const auto& [m, n, k] : work.dgemm)
    charge_seconds(rank, model_.dgemm_seconds(m, n, k));
  charge_seconds(rank, model_.indexed_seconds(work.indexed_words));
  charge_seconds(rank, model_.daxpy_seconds(work.daxpy_flops));
  charge_seconds(rank, work.seconds);
  CommCounters& cc = counters_.at(rank);
  cc.flops += work.flops();
  cc.retransmits += work.retransmits;
}

void SimulatedDdi::alltoall(std::size_t rank, std::size_t peers,
                            double remote_words) {
  if (peers == 0 || remote_words <= 0.0) return;
  charge_seconds(rank, static_cast<double>(peers) * model_.get_latency +
                           8.0 * remote_words / model_.get_bandwidth);
  counters_.at(rank).get_words += remote_words;
  counters_.at(rank).get_calls += peers;
  // Receiver congestion (symmetric with acc): the words this rank pulls
  // occupy its own node's receive bandwidth, and serving them occupies the
  // source nodes' -- attributed evenly across the surviving peers since
  // the all-to-all spreads the traffic.  Without this the Vector-Symm
  // transpose phases could beat the node-bandwidth bound.
  recv_busy_.at(rank) += model_.recv_target_seconds(remote_words);
  std::size_t others = 0;
  for (std::size_t q = 0; q < clocks_.size(); ++q)
    if (q != rank && alive_[q] != 0) ++others;
  if (others > 0) {
    const double served = remote_words / static_cast<double>(others);
    for (std::size_t q = 0; q < clocks_.size(); ++q)
      if (q != rank && alive_[q] != 0)
        recv_busy_.at(q) += model_.recv_target_seconds(served);
  }
}

// Every live clock advances to the same value -- the maximum of the live
// rank clocks, the receiver busy times and the DLB server -- plus the
// barrier cost.
double SimulatedDdi::barrier() {
  // Time-triggered deaths are declared at barrier entry: a rank whose
  // clock passed its scripted death time missed the barrier.  Its work up
  // to here counts as delivered; everything after is the survivors'.
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0 && clocks_[r] >= plan_.death_time(r)) kill_rank(r);

  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    lo = first ? clocks_[r] : std::min(lo, clocks_[r]);
    hi = first ? clocks_[r] : std::max(hi, clocks_[r]);
    first = false;
  }
  XFCI_REQUIRE(!first, "barrier with every rank failed");
  double t = hi;
  last_imbalance_ = hi - lo;
  // Receiver congestion: a node cannot have absorbed accumulates faster
  // than its receive bandwidth allows.
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0) t = std::max(t, recv_busy_[r]);
  t = std::max(t, server_free_);
  t += model_.barrier_cost;
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0) clocks_[r] = t;
  // Dead ranks keep their frozen clocks; their congestion state is moot.
  std::fill(recv_busy_.begin(), recv_busy_.end(), t);
  server_free_ = t;
  return t;
}

double SimulatedDdi::elapsed() const {
  double t = 0.0;
  bool first = true;
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    t = first ? clocks_[r] : std::max(t, clocks_[r]);
    first = false;
  }
  XFCI_REQUIRE(!first, "elapsed() with every rank failed");
  return t;
}

Ddi::PoolStats SimulatedDdi::run_pool(
    const TaskPool& pool, const std::shared_ptr<const PoolHooks>& program,
    std::span<const double> input) {
  XFCI_REQUIRE(program && program->stage_words && program->stage &&
                   program->commit,
               "run_pool needs stage_words/stage/commit");
  const PoolHooks& hooks = *program;
  PoolStats st;
  obs::Tracer* tr = tracer();
  for (std::size_t chunk = 0; chunk < pool.num_chunks(); ++chunk) {
    // Dynamic load balancing: the earliest rank claims the next chunk
    // (DDI_DLBNEXT), so the claims come in chunk order.
    std::size_t r = earliest_rank();
    serve_dlb(r);
    if (tr) tr->instant(r, "dlb", "dlb_claim", clocks_.at(r));
    const auto [ibegin, iend] = pool.chunk(chunk);
    double span_start = clocks_.at(r);
    std::size_t retries = 0;
    std::size_t it = ibegin;
    while (it < iend) {
      payload_.resize(hooks.stage_words(it));
      if (hooks.stage(it, r, input, payload_)) {
        hooks.commit(it, payload_);  // atomic per item; never re-executed
        ++it;
        continue;
      }
      // The worker died mid-item.  Items before `it` committed; this one
      // left the output untouched.  The DLB manager notices the silence
      // after a task timeout and reassigns the rest of the aggregated task
      // to the (new) earliest surviving rank.
      XFCI_REQUIRE(retries < kMaxTaskRetries,
                   "aggregated DLB task exceeded its reassignment budget");
      ++retries;
      st.tasks_reassigned += 1;
      if (tr) {
        // Close the dead rank's partial span at its frozen clock, mark
        // where the replacement picks the task up.
        tr->span(r, "dlb", "task", span_start, clocks_.at(r),
                 obs::trace_args({{"chunk", static_cast<double>(chunk)},
                                  {"partial", 1.0}}));
      }
      if (hooks.on_worker_death) hooks.on_worker_death();
      r = earliest_rank();
      charge_seconds(r, model_.task_timeout);
      st.recovery_seconds += model_.task_timeout;
      serve_dlb(r);
      if (tr)
        tr->instant(r, "recovery", "task_reassigned", clocks_.at(r),
                    obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
      span_start = clocks_.at(r);
    }
    if (tr)
      tr->span(r, "dlb", "task", span_start, clocks_.at(r),
               obs::trace_args(
                   {{"chunk", static_cast<double>(chunk)},
                    {"items", static_cast<double>(iend - ibegin)}}));
  }
  return st;
}

}  // namespace

std::unique_ptr<Ddi> make_simulated_ddi(std::size_t num_ranks,
                                        const x1::CostModel& cost,
                                        const FaultPlan& faults) {
  return std::make_unique<SimulatedDdi>(num_ranks, cost, faults);
}

}  // namespace xfci::pv
