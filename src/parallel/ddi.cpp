#include "parallel/ddi.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/task_pool.hpp"
#include "parallel/thread_team.hpp"

namespace xfci::pv {

CommCounters& CommCounters::operator+=(const CommCounters& o) {
  flops += o.flops;
  get_words += o.get_words;
  acc_words += o.acc_words;
  get_calls += o.get_calls;
  acc_calls += o.acc_calls;
  dlb_calls += o.dlb_calls;
  ops_dropped += o.ops_dropped;
  ops_delayed += o.ops_delayed;
  retransmits += o.retransmits;
  spawns += o.spawns;
  return *this;
}

double Work::flops() const {
  double f = daxpy_flops;
  for (const auto& [m, n, k] : dgemm)
    f += 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
  return f;
}

std::size_t Ddi::num_alive() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < num_ranks(); ++r) n += alive(r) ? 1 : 0;
  return n;
}

std::vector<std::uint8_t> Ddi::alive_mask() const {
  std::vector<std::uint8_t> mask(num_ranks());
  for (std::size_t r = 0; r < mask.size(); ++r) mask[r] = alive(r) ? 1 : 0;
  return mask;
}

CommCounters Ddi::totals() const {
  CommCounters t;
  for (std::size_t s = 0; s < num_slots(); ++s) t += counters(s);
  return t;
}

void Ddi::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  // Static phases emit by rank id and pool stages by worker id, so the
  // tracks mirror the charge slots (never written concurrently: the
  // phases are separated by region joins); the control track comes last.
  const std::size_t lanes = num_slots();
  tracer_->enable(lanes + 1);
  tracer_->set_control_track(lanes);
  for (std::size_t r = 0; r < num_ranks(); ++r)
    tracer_->name_track(r, "rank " + std::to_string(r));
  for (std::size_t w = num_ranks(); w < lanes; ++w)
    tracer_->name_track(w, "worker " + std::to_string(w));
  tracer_->name_track(lanes, "driver");
  tracer_->set_clock([this] { return elapsed(); });
}

namespace {

// ---------------------------------------------------------------------------
// ThreadsDdi: the DDI layer over a pv::ThreadTeam.  Every rank's data is in
// the shared address space, so one-sided ops deliver without moving
// anything (the ledger counts the calls, never words); clocks are wall
// time; run_pool claims chunks with the team's atomic counter and retires
// commits through an OrderedSequencer so the accumulation order equals the
// serial item order.
// ---------------------------------------------------------------------------
class ThreadsDdi final : public Ddi {
 public:
  ThreadsDdi(std::size_t num_ranks, std::size_t num_threads,
             const FaultPlan& faults)
      : num_ranks_(num_ranks),
        team_(num_threads),
        plan_(faults),
        // Charge slots: static phases charge by rank id, pool stages by
        // worker id; one flat array serves both.
        slots_(std::max(num_ranks_, team_.size())),
        payloads_(team_.size()) {}

  const char* name() const override { return "threads"; }
  std::size_t num_ranks() const override { return num_ranks_; }
  std::size_t num_workers() const override { return team_.size(); }
  bool alive(std::size_t) const override { return true; }

  // One-sided ops are shared-memory loads/stores the caller already
  // performed: the ledger counts the call and no words, so comm_words
  // stays 0 on this backend (the one-address-space word rule).
  OpOutcome one_sided(OneSided op, std::size_t slot, std::size_t,
                      double) override {
    CommCounters& cc = slots_[slot].cc;
    ++(op == OneSided::kGet ? cc.get_calls : cc.acc_calls);
    return OpOutcome::kDelivered;
  }
  // Wall time is measured, not modeled: a record adds only its counts.
  void charge(std::size_t slot, const Work& work) override {
    CommCounters& cc = slots_[slot].cc;
    cc.flops += work.flops();
    cc.retransmits += work.retransmits;
  }
  bool models_cost() const override { return false; }

  // Parallel regions join before the next barrier() call, so the barrier
  // itself is just a wall-clock timestamp for the phase-row deltas.
  double barrier() override { return timer_.seconds(); }
  double elapsed() const override { return timer_.seconds(); }
  double imbalance() const override { return 0.0; }

  double now(std::size_t) const override { return timer_.seconds(); }

  PoolStats run_pool(const TaskPool& pool,
                     const std::shared_ptr<const PoolHooks>& hooks,
                     std::span<const double> input) override;

  void for_ranks(const std::function<void(std::size_t)>& body) override {
    team_.for_dynamic(num_ranks_,
                      [&](std::size_t r, std::size_t) { body(r); });
  }

  CommCounters counters(std::size_t slot) const override {
    return slots_.at(slot).cc;
  }

 private:
  /// One charge slot's ledger row, padded to a cache line so workers
  /// charging neighbouring slots never false-share.
  struct alignas(64) Slot {
    CommCounters cc;
  };
  /// One worker's run_pool payload buffer: the payloads of the chunk it
  /// holds, back to back (item k of the chunk at [offs[k], offs[k+1])).
  /// A worker stages its whole chunk before the ordered commit, and the
  /// buffer keeps its capacity from pool to pool.
  struct alignas(64) ChunkPayloads {
    std::vector<double> words;
    std::vector<std::size_t> offs;
  };

  // Concurrency contract (capability-negative: nothing here is guarded by
  // a mutex, each member is safe for a documented structural reason —
  // DESIGN.md §13):
  //  * slots_ is written concurrently by workers, but every slot has
  //    exactly one writer (static phases index by rank id, pool stages by
  //    worker id, and the two never overlap a region).
  //  * payloads_ likewise: worker `tid` alone touches payloads_[tid].
  //  * The DLB claim counter is the team's (ThreadTeam::for_pool_resilient).
  //  * plan_ and the tracer are set before parallel regions start and
  //    only read inside them.
  std::size_t num_ranks_;
  ThreadTeam team_;
  FaultPlan plan_;
  Timer timer_;
  std::vector<Slot> slots_;  // slot-disjoint writes (see above)
  std::vector<ChunkPayloads> payloads_;  // one per worker
};

Ddi::PoolStats ThreadsDdi::run_pool(
    const TaskPool& pool, const std::shared_ptr<const PoolHooks>& program,
    std::span<const double> input) {
  XFCI_REQUIRE(program && program->stage_words && program->stage &&
                   program->commit,
               "run_pool needs stage_words/stage/commit");
  const PoolHooks& hooks = *program;
  PoolStats st;
  OrderedSequencer commit;
  obs::Tracer* tr = tracer();
  std::vector<double> rework(pool.num_chunks(), 0.0);
  std::vector<std::uint8_t> reassigned(pool.num_chunks(), 0);
  // Per-worker claim counters feeding the fault plan's worker-death
  // schedule; each worker touches only its own slot.
  std::vector<std::size_t> claims(team_.size(), 0);

  team_.for_pool_resilient(pool, [&](std::size_t chunk,
                                     std::size_t tid) -> bool {
    const double t_claim = timer_.seconds();
    if (tr)
      tr->instant(tid, "dlb", "dlb_claim", t_claim,
                  obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
    const bool dies = plan_.worker_death_claim(tid) == ++claims[tid];
    const auto [ibegin, iend] = pool.chunk(chunk);
    ChunkPayloads& buf = payloads_[tid];
    buf.offs.assign(1, 0);
    for (std::size_t it = ibegin; it < iend; ++it)
      buf.offs.push_back(buf.offs.back() + hooks.stage_words(it));
    buf.words.resize(buf.offs.back());
    const auto payload = [&buf, ibegin](std::size_t it) {
      const std::size_t k = it - ibegin;
      return std::span<double>(buf.words)
          .subspan(buf.offs[k], buf.offs[k + 1] - buf.offs[k]);
    };
    for (std::size_t it = ibegin; it < iend; ++it)
      hooks.stage(it, tid, input, payload(it));
    if (dies) {
      // The worker crashed with its results unsent.  The replacement
      // re-executes the chunk inline (same OS thread, so the ordered
      // commit below happens at the chunk's normal turn and the gate never
      // stalls on a dead worker); the re-execution time is the recovery
      // cost.  The recompute repeats the lost worker's flops and one-sided
      // calls rather than adding new ones, so its charges are rolled back.
      if (tr)
        tr->instant(tid, "recovery", "worker_death", timer_.seconds(),
                    obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
      const Timer redo;
      const Slot charged = slots_[tid];
      for (std::size_t it = ibegin; it < iend; ++it)
        hooks.stage(it, tid, input, payload(it));
      slots_[tid] = charged;
      rework[chunk] = redo.seconds();
      reassigned[chunk] = 1;
    }
    const double t_gate = timer_.seconds();
    const double waited = commit.wait_turn(chunk);
    if (tr && waited > 0.0)
      tr->span(tid, "dlb", "commit_wait", t_gate, timer_.seconds(),
               obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
    for (std::size_t it = ibegin; it < iend; ++it)
      hooks.commit(it, payload(it));
    commit.complete(chunk);
    if (tr)
      tr->span(tid, "dlb", "task", t_claim, timer_.seconds(),
               obs::trace_args(
                   {{"chunk", static_cast<double>(chunk)},
                    {"items", static_cast<double>(iend - ibegin)}}));
    return !dies;
  });

  for (std::size_t ch = 0; ch < pool.num_chunks(); ++ch) {
    st.recovery_seconds += rework[ch];
    st.tasks_reassigned += reassigned[ch];
  }
  return st;
}

}  // namespace

std::unique_ptr<Ddi> make_threads_ddi(std::size_t num_ranks,
                                      std::size_t num_threads,
                                      const FaultPlan& faults) {
  return std::make_unique<ThreadsDdi>(num_ranks, num_threads, faults);
}

}  // namespace xfci::pv
