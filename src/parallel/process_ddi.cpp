#include "parallel/process_ddi.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "parallel/shm_ipc.hpp"
#include "parallel/task_pool.hpp"

#if defined(__linux__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace xfci::pv {

#if defined(__linux__)

namespace {

// ---------------------------------------------------------------------------
// Shared-arena layout.  All cross-process state is std::atomic words inside
// the two shm segments; the structs are placement-new'ed by the driver
// before the ranks are forked, so the ranks inherit fully-constructed
// objects at the same addresses.  Everything is lock-free atomics — a rank
// can die at ANY instruction without leaving a lock held, which is the
// whole point of the seqlock/generation protocol below.
// ---------------------------------------------------------------------------

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the shm protocol needs lock-free 64-bit atomics");
static_assert(std::atomic<double>::is_always_lock_free,
              "the shm counters need lock-free double atomics");

constexpr std::uint64_t kRetryRing = 4096;
/// Upper bound on one pool's staged-payload arena, in doubles (guards
/// ftruncate against a miscomputed layout).
constexpr std::size_t kMaxPayloadWords = std::size_t(1) << 27;  // 1 GiB
/// driver_wants value of a driver waiting for its ranks to go idle.
constexpr std::uint64_t kWantIdle = std::numeric_limits<std::uint64_t>::max();

/// Wall timestamps travel through the arena as bit patterns (Timer reads
/// std::chrono::steady_clock, which is system-wide, so rank timestamps
/// land in the driver's clock domain).
std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}
double double_of(std::uint64_t u) {
  double v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

/// The DLB counter and the pool lifecycle.  Pools are numbered from 1;
/// `epoch` is the pool opened last and `closed` the pool closed last.  The
/// two doorbells are the futex words (32-bit, the futex ABI) the ranks and
/// the driver sleep on.
struct alignas(64) ControlHeader {
  std::atomic<std::uint64_t> dlb_next{0};  ///< the SHMEM_SWAP DLB counter
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> closed{0};
  /// Bumped and woken by the driver when a pool opens, a chunk is
  /// re-issued, or the pool closes.
  std::atomic<std::uint32_t> rank_bell{0};
  /// Bumped by a rank after every publish and when it goes idle; woken only
  /// for the event the sleeping driver announced in `driver_wants`.
  std::atomic<std::uint32_t> driver_bell{0};
  /// Item + 1 the driver is waiting to commit, kWantIdle, or 0 (awake).
  std::atomic<std::uint64_t> driver_wants{0};
};

/// One rank's slice of the control segment (its own cache line: the
/// heartbeat is ticked on every item and must not false-share).
struct alignas(64) RankCell {
  std::atomic<std::uint64_t> heartbeat{0};  ///< ticked by the rank
  std::atomic<std::uint32_t> alive{1};      ///< 0 = dead / fenced
  std::atomic<std::uint64_t> entered{0};    ///< last pool checked in to
  std::atomic<std::uint64_t> idle{0};       ///< last pool finished
  std::atomic<std::uint64_t> ops{0};        ///< one-sided op index (1-based)
  std::atomic<std::uint64_t> claims{0};     ///< cumulative chunk claims
  // The rank's ledger row (counters() rebuilds a CommCounters from these).
  // Ranks and driver write the same shm cells, so ops and flops charged
  // inside a rank process reach the driver's totals.
  std::atomic<std::uint64_t> get_calls{0}, acc_calls{0};
  std::atomic<std::uint64_t> dlb_calls{0};
  std::atomic<std::uint64_t> ops_dropped{0}, ops_delayed{0}, retransmits{0};
  std::atomic<std::uint64_t> spawns{0};
  std::atomic<double> get_words{0.0}, acc_words{0.0};
  std::atomic<double> flops{0.0};
};

struct alignas(64) PoolHeader {
  /// Reassignment ring (driver is the only producer): entries are
  /// (chunk << 32) | generation, claimed by ranks before fresh counter
  /// values so re-issued work is picked up first.
  std::atomic<std::uint64_t> retry_push{0}, retry_pop{0};
  std::atomic<std::uint64_t> retry_ring[kRetryRing];
};

struct alignas(64) ChunkCell {
  /// (generation << 32) | (rank + 1); 0 = never claimed.
  std::atomic<std::uint64_t> claim{0};
  std::atomic<std::uint64_t> claim_time_bits{0};
  std::atomic<std::uint64_t> publish_time_bits{0};
};

/// One work item's payload-slot header: the torn-accumulate protection.
/// A rank bumps `seq` to odd, stages the item straight into its payload
/// span, bumps `seq` back to even and only then publishes `ready_gen`; the
/// driver consumes a slot only when ready_gen matches the chunk's current
/// generation, so a rank SIGKILL'd mid-write (odd seq, stale ready_gen)
/// simply never publishes and its half-written payload is discarded with
/// its generation.
struct alignas(64) ItemCell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ready_gen{0};
};

[[noreturn]] void kill_self() {
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable: SIGKILL cannot be blocked
}

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

/// A deadline's age in a fencing reason.
std::string ms(double seconds) {
  return std::to_string(std::lround(seconds * 1e3)) + " ms";
}

/// Bumps a doorbell and wakes everyone sleeping on it.
void ring(std::atomic<std::uint32_t>& bell) {
  bell.fetch_add(1, std::memory_order_seq_cst);
  shared_futex_wake_all(bell);
}

// ---------------------------------------------------------------------------
// ProcessDdi
// ---------------------------------------------------------------------------
class ProcessDdi final : public Ddi {
 public:
  ProcessDdi(std::size_t num_ranks, const FaultPlan& faults,
             const ProcessDdiParams& params)
      : num_ranks_(num_ranks), plan_(faults), params_(params) {
    XFCI_REQUIRE(num_ranks_ >= 1 && num_ranks_ < 0xffffffffu,
                 "process backend needs at least one rank");
    reap_stale_segments();  // orphan hygiene: clean up after crashed runs
    control_ = ShmSegment::create(sizeof(ControlHeader) +
                                  num_ranks_ * sizeof(RankCell));
    new (control_.data()) ControlHeader{};
    RankCell* cells = first_cell();
    for (std::size_t r = 0; r < num_ranks_; ++r) new (cells + r) RankCell{};
    pids_.assign(num_ranks_, -1);
    death_reasons_.assign(num_ranks_, {});
    hb_seen_.assign(num_ranks_, 0);
    hb_time_.assign(num_ranks_, 0.0);
  }

  ProcessDdi(const ProcessDdi&) = delete;
  ProcessDdi& operator=(const ProcessDdi&) = delete;
  ~ProcessDdi() override { stop_ranks(); }

  const char* name() const override { return "process"; }
  std::size_t num_ranks() const override { return num_ranks_; }
  std::size_t num_workers() const override { return num_ranks_; }
  bool alive(std::size_t rank) const override {
    return cell(rank).alive.load(std::memory_order_acquire) != 0;
  }

  // One-sided ops: the payload movement itself is the caller's copy (the
  // rank reads the pool's input slab and writes its arena slot); the Ddi
  // accounts the op in the shm counters and runs the fault triggers.  A
  // rank whose FaultPlan op-count death fires dies HERE, mid-operation, by
  // its own hand — a genuine SIGKILL the driver must detect from outside.
  OpOutcome one_sided(OneSided op, std::size_t rank, std::size_t owner,
                      double words) override {
    if (!alive(rank) || !alive(owner)) return OpOutcome::kDropped;
    RankCell& c = cell(rank);
    const std::uint64_t n =
        c.ops.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan_.death_op(rank) == n) {
      if (in_child_) kill_self();  // crashes mid-op; never returns
      // The driver issued the op on the rank's behalf (static phase /
      // recovery refetch): the rank crashes issuing it, the op is lost.
      declare_dead(rank, "op trigger fired at op " + std::to_string(n));
      return OpOutcome::kDropped;
    }
    const FaultPlan::Decision d =
        plan_.on_one_sided(rank, static_cast<std::size_t>(n));
    if (d.delay > 0.0)
      c.ops_delayed.fetch_add(1, std::memory_order_relaxed);
    if (d.drop) {
      c.ops_dropped.fetch_add(1, std::memory_order_relaxed);
      return OpOutcome::kDropped;
    }
    const bool get = op == OneSided::kGet;
    (get ? c.get_calls : c.acc_calls).fetch_add(1, std::memory_order_relaxed);
    (get ? c.get_words : c.acc_words)
        .fetch_add(words, std::memory_order_relaxed);
    return OpOutcome::kDelivered;
  }
  // Wall time is measured, not modeled, and transposes move nothing (the
  // driver holds every column): a record adds only its nonzero counts, so
  // a rank process issues no shm atomic it does not need.
  void charge(std::size_t slot, const Work& work) override {
    RankCell& c = cell(slot);
    if (const double flops = work.flops(); flops != 0.0)
      c.flops.fetch_add(flops, std::memory_order_relaxed);
    if (work.retransmits != 0)
      c.retransmits.fetch_add(work.retransmits, std::memory_order_relaxed);
  }
  bool models_cost() const override { return false; }

  // The barrier is a wall timestamp (ranks sleep between pools, and
  // in-pool synchronization is the commit protocol); it is also where the
  // driver declares — and fences — time-triggered deaths that fall between
  // pools, so static phases see the same "declared at the next barrier"
  // semantics as the simulator.
  double barrier() override {
    const double t = timer_.seconds();
    if (!in_child_) {
      for (std::size_t r = 0; r < num_ranks_; ++r)
        if (alive(r) && plan_.death_time(r) <= t)
          declare_dead(r, "time trigger fired");
    }
    return t;
  }
  double elapsed() const override { return timer_.seconds(); }
  double imbalance() const override { return 0.0; }

  double now(std::size_t) const override { return timer_.seconds(); }

  PoolStats run_pool(const TaskPool& pool,
                     const std::shared_ptr<const PoolHooks>& hooks,
                     std::span<const double> input) override;

  // Static phases are zero-communication on this backend (every rank's
  // columns live in the driver's address space), so they run sequentially
  // in the driver, like the simulator — the rank processes work only in
  // the dynamic pool, where all one-sided traffic and all deaths happen.
  void for_ranks(const std::function<void(std::size_t)>& body) override {
    for (std::size_t r = 0; r < num_ranks_; ++r) body(r);
  }

  CommCounters counters(std::size_t slot) const override {
    const RankCell& c = cell(slot);
    CommCounters cc;
    cc.flops = c.flops.load(std::memory_order_relaxed);
    cc.get_words = c.get_words.load(std::memory_order_relaxed);
    cc.acc_words = c.acc_words.load(std::memory_order_relaxed);
    cc.get_calls = c.get_calls.load(std::memory_order_relaxed);
    cc.acc_calls = c.acc_calls.load(std::memory_order_relaxed);
    cc.dlb_calls = c.dlb_calls.load(std::memory_order_relaxed);
    cc.ops_dropped = c.ops_dropped.load(std::memory_order_relaxed);
    cc.ops_delayed = c.ops_delayed.load(std::memory_order_relaxed);
    cc.retransmits = c.retransmits.load(std::memory_order_relaxed);
    cc.spawns = c.spawns.load(std::memory_order_relaxed);
    return cc;
  }

 private:
  // --- arena accessors ------------------------------------------------------
  ControlHeader* control_header() const {
    return static_cast<ControlHeader*>(control_.data());
  }
  RankCell* first_cell() const {
    return reinterpret_cast<RankCell*>(
        static_cast<char*>(control_.data()) + sizeof(ControlHeader));
  }
  RankCell& cell(std::size_t r) const {
    XFCI_DCHECK(r < num_ranks_, "rank index out of range");
    return first_cell()[r];
  }
  PoolHeader* pool_header() const {
    return static_cast<PoolHeader*>(pool_.data());
  }
  ChunkCell& chunk_cell(std::size_t c) const {
    return reinterpret_cast<ChunkCell*>(static_cast<char*>(pool_.data()) +
                                        off_chunks_)[c];
  }
  ItemCell& item_cell(std::size_t it) const {
    return reinterpret_cast<ItemCell*>(static_cast<char*>(pool_.data()) +
                                       off_items_)[it];
  }
  /// Item `it`'s payload slot: exactly stage_words(it) doubles.
  std::span<double> payload_slot(std::size_t it) const {
    return {reinterpret_cast<double*>(static_cast<char*>(pool_.data()) +
                                      off_payload_) +
                item_off_[it],
            item_words_[it]};
  }
  /// The pool's input slab: the driver's copy of run_pool's input.
  double* input_slab() const {
    return reinterpret_cast<double*>(static_cast<char*>(pool_.data()) +
                                     off_input_);
  }

  // --- failure domain (driver side) -----------------------------------------
  /// Declares `rank` dead for `reason` and fences its process: SIGKILL,
  /// then reap.  A rank process outlives its pools, so a dead rank must
  /// not keep one.  After this returns the rank can no longer write the
  /// arena, so bumping a chunk generation is safe (STONITH).  Driver-only:
  /// a rank's copy of pids_ names its siblings.  The first reason sticks;
  /// errors about dead ranks quote it (death_report).
  void declare_dead(std::size_t rank, const std::string& reason) {
    XFCI_DCHECK(!in_child_, "only the driver fences ranks");
    const pid_t pid = pids_[rank];
    if (pid >= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);  // SIGKILL guarantees termination
      pids_[rank] = -1;
    }
    if (cell(rank).alive.exchange(0, std::memory_order_acq_rel) == 0)
      return;
    death_reasons_[rank] = reason;
    if (obs::Tracer* tr = tracer())
      tr->instant(rank, "recovery", "worker_death", timer_.seconds());
  }

  /// "; rank 0 exited (wait status 9); rank 1 ...": every rank declared
  /// dead, with its reason.
  std::string death_report() const {
    std::string s;
    for (std::size_t r = 0; r < num_ranks_; ++r)
      if (!death_reasons_[r].empty())
        s += "; rank " + std::to_string(r) + " " + death_reasons_[r];
    return s;
  }

  /// SIGKILLs every rank process first and reaps them afterwards, so the
  /// exits overlap.
  void stop_ranks() noexcept {
    for (const pid_t pid : pids_)
      if (pid >= 0) ::kill(pid, SIGKILL);
    for (pid_t& pid : pids_) {
      if (pid < 0) continue;
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }

  /// The watchdog, at most once per poll interval: reaps exited ranks (any
  /// exit before teardown is a death), fires time-triggered FaultPlan
  /// kills, fences ranks that miss the check-in deadline of the open pool,
  /// and fences ranks whose heartbeat went stale while they work on it.
  void watchdog() {
    const double now_s = timer_.seconds();
    if (now_s < next_poll_) return;
    next_poll_ = now_s + 1e-6 * static_cast<double>(params_.poll_micros);
    double max_age = 0.0;
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      const pid_t pid = pids_[r];
      if (pid < 0) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) pids_[r] = -1;
      if (pids_[r] < 0 || plan_.death_time(r) <= now_s) {
        // An exit before teardown, or a watchdog kill.
        declare_dead(r, pids_[r] < 0 ? "exited (wait status " +
                                           std::to_string(status) + ")"
                                     : "time trigger fired");
        continue;
      }
      const RankCell& c = cell(r);
      if (c.entered.load(std::memory_order_acquire) != epoch_) {
        // Not checked in to this pool yet: the heartbeat does not apply,
        // the check-in deadline does.
        hb_time_[r] = now_s;
        if (now_s - pool_open_time_ > params_.spawn_deadline)
          declare_dead(r, "missed the check-in deadline: " +
                              ms(now_s - pool_open_time_) + " after open");
        continue;
      }
      const std::uint64_t hb = c.heartbeat.load(std::memory_order_relaxed);
      if (hb != hb_seen_[r] ||
          c.idle.load(std::memory_order_acquire) == epoch_) {
        hb_seen_[r] = hb;
        hb_time_[r] = now_s;
      } else if (now_s - hb_time_[r] > params_.heartbeat_deadline) {
        declare_dead(r, "missed the heartbeat deadline: no tick for " +
                            ms(now_s - hb_time_[r]));
        continue;
      }
      max_age = std::max(max_age, now_s - hb_time_[r]);
    }
    // Liveness gauge: age of the stalest heartbeat among live ranks.
    tm_hb_age_.set(max_age);
  }

  std::size_t live_ranks() const {
    std::size_t n = 0;
    for (const pid_t pid : pids_) n += pid >= 0 ? 1 : 0;
    return n;
  }

  /// The driver's sleep: until the rank that signals `event` rings (or the
  /// doorbell already moved past `bell`), for at most one poll interval.
  void driver_wait(std::uint32_t bell, std::uint64_t event) {
    ControlHeader* ctl = control_header();
    ctl->driver_wants.store(event, std::memory_order_seq_cst);
    shared_futex_wait(ctl->driver_bell, bell, params_.poll_micros);
    ctl->driver_wants.store(0, std::memory_order_relaxed);
  }
  /// A rank's side of driver_wait: `event` happened.
  void notify_driver(std::uint64_t event) {
    ControlHeader* ctl = control_header();
    ctl->driver_bell.fetch_add(1, std::memory_order_seq_cst);
    if (ctl->driver_wants.load(std::memory_order_seq_cst) == event)
      shared_futex_wake_all(ctl->driver_bell);
  }

  // --- DLB counter and retry ring -------------------------------------------
  /// DDI_DLBNEXT, in a rank: claims the next fresh chunk of the open pool.
  std::size_t next_task(std::size_t rank) {
    cell(rank).dlb_calls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::size_t>(
        control_header()->dlb_next.fetch_add(1, std::memory_order_acq_rel));
  }

  void push_retry(std::uint64_t chunk, std::uint64_t gen) {
    PoolHeader* h = pool_header();
    const std::uint64_t p = h->retry_push.load(std::memory_order_relaxed);
    XFCI_REQUIRE(p - h->retry_pop.load(std::memory_order_acquire) <
                     kRetryRing,
                 "reassignment ring overflow");
    h->retry_ring[p % kRetryRing].store((chunk << 32) | gen,
                                        std::memory_order_release);
    h->retry_push.store(p + 1, std::memory_order_release);
    ring(control_header()->rank_bell);  // wake drained ranks
  }
  bool pop_retry(std::uint64_t& chunk, std::uint64_t& gen) {
    PoolHeader* h = pool_header();
    for (;;) {
      std::uint64_t p = h->retry_pop.load(std::memory_order_acquire);
      if (p >= h->retry_push.load(std::memory_order_acquire)) return false;
      if (h->retry_pop.compare_exchange_weak(p, p + 1,
                                             std::memory_order_acq_rel)) {
        const std::uint64_t v =
            h->retry_ring[p % kRetryRing].load(std::memory_order_acquire);
        chunk = v >> 32;
        gen = v & 0xffffffffu;
        cell(child_rank_).dlb_calls.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }

  // --- pool internals (run_pool helpers; definitions below) -----------------
  void bind(const TaskPool& pool, const std::shared_ptr<const PoolHooks>& hooks,
            std::size_t input_words);
  bool same_chunks(const TaskPool& pool) const;
  void open_pool(std::span<const double> input);
  void close_pool();
  void spawn_rank(std::size_t rank);
  [[noreturn]] void rank_main(std::size_t rank, pid_t parent);
  void rank_pool(std::size_t rank, std::uint64_t epoch);
  void rank_run_chunk(std::size_t rank, std::uint64_t chunk,
                      std::uint64_t gen, std::uint64_t die_at_claim);
  void rank_stage(std::size_t rank, std::size_t it, std::uint64_t gen,
                  std::span<const double> input, bool die_torn);
  void reassign(std::size_t chunk, PoolStats& st);
  void commit_one(std::size_t it, PoolStats& st);

  std::size_t num_ranks_;
  FaultPlan plan_;
  ProcessDdiParams params_;
  Timer timer_;
  ShmSegment control_;

  // Live telemetry: the heartbeat age gauge is pure driver state, updated
  // every watchdog tick.  Op counts reach /metrics from the shm ledger
  // rows, published once per sigma by the layer above.
  obs::Gauge tm_hb_age_ =
      obs::telemetry().gauge(obs::metric::kProcessHeartbeatAge);

  // Driver-side failure-domain state (ranks hold the frozen copy they were
  // forked with).  After the fork, pids_[r] >= 0 exactly while r is alive.
  std::vector<pid_t> pids_;
  std::vector<std::string> death_reasons_;  ///< "" while the rank lives
  std::vector<std::uint64_t> hb_seen_;
  std::vector<double> hb_time_;
  bool forked_ = false;
  std::uint64_t epoch_ = 0;  ///< the pool opened last
  double pool_open_time_ = 0.0;
  double next_poll_ = 0.0;

  // Rank-side identity (set after fork, in the rank only).
  bool in_child_ = false;
  std::size_t child_rank_ = 0;

  // The one pool program, bound by the first run_pool before the fork so
  // every rank holds it: hooks, chunk table, arena layout and input length.
  // The mutable protocol state (claims, seqlocks, ring, input) lives in
  // pool_, which lives as long as the backend and is reset per pool.
  std::shared_ptr<const PoolHooks> hooks_;
  std::vector<std::pair<std::size_t, std::size_t>> chunks_;
  std::size_t input_words_ = 0;
  ShmSegment pool_;
  std::size_t off_chunks_ = 0, off_items_ = 0, off_payload_ = 0;
  std::size_t off_input_ = 0;
  std::vector<std::size_t> item_off_, item_words_, chunk_of_;
  // Per-pool driver bookkeeping, reset at every pool open.
  std::vector<std::uint64_t> gen_;
  std::vector<std::size_t> retries_;
  std::vector<double> recovery_mark_, wait_mark_;
};

// ---------------------------------------------------------------------------
// run_pool: bind the program (first call), open the pool, commit in global
// item order, close the pool once every live rank is idle.
// ---------------------------------------------------------------------------

Ddi::PoolStats ProcessDdi::run_pool(
    const TaskPool& pool, const std::shared_ptr<const PoolHooks>& hooks,
    std::span<const double> input) {
  XFCI_REQUIRE(!in_child_, "run_pool is driver-only");
  XFCI_REQUIRE(hooks && hooks->stage_words && hooks->stage && hooks->commit,
               "run_pool needs stage_words/stage/commit");
  PoolStats st;
  if (hooks_ == nullptr) {
    if (pool.num_chunks() == 0) return st;
    bind(pool, hooks, input.size());
  } else {
    XFCI_REQUIRE(hooks == hooks_ && same_chunks(pool) &&
                     input.size() == input_words_,
                 "the process backend runs one pool program: its ranks were "
                 "forked with other hooks, another chunk table or another "
                 "input length");
  }
  XFCI_REQUIRE(num_alive() > 0,
               "no surviving ranks to run the task pool" + death_report());

  try {
    open_pool(input);
    for (std::size_t it = 0; it < item_off_.size(); ++it) commit_one(it, st);
    close_pool();
  } catch (...) {
    // The ranks may be mid-pool: fence them all, so none runs another.
    stop_ranks();
    for (std::size_t r = 0; r < num_ranks_; ++r)
      cell(r).alive.store(0, std::memory_order_release);
    throw;
  }
  return st;
}

void ProcessDdi::bind(const TaskPool& pool,
                      const std::shared_ptr<const PoolHooks>& hooks,
                      std::size_t input_words) {
  // Layout: one payload slot per item, stage_words long, then the input
  // slab.
  const std::size_t nchunks = pool.num_chunks();
  std::vector<std::pair<std::size_t, std::size_t>> chunks(nchunks);
  std::size_t nitems = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    chunks[c] = pool.chunk(c);
    nitems = std::max(nitems, chunks[c].second);
  }
  item_off_.assign(nitems, 0);
  item_words_.assign(nitems, 0);
  chunk_of_.assign(nitems, 0);
  std::size_t total = 0;
  for (std::size_t it = 0; it < nitems; ++it) {
    item_off_[it] = total;
    item_words_[it] = hooks->stage_words(it);
    total += item_words_[it];
  }
  XFCI_REQUIRE(total <= kMaxPayloadWords,
               "pool payload arena (" + std::to_string(total) +
                   " words) exceeds kMaxPayloadWords");
  for (std::size_t c = 0; c < nchunks; ++c)
    for (std::size_t it = chunks[c].first; it < chunks[c].second; ++it)
      chunk_of_[it] = c;
  off_chunks_ = sizeof(PoolHeader);
  off_items_ = off_chunks_ + nchunks * sizeof(ChunkCell);
  off_payload_ = align_up(off_items_ + nitems * sizeof(ItemCell), 64);
  off_input_ = align_up(off_payload_ + total * sizeof(double), 64);
  pool_ = ShmSegment::create(off_input_ + input_words * sizeof(double) +
                             sizeof(double));
  new (pool_.data()) PoolHeader{};
  for (std::size_t c = 0; c < nchunks; ++c) new (&chunk_cell(c)) ChunkCell{};
  for (std::size_t it = 0; it < nitems; ++it) new (&item_cell(it)) ItemCell{};
  gen_.assign(nchunks, 1);
  retries_.assign(nchunks, 0);
  recovery_mark_.assign(nchunks, -1.0);
  wait_mark_.assign(nchunks, -1.0);
  chunks_ = std::move(chunks);
  input_words_ = input_words;
  hooks_ = hooks;
}

bool ProcessDdi::same_chunks(const TaskPool& pool) const {
  if (pool.num_chunks() != chunks_.size()) return false;
  for (std::size_t c = 0; c < chunks_.size(); ++c)
    if (pool.chunk(c) != chunks_[c]) return false;
  return true;
}

void ProcessDdi::open_pool(std::span<const double> input) {
  // Every live rank is idle and every dead one reaped, so nothing but the
  // driver touches the arena until the epoch below is published.
  PoolHeader* h = pool_header();
  h->retry_push.store(0, std::memory_order_relaxed);
  h->retry_pop.store(0, std::memory_order_relaxed);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    ChunkCell& cc = chunk_cell(c);
    cc.claim.store(0, std::memory_order_relaxed);
    cc.claim_time_bits.store(0, std::memory_order_relaxed);
    cc.publish_time_bits.store(0, std::memory_order_relaxed);
  }
  for (std::size_t it = 0; it < item_off_.size(); ++it) {
    ItemCell& ic = item_cell(it);
    ic.seq.store(0, std::memory_order_relaxed);
    ic.ready_gen.store(0, std::memory_order_relaxed);
  }
  if (!input.empty())
    std::memcpy(input_slab(), input.data(), input.size() * sizeof(double));
  std::fill(gen_.begin(), gen_.end(), 1);
  std::fill(retries_.begin(), retries_.end(), 0);
  std::fill(recovery_mark_.begin(), recovery_mark_.end(), -1.0);
  std::fill(wait_mark_.begin(), wait_mark_.end(), -1.0);
  control_header()->dlb_next.store(0, std::memory_order_release);

  // The heartbeat clocks restart here: an idle rank never owes a tick.
  const double now_s = timer_.seconds();
  pool_open_time_ = now_s;
  next_poll_ = now_s;
  std::fill(hb_time_.begin(), hb_time_.end(), now_s);

  ControlHeader* ctl = control_header();
  ctl->epoch.store(++epoch_, std::memory_order_release);
  if (forked_) {
    ring(ctl->rank_bell);
    return;
  }
  // The first pool forks the survivors; they inherit the open pool.
  forked_ = true;
  for (std::size_t r = 0; r < num_ranks_; ++r)
    if (alive(r)) spawn_rank(r);
}

void ProcessDdi::close_pool() {
  ControlHeader* ctl = control_header();
  ctl->closed.store(epoch_, std::memory_order_release);
  ring(ctl->rank_bell);
  const double closed_at = timer_.seconds();
  const double deadline = closed_at + params_.shutdown_deadline;
  for (;;) {
    const std::uint32_t bell =
        ctl->driver_bell.load(std::memory_order_seq_cst);
    bool busy = false;
    for (std::size_t r = 0; r < num_ranks_; ++r)
      if (pids_[r] >= 0 &&
          cell(r).idle.load(std::memory_order_acquire) != epoch_)
        busy = true;
    if (!busy) return;
    watchdog();
    if (timer_.seconds() > deadline) {
      // A rank that cannot even go idle within the deadline is wedged.
      for (std::size_t r = 0; r < num_ranks_; ++r)
        if (pids_[r] >= 0 &&
            cell(r).idle.load(std::memory_order_acquire) != epoch_)
          declare_dead(r, "missed the shutdown deadline: busy " +
                              ms(timer_.seconds() - closed_at) +
                              " after close");
      return;
    }
    driver_wait(bell, kWantIdle);
  }
}

void ProcessDdi::spawn_rank(std::size_t rank) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  XFCI_REQUIRE(pid >= 0, "fork() failed for rank " + std::to_string(rank));
  if (pid == 0) rank_main(rank, parent);  // never returns
  pids_[rank] = pid;
  cell(rank).spawns.fetch_add(1, std::memory_order_relaxed);
}

void ProcessDdi::rank_main(std::size_t rank, pid_t parent) {
  // Orphan hygiene: die with the parent, and exit only through _exit so
  // no inherited atexit handler or stdio flush runs twice.  The inherited
  // ShmSegment handles are never destroyed here — unlinking is the
  // driver's job.
  if (!tether_to_parent(static_cast<int>(parent))) ::_exit(5);
  in_child_ = true;
  child_rank_ = rank;
  set_tracer(nullptr);  // a rank-side trace buffer would die with the rank
  try {
    ControlHeader* ctl = control_header();
    RankCell& me = cell(rank);
    std::uint64_t finished = 0;
    for (;;) {
      const std::uint32_t bell =
          ctl->rank_bell.load(std::memory_order_acquire);
      const std::uint64_t epoch = ctl->epoch.load(std::memory_order_acquire);
      if (epoch != finished) {
        rank_pool(rank, epoch);
        finished = epoch;
        me.idle.store(epoch, std::memory_order_release);
        notify_driver(kWantIdle);
        continue;
      }
      // Idle between pools: sleep on the doorbell, waking once per poll
      // interval to notice fencing or a dead parent.
      shared_futex_wait(ctl->rank_bell, bell, params_.poll_micros);
      if (me.alive.load(std::memory_order_acquire) == 0 ||
          ::getppid() != parent)
        ::_exit(0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfci process rank %zu: %s\n", rank, e.what());
    ::_exit(3);
  } catch (...) {
    std::fprintf(stderr, "xfci process rank %zu: unknown exception\n", rank);
    ::_exit(3);
  }
}

void ProcessDdi::rank_pool(std::size_t rank, std::uint64_t epoch) {
  ControlHeader* ctl = control_header();
  RankCell& me = cell(rank);
  if (hooks_->on_pool_start) hooks_->on_pool_start(rank);
  me.entered.store(epoch, std::memory_order_release);
  const std::uint64_t die_at_claim = plan_.worker_death_claim(rank);
  const std::size_t nchunks = chunks_.size();
  for (;;) {
    const std::uint32_t bell = ctl->rank_bell.load(std::memory_order_acquire);
    if (ctl->closed.load(std::memory_order_acquire) == epoch) return;
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (me.alive.load(std::memory_order_acquire) == 0) ::_exit(4);  // fenced
    std::uint64_t chunk = 0, gen = 0;
    if (!pop_retry(chunk, gen)) {
      if (ctl->dlb_next.load(std::memory_order_acquire) >= nchunks) {
        // Drained: sleep until a chunk is re-issued or the pool closes.
        shared_futex_wait(ctl->rank_bell, bell, params_.poll_micros);
        continue;
      }
      chunk = next_task(rank);
      if (chunk >= nchunks) continue;  // lost the race
      gen = 1;
    }
    rank_run_chunk(rank, chunk, gen, die_at_claim);
  }
}

void ProcessDdi::rank_run_chunk(std::size_t rank, std::uint64_t chunk,
                                std::uint64_t gen,
                                std::uint64_t die_at_claim) {
  RankCell& me = cell(rank);
  ChunkCell& cc = chunk_cell(chunk);
  // The time first, then the claim with release: a driver that reads this
  // claim (acquire) reads this time or a later one, never the previous
  // claimant's or the 0 open_pool wrote, which could fence this healthy
  // rank by the task deadline at once.
  cc.claim_time_bits.store(bits_of(timer_.seconds()),
                           std::memory_order_release);
  cc.claim.store((gen << 32) | (rank + 1), std::memory_order_release);
  const std::uint64_t nclaims =
      me.claims.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool dies_here = die_at_claim != 0 && nclaims == die_at_claim;
  const std::span<const double> input(input_slab(), input_words_);
  const auto [ibegin, iend] = chunks_[chunk];
  for (std::size_t it = ibegin; it < iend; ++it) {
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    rank_stage(rank, it, gen, input, dies_here && it == ibegin);
  }
  cc.publish_time_bits.store(bits_of(timer_.seconds()),
                             std::memory_order_release);
}

void ProcessDdi::rank_stage(std::size_t rank, std::size_t it,
                            std::uint64_t gen, std::span<const double> input,
                            bool die_torn) {
  ItemCell& ic = item_cell(it);
  const std::span<double> payload = payload_slot(it);
  // A predecessor killed mid-write leaves the slot's seq odd, so parity is
  // forced rather than incremented: the generation protocol admits one
  // writer per generation (STONITH before the bump), never two at once.
  const std::uint64_t s0 =
      ic.seq.load(std::memory_order_relaxed) | 1;  // odd: write in progress
  ic.seq.store(s0, std::memory_order_seq_cst);
  if (!hooks_->stage(it, rank, input, payload)) ::_exit(4);  // declared dead
  if (die_torn) {
    // FaultPlan kill_worker_at_claim: a SIGKILL mid-accumulate, for real.
    // Poison the second half of the staged slot with quiet NaN and die
    // with its seqlock odd — the driver must discard the torn write and
    // retransmit via reassignment.
    const std::span<double> torn = payload.subspan(payload.size() / 2);
    std::fill(torn.begin(), torn.end(),
              std::numeric_limits<double>::quiet_NaN());
    kill_self();
  }
  ic.seq.store(s0 + 1, std::memory_order_release);  // even: payload stable
  ic.ready_gen.store(gen, std::memory_order_release);
  notify_driver(it + 1);
}

void ProcessDdi::reassign(std::size_t chunk, PoolStats& st) {
  XFCI_REQUIRE(retries_[chunk] < kMaxTaskRetries,
               "aggregated DLB task exceeded its reassignment budget");
  ++retries_[chunk];
  st.tasks_reassigned += 1;
  if (recovery_mark_[chunk] < 0.0) recovery_mark_[chunk] = timer_.seconds();
  wait_mark_[chunk] = -1.0;
  // STONITH before the generation bump: if the old claimant still has a
  // process, it could otherwise publish a zombie write that matches the
  // new generation.  After declare_dead it cannot touch the arena again.
  const std::uint64_t cl = chunk_cell(chunk).claim.load(
      std::memory_order_acquire);
  if (cl != 0) {
    const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu) - 1);
    if (pids_[r] >= 0)
      declare_dead(r, "fenced before chunk " + std::to_string(chunk) +
                          " was reassigned");
  }
  gen_[chunk] += 1;
  push_retry(chunk, gen_[chunk]);
  if (hooks_->on_worker_death) hooks_->on_worker_death();
  if (obs::Tracer* tr = tracer())
    tr->instant(tr->control_track(), "recovery", "task_reassigned",
                timer_.seconds(),
                obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
}

void ProcessDdi::commit_one(std::size_t it, PoolStats& st) {
  const std::size_t chunk = chunk_of_[it];
  ItemCell& ic = item_cell(it);
  ControlHeader* ctl = control_header();
  for (;;) {
    // Read the doorbell before the slot: a publish after this read moves
    // the bell, so driver_wait below cannot sleep through it.
    const std::uint32_t bell =
        ctl->driver_bell.load(std::memory_order_seq_cst);
    const std::uint64_t gen = gen_[chunk];
    if (ic.ready_gen.load(std::memory_order_acquire) == gen) {
      // Torn-write protection: a published slot must have an even seqlock
      // (ready_gen is released only after the final seq bump, and the
      // generation protocol admits a single writer per generation).
      XFCI_REQUIRE(
          (ic.seq.load(std::memory_order_acquire) & 1) == 0,
          "seqlock violation: item published with a write in progress");
      hooks_->commit(it, payload_slot(it));
      wait_mark_[chunk] = -1.0;
      if (recovery_mark_[chunk] >= 0.0) {
        st.recovery_seconds += timer_.seconds() - recovery_mark_[chunk];
        recovery_mark_[chunk] = -1.0;
      }
      obs::Tracer* tr = tracer();
      if (tr != nullptr && it + 1 == chunks_[chunk].second) {
        const std::uint64_t cl =
            chunk_cell(chunk).claim.load(std::memory_order_acquire);
        const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu)) -
                              1;
        const double t0 =
            double_of(chunk_cell(chunk).claim_time_bits.load(
                std::memory_order_acquire));
        double t1 = double_of(chunk_cell(chunk).publish_time_bits.load(
            std::memory_order_acquire));
        if (t1 < t0) t1 = timer_.seconds();
        const auto [b, e] = chunks_[chunk];
        tr->instant(r, "dlb", "dlb_claim", t0);
        tr->span(r, "dlb", "task", t0, t1,
                 obs::trace_args({{"chunk", static_cast<double>(chunk)},
                                  {"items", static_cast<double>(e - b)}}));
      }
      return;
    }
    watchdog();
    const std::uint64_t cl =
        chunk_cell(chunk).claim.load(std::memory_order_acquire);
    if (cl != 0 && (cl >> 32) == gen) {
      // Claimed for the current generation: wait on the claimant, with a
      // deadline — a dead claimant is reassigned at once, a wedged one is
      // fenced first (heartbeats catch between-claim hangs, this deadline
      // catches mid-chunk ones).
      const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu) - 1);
      if (!alive(r)) {
        reassign(chunk, st);
        continue;
      }
      const double tc = double_of(chunk_cell(chunk).claim_time_bits.load(
          std::memory_order_acquire));
      const double age = timer_.seconds() - tc;
      if (age > params_.task_deadline) {
        declare_dead(r, "missed the task deadline: chunk " +
                            std::to_string(chunk) + " held " + ms(age));
        reassign(chunk, st);
        continue;
      }
    } else {
      // Not (yet) claimed for this generation.  Normally a live rank will
      // pick it up from the counter or the ring; but a rank that died
      // BETWEEN claiming from the counter and writing the claim cell — or
      // after popping the ring — leaves the chunk orphaned, so an
      // unclaimed chunk also has a deadline.
      XFCI_REQUIRE(live_ranks() > 0,
                   "every rank died while tasks remain unclaimed" +
                       death_report());
      const double now_s = timer_.seconds();
      if (wait_mark_[chunk] < 0.0) wait_mark_[chunk] = now_s;
      if (now_s - wait_mark_[chunk] > params_.task_deadline) {
        reassign(chunk, st);
        continue;
      }
    }
    driver_wait(bell, it + 1);
  }
}

}  // namespace

std::unique_ptr<Ddi> make_process_ddi(std::size_t num_ranks,
                                      const FaultPlan& faults,
                                      const ProcessDdiParams& params) {
  return std::make_unique<ProcessDdi>(num_ranks, faults, params);
}

#else  // !defined(__linux__)

std::unique_ptr<Ddi> make_process_ddi(std::size_t, const FaultPlan&,
                                      const ProcessDdiParams&) {
  XFCI_REQUIRE(false,
               "the process backend needs POSIX shm_open/fork (Linux); "
               "use --backend sim or --backend threads here");
}

#endif  // defined(__linux__)

}  // namespace xfci::pv
