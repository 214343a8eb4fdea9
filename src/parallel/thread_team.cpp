#include "parallel/thread_team.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/task_pool.hpp"

namespace xfci::pv {
namespace {

// The team whose parallel-region body the thread is executing (workers and
// the calling thread alike), else null; nested region requests run inline
// instead of re-entering the pool.  tl_tid keeps the worker id so a body
// inlined in the same team still indexes the right per-thread scratch.
thread_local const ThreadTeam* tl_team = nullptr;
thread_local std::size_t tl_tid = 0;

// Worker id of a body `team` runs inline on the calling thread.  Inside
// another team's region the enclosing id may be past `team`'s size, and
// one driver thread owns a team (ddi.hpp), so it is worker 0 there.
std::size_t inline_tid(const ThreadTeam* team) {
  return tl_team == team ? tl_tid : 0;
}

}  // namespace

bool ThreadTeam::in_parallel_region() { return tl_team != nullptr; }

ThreadTeam::ThreadTeam(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  nthreads_ = num_threads;
  workers_.reserve(nthreads_ - 1);
  for (std::size_t tid = 1; tid < nthreads_; ++tid)
    workers_.emplace_back([this, tid] { worker_main(tid); });
}

ThreadTeam::~ThreadTeam() {
  {
    sync::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::claim_loop(std::size_t tid, std::size_t first,
                            const IndexBody* body, const RetireBody* retire,
                            std::size_t count) {
  XFCI_DCHECK(tid < nthreads_, "worker tid outside the team");
  // Each index is claimed by exactly one worker (the fetch-and-add is the
  // ownership handoff); a null body here means a region raced its setup.
  XFCI_DCHECK(body != nullptr || retire != nullptr,
              "entered a claim loop with no active region");
  tl_team = this;
  tl_tid = tid;
  for (std::size_t i = first; i < count;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      if (retire != nullptr) {
        // Resilient region: a false return is a worker crash -- this
        // worker claims nothing further; survivors drain the rest.
        if (!(*retire)(i, tid)) break;
      } else {
        (*body)(i, tid);
      }
    } catch (...) {
      {
        sync::MutexLock lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
      // Drain the remaining indices so every worker exits promptly.
      next_.store(count, std::memory_order_relaxed);
      break;
    }
  }
  tl_team = nullptr;
}

void ThreadTeam::worker_main(std::size_t tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const IndexBody* body = nullptr;
    const RetireBody* retire = nullptr;
    std::size_t count = 0;
    {
      // Snapshot the region descriptor under the capability: the claim
      // loop then runs on locals, never touching guarded state.
      sync::UniqueLock lk(mu_);
      while (!stop_ && generation_ == seen) cv_start_.wait(lk);
      if (stop_) return;
      seen = generation_;
      body = body_;
      retire = retire_body_;
      count = count_;
    }
    claim_loop(tid, next_.fetch_add(1, std::memory_order_relaxed), body,
               retire, count);
    {
      sync::MutexLock lk(mu_);
      if (--working_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadTeam::run_region(std::size_t count, const IndexBody* body,
                            const RetireBody* retire) {
  {
    sync::MutexLock lk(mu_);
    body_ = body;
    retire_body_ = retire;
    count_ = count;
    // Index 0 is the calling thread's before any worker wakes, so tid 0
    // holds a claim in every region, however the OS schedules the team.
    next_.store(1, std::memory_order_relaxed);
    error_ = nullptr;
    working_ = nthreads_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  claim_loop(0, 0, body, retire, count);  // the calling thread is tid 0
  std::exception_ptr error;
  {
    sync::UniqueLock lk(mu_);
    while (working_ != 0) cv_done_.wait(lk);
    body_ = nullptr;
    retire_body_ = nullptr;
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadTeam::for_dynamic(std::size_t count, const IndexBody& body) {
  XFCI_REQUIRE(static_cast<bool>(body), "for_dynamic: body must be callable");
  if (count == 0) return;
  if (nthreads_ == 1 || count == 1 || in_parallel_region()) {
    // Serial / nested fallback: run inline, preserving index order.  A
    // call nested in this team's region keeps the enclosing worker's tid
    // so per-thread scratch stays private.
    const std::size_t tid = inline_tid(this);
    for (std::size_t i = 0; i < count; ++i) body(i, tid);
    return;
  }
  run_region(count, &body, nullptr);
}

void ThreadTeam::for_pool_resilient(const TaskPool& pool,
                                    const RetireBody& body) {
  XFCI_REQUIRE(static_cast<bool>(body),
               "for_pool_resilient: body must be callable");
  const std::size_t count = pool.num_chunks();
  if (count == 0) return;
  if (nthreads_ == 1 || count == 1 || in_parallel_region()) {
    // Serial / nested fallback: the lone worker claims in index order; a
    // retirement with chunks still pending is unrecoverable (nobody is
    // left to claim them) -- the same abort as the parallel path below.
    const std::size_t tid = inline_tid(this);
    for (std::size_t i = 0; i < count; ++i)
      if (!body(i, tid))
        XFCI_REQUIRE(i + 1 == count,
                     "every worker retired with tasks outstanding");
    return;
  }
  run_region(count, nullptr, &body);
  // Claims are handed out in index order, so if the counter never reached
  // `count`, every worker retired while chunks remained unclaimed.
  XFCI_REQUIRE(next_.load(std::memory_order_relaxed) >= count,
               "every worker retired with tasks outstanding");
}

double OrderedSequencer::wait_turn(std::size_t index) {
  sync::UniqueLock lk(mu_);
  // Waiting on a turn that has already passed would deadlock: nobody will
  // ever set turn_ back.  Catch the ownership error instead of hanging.
  XFCI_DCHECK(turn_ <= index, "ordered sequencer waiting on a passed turn");
  if (turn_ == index) return 0.0;
  const Timer blocked;
  while (turn_ != index) cv_.wait(lk);
  return blocked.seconds();
}

void OrderedSequencer::complete(std::size_t index) {
  sync::MutexLock lk(mu_);
  XFCI_ASSERT(turn_ == index, "ordered sequencer completed out of turn");
  ++turn_;
  cv_.notify_all();
}

void OrderedSequencer::reset(std::size_t start) {
  sync::MutexLock lk(mu_);
  turn_ = start;
}

}  // namespace xfci::pv
