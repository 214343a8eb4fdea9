#pragma once
// Session layer of the solve pipeline (DESIGN.md §15).
//
// A SolveSession owns everything *mutable* about one solve: the sigma
// operator (work buffers, stats), the solver state, and a cooperative
// cancel flag.  It borrows an immutable SolveSetup through shared_ptr, so
// any number of sessions — in the same thread, in serve::Engine workers,
// or across solver methods — run against one shared setup and produce
// results bitwise-identical to a standalone run_fci call.
//
// Thread safety: one session is driven by one thread (solve() is not
// reentrant), but different sessions over the same setup may run
// concurrently, and request_cancel() may be called from any thread while
// solve() runs.

#include <atomic>
#include <memory>

#include "fci/solve_setup.hpp"
#include "fci/solvers.hpp"

namespace xfci::fci {

struct FciResult;

class SolveSession {
 public:
  /// Borrows `setup` for the session's lifetime (shared ownership keeps it
  /// alive even if the serve-layer cache evicts it mid-solve).
  explicit SolveSession(std::shared_ptr<const SolveSetup> setup);
  ~SolveSession();

  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  const SolveSetup& setup() const { return *setup_; }

  /// Runs the eigensolver against the borrowed setup and returns the full
  /// FCI result.  Solver method, tolerances, checkpointing and tracer come
  /// from `solver`; the algorithm was fixed by the setup.  The session's
  /// cancel flag is merged with any caller-provided should_stop hook.
  FciResult solve(const SolverOptions& solver = {});

  /// Asks a running solve() to stop at the next iteration boundary.
  /// Callable from any thread; sticky until reset_cancel().
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  void reset_cancel() { cancel_.store(false, std::memory_order_relaxed); }

  /// The session's sigma operator (stats accumulate across solve calls).
  SigmaOperator& sigma() { return *sigma_; }

 private:
  std::shared_ptr<const SolveSetup> setup_;
  std::unique_ptr<SigmaOperator> sigma_;
  std::atomic<bool> cancel_{false};
};

}  // namespace xfci::fci
