#include "fci/solve_session.hpp"

#include <utility>

#include "fci/fci.hpp"

namespace xfci::fci {

SolveSession::SolveSession(std::shared_ptr<const SolveSetup> setup)
    : setup_(std::move(setup)) {
  XFCI_REQUIRE(setup_ != nullptr, "SolveSession needs a setup");
  sigma_ = setup_->make_sigma();
}

SolveSession::~SolveSession() = default;

FciResult SolveSession::solve(const SolverOptions& solver) {
  const CiSpace& space = setup_->space();
  FciResult res;
  res.dimension = space.dimension();

  SolverOptions opt = solver;
  // Merge the session's cancel flag with any caller-provided hook.
  if (opt.should_stop) {
    auto caller = std::move(opt.should_stop);
    opt.should_stop = [this, caller]() {
      return cancel_requested() || caller();
    };
  } else {
    opt.should_stop = [this]() { return cancel_requested(); };
  }

  const auto precond = setup_->preconditioner(opt.model_space);
  res.solve = solve_lowest(*sigma_, setup_->ints(), opt, precond.get());
  res.stats = sigma_->stats();
  res.s_squared = s_squared_expectation(space, res.solve.vector);
  return res;
}

}  // namespace xfci::fci
