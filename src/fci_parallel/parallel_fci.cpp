#include "fci_parallel/parallel_fci.hpp"

namespace xfci::fcp {

ParallelFciResult run_parallel_fci(const integrals::IntegralTables& ints,
                                   std::size_t nalpha, std::size_t nbeta,
                                   std::size_t target_irrep,
                                   const ParallelOptions& options,
                                   const fci::SolverOptions& solver) {
  return run_parallel_fci(
      fci::SolveSetup::create(ints, nalpha, nbeta, target_irrep,
                              options.algorithm),
      options, solver);
}

ParallelFciResult run_parallel_fci(
    std::shared_ptr<const fci::SolveSetup> setup,
    const ParallelOptions& options, const fci::SolverOptions& solver) {
  XFCI_REQUIRE(setup != nullptr, "run_parallel_fci needs a setup");
  XFCI_REQUIRE(setup->algorithm() == options.algorithm,
               "setup was built for a different sigma algorithm");
  ParallelSigma op(setup->context(), options);

  ParallelFciResult res;
  fci::SolverOptions sopt = solver;
  // The solver shares the backend's trace sink and clock domain, so its
  // per-iteration spans interleave correctly with the sigma phase spans.
  if (sopt.tracer == nullptr) sopt.tracer = op.ddi().tracer();
  const auto precond = setup->preconditioner(sopt.model_space);
  res.solve = fci::solve_lowest(op, setup->ints(), sopt, precond.get());
  res.metrics = RunMetrics::capture(op);
  res.metrics.add_solve(res.solve);
  return res;
}

}  // namespace xfci::fcp
