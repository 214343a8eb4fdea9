#include "fci/solve_setup.hpp"

#include "fci/fci.hpp"

namespace xfci::fci {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kDgemm: return "dgemm";
    case Algorithm::kMoc: return "moc";
  }
  return "?";
}

std::shared_ptr<const SolveSetup> SolveSetup::create(
    integrals::IntegralTables ints, std::size_t nalpha, std::size_t nbeta,
    std::size_t target_irrep, Algorithm algorithm) {
  // make_shared needs a public constructor; new + shared_ptr keeps the
  // constructor private so every SolveSetup is heap-pinned from birth.
  return std::shared_ptr<const SolveSetup>(new SolveSetup(
      std::move(ints), nalpha, nbeta, target_irrep, algorithm));
}

SolveSetup::SolveSetup(integrals::IntegralTables ints, std::size_t nalpha,
                       std::size_t nbeta, std::size_t target_irrep,
                       Algorithm algorithm)
    : ints_(std::move(ints)),
      space_(ints_.norb, nalpha, nbeta, ints_.group, ints_.orbital_irreps,
             target_irrep),
      context_(space_, ints_),
      algorithm_(algorithm),
      target_irrep_(target_irrep) {
  // Every solve is built here, so this is where an empty target irrep is
  // reported: the solvers cannot start from a zero-length vector.
  XFCI_REQUIRE(space_.dimension() > 0, "no determinants in the target irrep");
  // Materialize the lazily built transposed spaces, the only tables a
  // sigma or the solver's parity projection builds on first touch, so
  // sessions sharing this setup never race on one.  Every session's
  // ParallelSigma reads space_.transposed() (the alpha side's row split),
  // and transpose_vector (parity_project) also the transposed space's own
  // transpose, whatever nbeta is.
  space_.transposed().transposed();
}

std::unique_ptr<SigmaOperator> SolveSetup::make_sigma() const {
  return fci::make_sigma(algorithm_, context_);
}

std::shared_ptr<const ModelSpacePreconditioner> SolveSetup::preconditioner(
    std::size_t model_space) const {
  sync::MutexLock lock(mu_);
  auto& slot = preconds_[model_space];
  if (!slot)
    slot = std::make_shared<const ModelSpacePreconditioner>(space_, ints_,
                                                            model_space);
  return slot;
}

std::size_t SolveSetup::memory_bytes() const {
  const std::size_t w = sizeof(double);
  std::size_t bytes = ints_.h.size() * w + ints_.eri.packed_size() * w;
  // The DGEMM operand matrices, counted twice: the cache's accounting unit.
  const std::size_t nh = ints_.group.num_irreps();
  for (std::size_t h = 0; h < nh; ++h)
    bytes += 2 * w *
             (context_.ab_integrals(h).size() + context_.ss_integrals(h).size());
  // CI-dimension state held per setup: the preconditioner diagonal and the
  // string/block tables (a few words per determinant at most).
  bytes += space_.dimension() * w;
  return bytes;
}

}  // namespace xfci::fci
