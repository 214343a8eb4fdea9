#include "fci/selected_ci.hpp"

#include <algorithm>
#include <bit>

namespace xfci::fci {
namespace {

// The truncated space's sigma: the FCI sigma restricted to the mask.  For
// a vector that vanishes outside the mask this is exactly P H P.
class ProjectedSigma final : public SigmaOperator {
 public:
  ProjectedSigma(SigmaOperator& inner, const std::vector<bool>& mask)
      : inner_(inner), mask_(mask) {}

  void apply(std::span<const double> c, std::span<double> sigma) override {
    inner_.apply(c, sigma);
    for (std::size_t i = 0; i < sigma.size(); ++i)
      if (!mask_[i]) sigma[i] = 0.0;
  }
  const CiSpace& space() const override { return inner_.space(); }

 private:
  SigmaOperator& inner_;
  const std::vector<bool>& mask_;
};

}  // namespace

std::size_t excitation_level(const Determinant& ref, const Determinant& det) {
  return static_cast<std::size_t>(std::popcount(ref.alpha & ~det.alpha) +
                                  std::popcount(ref.beta & ~det.beta));
}

std::vector<bool> truncated_space(const CiSpace& space,
                                  std::size_t max_level) {
  const Determinant ref{(StringMask{1} << space.nalpha()) - 1,
                        (StringMask{1} << space.nbeta()) - 1};
  std::vector<bool> mask(space.dimension());
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = excitation_level(ref, determinant_at(space, i)) <= max_level;
  return mask;
}

std::unique_ptr<SigmaOperator> project_sigma(SigmaOperator& inner,
                                             const std::vector<bool>& mask) {
  XFCI_REQUIRE(mask.size() == inner.space().dimension(),
               "mask size does not match the CI space");
  return std::make_unique<ProjectedSigma>(inner, mask);
}

FciResult run_truncated_ci(const integrals::IntegralTables& ints,
                           std::size_t nalpha, std::size_t nbeta,
                           std::size_t target_irrep, std::size_t max_level,
                           const SolverOptions& options) {
  const auto setup = SolveSetup::create(ints, nalpha, nbeta, target_irrep);
  const CiSpace& space = setup->space();
  const std::vector<bool> mask = truncated_space(space, max_level);
  FciResult res;
  res.dimension = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  XFCI_REQUIRE(res.dimension >= 1,
               "no determinant of the target irrep within max_level "
               "excitations of the reference");

  SolverOptions opt = options;
  if (opt.initial_vector.size() == mask.size())
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (!mask[i]) opt.initial_vector[i] = 0.0;
  const ModelSpacePreconditioner precond(space, setup->ints(),
                                         opt.model_space, mask);
  const auto sigma = setup->make_sigma();
  const auto projected = project_sigma(*sigma, mask);
  res.solve = solve_lowest(*projected, setup->ints(), opt, &precond);
  res.stats = sigma->stats();
  res.s_squared = s_squared_expectation(space, res.solve.vector);
  return res;
}

}  // namespace xfci::fci
