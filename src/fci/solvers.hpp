#pragma once
// Iterative eigensolvers for the lowest FCI state (paper sections 2.2, 4 /
// Table 2):
//
//  * kDavidson     - subspace (Davidson) method; the Olsen correction vector
//                    enters the subspace, Rayleigh-Ritz picks the mixture.
//  * kOlsen        - original Olsen single-vector update C <- C + t.
//  * kModifiedOlsen- fixed step length, C <- C + lambda t (default 0.7).
//  * kAutoAdjusted - the paper's method: lambda(n+1) = lambda_opt(n),
//                    recovered from the previous iteration's 2x2 subspace
//                    via <t|H|t> = (E(n+1)/S^2 - E(n) - 2 lambda <C|H|t>) /
//                    lambda^2 (Eqs. 13-15).
//
// All methods share the Olsen correction vector
//   t = (H0 - E)^-1 (H - E - eps) C,
// where H0 equals the exact Hamiltonian inside a small model space (the
// lowest-diagonal determinants) and diag(H) outside, and eps enforces
// <C|t> = 0 (Eq. 12).

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "linalg/eigen.hpp"

namespace xfci::fci {

enum class Method {
  kDavidson,       ///< full Davidson subspace (library extra)
  kSubspace2,      ///< the paper's "subspace" method: 2x2 {C, t} with the
                   ///< exact optimal step each iteration (stores H t --
                   ///< twice the memory of the auto-adjusted method)
  kOlsen,
  kModifiedOlsen,
  kAutoAdjusted,
};

std::string method_name(Method m);

struct SolverOptions {
  Method method = Method::kAutoAdjusted;
  double energy_tolerance = 1e-10;    ///< |dE| between iterations
  double residual_tolerance = 1e-6;   ///< ||sigma - E C||
  std::size_t max_iterations = 120;
  std::size_t model_space = 50;       ///< exact-H preconditioner block size
  std::size_t num_roots = 1;          ///< kDavidson only: lowest eigenpairs
  /// Optional warm start: normalized and used instead of the model-space
  /// guess (every method).  Must have the CI dimension when non-empty.
  std::vector<double> initial_vector;
  /// When non-empty, the solver writes its iteration state here every
  /// iteration (atomic write-then-rename; see checkpoint.hpp).  Supported
  /// by the single-vector methods and kSubspace2.
  std::string checkpoint_path;
  /// When non-empty, the solver resumes from this checkpoint.  For the
  /// single-vector methods the restored run continues the uninterrupted
  /// run's convergence trajectory bitwise (the checkpoint must have been
  /// written by the same method); the subspace methods use the checkpoint
  /// vector as a warm start.
  std::string restart_path;
  /// Span sink for per-iteration solver spans (E(n), lambda, |r| args)
  /// and checkpoint save/load spans, on the control track in the
  /// backend's clock domain.  run_parallel_fci shares the Ddi backend's
  /// tracer automatically; nullptr records nothing.
  obs::Tracer* tracer = nullptr;
  /// Cooperative cancellation: polled at every iteration boundary.  When
  /// it returns true the solver stops, marks the result cancelled, and
  /// returns the best state reached so far (SolveSession::request_cancel
  /// wires this to its cancel flag).  Empty = never cancelled, and the
  /// solver behaves exactly as before the hook existed.
  std::function<bool()> should_stop;
};

struct SolverResult {
  bool converged = false;
  /// True when should_stop() ended the run early; `vector`/`energy` hold
  /// the last completed iteration's state and `converged` is false.
  bool cancelled = false;
  std::size_t iterations = 0;         ///< sigma applications
  double energy = 0.0;                ///< lowest root (electronic + core)
  std::vector<double> vector;         ///< normalized lowest CI vector
  std::vector<double> energy_history; ///< lowest-root energy per iteration
  std::vector<double> residual_history;
  /// All requested roots (size num_roots when kDavidson computed several;
  /// size 1 otherwise).
  std::vector<double> energies;
  std::vector<std::vector<double>> vectors;
};

/// The Olsen preconditioner with an exact model-space block.
class ModelSpacePreconditioner {
 public:
  /// Picks the `size` lowest-diagonal determinants as the model space and
  /// diagonalizes the exact Hamiltonian over them, H_mm = V diag(lambda)
  /// V^T, once: every application and initial guess reads these eigenpairs.
  /// A non-empty `mask` (a truncated CI space, over the flat order)
  /// restricts the model space and the fallback guesses to the
  /// determinants it marks.
  ModelSpacePreconditioner(const CiSpace& space,
                           const integrals::IntegralTables& ints,
                           std::size_t size,
                           std::vector<bool> mask = {});

  const std::vector<double>& diagonal() const { return diag_; }

  /// Flat indices of the model determinants, ascending.
  const std::vector<std::size_t>& model() const { return model_; }

  /// (H0 - e)_ii outside the model space: diag(H)_i - e, held at least
  /// 1e-6 away from zero.
  double shifted_diagonal(std::size_t i, double e) const {
    const double d = diag_[i] - e;
    if (std::abs(d) >= 1e-6) return d;
    return d >= 0 ? 1e-6 : -1e-6;
  }

  /// The model block alone: x <- V (lambda - e)^+ V^T x, where x holds one
  /// value per model() index, in its order (O(m^2); directions with
  /// |lambda_j - e| < 1e-10 are dropped, as a pseudo-inverse does).
  /// `work` is scratch of model().size() doubles.
  void apply_model_block(double e, std::span<double> x,
                         std::span<double> work) const;

  /// y = (H0 - e)^-1 x:  the model block inside the model space,
  /// division by shifted_diagonal outside (O(N)).
  void apply_inverse(double e, std::span<const double> x,
                     std::span<double> y) const;

  /// Ground eigenvector of the model-space Hamiltonian scattered into a
  /// full CI vector: the solver's initial guess.
  std::vector<double> initial_guess(std::size_t dimension) const;

  /// The `count` lowest model-space eigenvectors (orthonormal), scattered
  /// into full CI vectors: block-Davidson starting guesses.
  std::vector<std::vector<double>> initial_guesses(std::size_t dimension,
                                                   std::size_t count) const;

 private:
  bool in_space(std::size_t i) const { return mask_.empty() || mask_[i]; }
  /// The `count` lowest-diagonal determinants in the space.
  std::vector<std::size_t> lowest_diagonals(std::size_t count) const;

  std::vector<double> diag_;
  std::vector<bool> mask_;           // empty: the whole CI space
  std::vector<std::size_t> model_;   // flat indices of model determinants
  linalg::EigenResult hmm_eig_;      // eigenpairs of the model-space block
};

/// The Ms = 0 transpose-parity projection (P exchanges the alpha and beta
/// string of every determinant).  When nalpha == nbeta >= 1 and
/// |<c|P c>| >= 0.9 <c|c>, replaces c in place by 0.5 (c + eps P c), eps
/// = sign <c|P c>, and returns eps; the result satisfies P c = eps c
/// exactly (CiSpace::transpose_parity).  Otherwise returns 0 and leaves c
/// untouched.
int parity_project(const CiSpace& space, std::span<double> c);

/// Solves for the lowest eigenpair of the sigma operator.  `precond`, when
/// non-null, supplies a prebuilt model-space preconditioner whose block
/// size must match options.model_space (SolveSetup memoizes one per size
/// so sessions sharing a setup skip the rebuild); null builds a fresh one,
/// which is bitwise-identical.  When nalpha == nbeta the solver is the one
/// place that projects (parity_project): the warm start, every Davidson
/// seed and every vector it hands to `sigma` is held in its dominant
/// transpose-parity sector -- that of the guess, whose model space is
/// transpose-closed -- so each DGEMM sigma of the solve takes the Ms = 0
/// shortcut.
SolverResult solve_lowest(SigmaOperator& sigma,
                          const integrals::IntegralTables& ints,
                          const SolverOptions& options = {},
                          const ModelSpacePreconditioner* precond = nullptr);

}  // namespace xfci::fci
