#include "fci/solvers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "fci/checkpoint.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {
namespace {

/// kDavidson collapses onto its Ritz vectors once the next expansion would
/// grow the subspace past this many vectors.
constexpr std::size_t kMaxSubspace = 20;
/// kModifiedOlsen's fixed step length.
constexpr double kFixedLambda = 0.7;
/// Iterations between checkpoint writes when a checkpoint path is set.
constexpr std::size_t kCheckpointInterval = 1;

// --- the one summation order ---------------------------------------------
//
// Every CI-length reduction in this file sums in one order, written once
// in OrderedSum: term p of a sequence adds into lane p % kLanes of chunk
// p / kChunk, a chunk folds its lanes pairwise when it ends, and the chunk
// partials add in chunk order.  A sum then depends on its terms alone:
// not on how a walk splits the sequence into runs, nor on which thread
// sums which chunk.  The file compiles without FMA contraction
// (src/fci/CMakeLists.txt), so a term rounds alike in a vectorized lane
// group and in a scalar head or tail.
constexpr std::size_t kLanes = 16;
constexpr std::size_t kChunk = 4096;
static_assert(kChunk % kLanes == 0, "a chunk holds whole lane groups");

template <std::size_t K>
class OrderedSum {
 public:
  using Terms = std::array<double, K>;

  /// Adds term(k), k in [0, len), as the sequence's next len terms.
  template <class Term>
  void add(std::size_t len, Term term) {
    Lanes lanes = lanes_;  // a local copy: nothing `term` writes aliases it
    std::size_t k = 0;
    for (; k < len && pos_ % kLanes != 0; ++k) add_one(lanes, term(k));
    for (; k + kLanes <= len; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const Terms t = term(k + l);
        for (std::size_t q = 0; q < K; ++q) lanes[q][l] += t[q];
      }
      pos_ += kLanes;
      if (pos_ % kChunk == 0) end_chunk(lanes);
    }
    for (; k < len; ++k) add_one(lanes, term(k));
    lanes_ = lanes;
  }

  /// The K sums of every term added so far.
  Terms result() const {
    OrderedSum last = *this;
    if (pos_ % kChunk != 0) last.end_chunk(last.lanes_);
    return last.total_;
  }

 private:
  using Lanes = std::array<std::array<double, kLanes>, K>;

  void add_one(Lanes& lanes, const Terms& t) {
    for (std::size_t q = 0; q < K; ++q) lanes[q][pos_ % kLanes] += t[q];
    if (++pos_ % kChunk == 0) end_chunk(lanes);
  }

  void end_chunk(Lanes& lanes) {
    for (std::size_t q = 0; q < K; ++q) {
      auto& lane = lanes[q];
      for (std::size_t w = kLanes / 2; w > 0; w /= 2)
        for (std::size_t l = 0; l < w; ++l) lane[l] += lane[l + w];
      total_[q] += lane[0];
      lane.fill(0.0);
    }
  }

  std::size_t pos_ = 0;
  Lanes lanes_{};
  Terms total_{};
};

/// The K sums of term(i) over the flat sequence i in [0, n).
template <std::size_t K, class Term>
std::array<double, K> flat_sum(std::size_t n, Term term) {
  OrderedSum<K> sum;
  sum.add(n, term);
  return sum.result();
}

/// The K sums over the flat sequence [0, n): term(i) outside the model
/// space, model_term(k, i) at its k-th index i (`model` ascending).
template <std::size_t K, class Term, class ModelTerm>
std::array<double, K> sum_around_model(std::size_t n,
                                       std::span<const std::size_t> model,
                                       Term term, ModelTerm model_term) {
  OrderedSum<K> sum;
  std::size_t at = 0;
  for (std::size_t k = 0; k < model.size(); ++k) {
    sum.add(model[k] - at, [&](std::size_t j) { return term(at + j); });
    sum.add(1, [&](std::size_t) { return model_term(k, model[k]); });
    at = model[k] + 1;
  }
  sum.add(n - at, [&](std::size_t j) { return term(at + j); });
  return sum.result();
}

double dot(std::span<const double> a, std::span<const double> b) {
  return flat_sum<1>(a.size(), [&](std::size_t i) {
    return std::array<double, 1>{a[i] * b[i]};
  })[0];
}

void normalize(std::vector<double>& v) {
  const double n = std::sqrt(dot(v, v));
  XFCI_REQUIRE(n > 0.0, "cannot normalize zero vector");
  for (auto& x : v) x /= n;
}

// --- the Ms = 0 transpose pairs ------------------------------------------

/// <v|v> and <v|P v> of the vector v_i = value(i), over the transpose
/// pairs (CiSpace::for_each_transpose_pair_row) in the one order.
template <class Value>
std::array<double, 2> parity_sums(const CiSpace& space, Value value) {
  OrderedSum<2> sum;
  space.for_each_transpose_pair_row([&](std::size_t len, std::size_t i,
                                        std::size_t j, std::size_t stride) {
    sum.add(len, [&](std::size_t k) {
      const std::size_t a = i + k, b = j + k * stride;
      const double x = value(a), y = value(b);
      // A one-element pair counts once: half its doubled terms, exactly.
      const double w = a == b ? 0.5 : 1.0;
      return std::array<double, 2>{(x * x + y * y) * w, x * y * (2.0 * w)};
    });
    return true;
  });
  return sum.result();
}

/// The parity_project rule: sign <v|P v> when |<v|P v>| >= 0.9 <v|v> > 0,
/// else 0.
int dominant_parity(const std::array<double, 2>& sums) {
  const double vv = sums[0], vpv = sums[1];
  if (!(vv > 0.0 && std::abs(vpv) >= 0.9 * vv)) return 0;
  return vpv > 0 ? 1 : -1;
}

/// c_i = (v_i + eps v_Pi) h over the pair walk, v_i = value(i).  Both
/// elements of a pair come from the same two values, so P c = eps c
/// exactly; `value` may read c, since a pair is read before it is written.
template <class Value>
void fold_pairs(const CiSpace& space, int eps, double h, Value value,
                std::span<double> c) {
  const double sign = eps;
  space.for_each_transpose_pair_row([&](std::size_t len, std::size_t i,
                                        std::size_t j, std::size_t stride) {
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t a = i + k, b = j + k * stride;
      const double x = value(a), y = value(b);
      c[a] = (x + sign * y) * h;
      c[b] = (y + sign * x) * h;
    }
    return true;
  });
}

// Live telemetry shared by every diagonalization method: an iteration
// counter and a last-residual gauge.  Registration is lazy and only
// reached when telemetry is enabled, so untelemetered solves stay
// bitwise identical (the registry only observes values, never charges).
void note_iteration() {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Counter iterations =
      reg.counter(obs::metric::kSolverIterations);
  iterations.inc();
}

void note_residual(double rnorm) {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Gauge residual = reg.gauge(obs::metric::kSolverResidualNorm);
  residual.set(rnorm);
}

}  // namespace

int parity_project(const CiSpace& space, std::span<double> c) {
  XFCI_REQUIRE(c.size() == space.dimension(),
               "parity projection: c size must equal the CI dimension");
  if (space.nalpha() != space.nbeta() || space.nbeta() == 0) return 0;
  const auto value = [&](std::size_t i) { return c[i]; };
  const int eps = dominant_parity(parity_sums(space, value));
  if (eps != 0) fold_pairs(space, eps, 0.5, value, c);
  return eps;
}

std::string method_name(Method m) {
  switch (m) {
    case Method::kDavidson: return "davidson";
    case Method::kSubspace2: return "subspace-2x2";
    case Method::kOlsen: return "olsen";
    case Method::kModifiedOlsen: return "modified-olsen";
    case Method::kAutoAdjusted: return "auto-adjusted";
  }
  return "?";
}

ModelSpacePreconditioner::ModelSpacePreconditioner(
    const CiSpace& space, const integrals::IntegralTables& ints,
    std::size_t size, std::vector<bool> mask)
    : diag_(hamiltonian_diagonal(space, ints)), mask_(std::move(mask)) {
  const std::size_t dim = diag_.size();
  XFCI_REQUIRE(mask_.empty() || mask_.size() == dim,
               "model-space mask size does not match the CI space");
  model_ = lowest_diagonals(size);

  // Close the model set under the alpha/beta transpose when it exists:
  // keeps H0 symmetric under P so Ms = 0 parity sectors are preserved by
  // the preconditioner (required for the "Vector Symm." shortcut).
  if (space.nalpha() == space.nbeta()) {
    std::vector<bool> in(dim, false);
    for (auto i : model_) in[i] = true;
    const std::size_t initial = model_.size();
    for (std::size_t k = 0; k < initial; ++k) {
      const Determinant d = determinant_at(space, model_[k]);
      const std::size_t ha = space.alpha().irrep_of(d.beta);
      const CiBlock* blk = space.block_for_alpha(ha);
      XFCI_ASSERT(blk != nullptr, "transpose partner left the space");
      const std::size_t partner =
          blk->offset + space.alpha().address(d.beta) * blk->nb +
          space.beta().address(d.alpha);
      if (!in[partner] && in_space(partner)) {
        in[partner] = true;
        model_.push_back(partner);
      }
    }
  }
  std::sort(model_.begin(), model_.end());

  const std::size_t mm = model_.size();  // may exceed size after closure
  linalg::Matrix hmm(mm, mm);
  std::vector<Determinant> dets(mm);
  for (std::size_t i = 0; i < mm; ++i)
    dets[i] = determinant_at(space, model_[i]);
  for (std::size_t i = 0; i < mm; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = hamiltonian_element(ints, dets[i], dets[j]);
      hmm(i, j) = v;
      hmm(j, i) = v;
    }
  // H_mm itself, not a shifted copy: the shift e changes every iteration,
  // and the eigenvectors do not depend on it.
  hmm_eig_ = linalg::eigh(hmm);
}

void ModelSpacePreconditioner::apply_model_block(
    double e, std::span<double> x, std::span<double> work) const {
  const std::size_t m = model_.size();
  XFCI_REQUIRE(x.size() == m && work.size() == m,
               "model block size mismatch");
  // x <- V (lambda - e)^+ V^T x.  The block can be exactly singular (e
  // equal to a model-space eigenvalue), so the pseudo-inverse drops that
  // direction instead of dividing by ~0.
  const linalg::Matrix& v = hmm_eig_.vectors;
  std::fill(work.begin(), work.end(), 0.0);
  for (std::size_t i = 0; i < m; ++i)
    linalg::daxpy_n(m, x[i], v.row(i).data(), work.data());
  for (std::size_t j = 0; j < m; ++j) {
    const double d = hmm_eig_.values[j] - e;
    work[j] = std::abs(d) < 1e-10 ? 0.0 : work[j] / d;
  }
  for (std::size_t i = 0; i < m; ++i)
    x[i] = linalg::dot(v.row(i), std::span<const double>(work));
}

void ModelSpacePreconditioner::apply_inverse(double e,
                                             std::span<const double> x,
                                             std::span<double> y) const {
  XFCI_REQUIRE(x.size() == diag_.size() && y.size() == x.size(),
               "preconditioner size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = x[i] / shifted_diagonal(i, e);
  const std::size_t m = model_.size();
  std::vector<double> xm(m), work(m);
  for (std::size_t k = 0; k < m; ++k) xm[k] = x[model_[k]];
  apply_model_block(e, xm, work);
  for (std::size_t k = 0; k < m; ++k) y[model_[k]] = xm[k];
}

std::vector<std::size_t> ModelSpacePreconditioner::lowest_diagonals(
    std::size_t count) const {
  std::vector<std::size_t> order;
  order.reserve(diag_.size());
  for (std::size_t i = 0; i < diag_.size(); ++i)
    if (in_space(i)) order.push_back(i);
  const std::size_t m = std::min(count, order.size());
  std::partial_sort(order.begin(), order.begin() + m, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return diag_[a] < diag_[b];
                    });
  return {order.begin(), order.begin() + m};
}

std::vector<double> ModelSpacePreconditioner::initial_guess(
    std::size_t dimension) const {
  return initial_guesses(dimension, 1).front();
}

std::vector<std::vector<double>> ModelSpacePreconditioner::initial_guesses(
    std::size_t dimension, std::size_t count) const {
  XFCI_REQUIRE(count >= 1, "need at least one guess");
  std::vector<std::vector<double>> out;
  if (model_.size() <= 1) {
    // Degenerate model space: unit vectors on the lowest diagonals.
    for (const std::size_t i : lowest_diagonals(count)) {
      std::vector<double> g(dimension, 0.0);
      g[i] = 1.0;
      out.push_back(std::move(g));
    }
    XFCI_REQUIRE(!out.empty(), "no determinant to build a guess on");
    return out;
  }
  XFCI_REQUIRE(count <= model_.size(),
               "more roots requested than model-space dimension");
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<double> g(dimension, 0.0);
    for (std::size_t i = 0; i < model_.size(); ++i)
      g[model_[i]] = hmm_eig_.vectors(i, k);
    out.push_back(std::move(g));
  }
  return out;
}

namespace {

// Olsen correction vector (Eqs. 11-12), with the perturbation-theory sign
// so that C + t improves C:
//   t = -(H0 - E)^-1 (r - eps C),  eps = <C|(H0-E)^-1 r> / <C|(H0-E)^-1 C>.
// Guarantees <C|t> = 0.
std::vector<double> olsen_correction(const ModelSpacePreconditioner& precond,
                                     double e, const std::vector<double>& c,
                                     const std::vector<double>& residual) {
  const std::size_t dim = c.size();
  std::vector<double> pr(dim), pc(dim);
  precond.apply_inverse(e, residual, pr);
  precond.apply_inverse(e, c, pc);
  const double denom = dot(c, pc);
  const double eps = std::abs(denom) > 1e-300 ? dot(c, pr) / denom : 0.0;
  std::vector<double> t(dim);
  for (std::size_t i = 0; i < dim; ++i) t[i] = -(pr[i] - eps * pc[i]);
  // Remove residual numerical overlap for robustness.
  const double ov = dot(c, t);
  for (std::size_t i = 0; i < dim; ++i) t[i] -= ov * c[i];
  return t;
}

// Cooperative cancellation poll (iteration boundaries only, so a stopped
// run always holds a complete iteration's state).
bool stop_requested(const SolverOptions& opt) {
  return opt.should_stop && opt.should_stop();
}

// The attached tracer when it is actually recording, else nullptr so each
// emission site costs one predicted branch on untraced runs.
obs::Tracer* solver_tracer(const SolverOptions& opt) {
  return (opt.tracer != nullptr && opt.tracer->enabled()) ? opt.tracer
                                                          : nullptr;
}

// Traced checkpoint I/O: the save/load spans land on the control track in
// the backend's clock domain (zero simulated duration -- file I/O is not
// charged -- but they mark *when* in the run the state was persisted).
void traced_save(const SolverOptions& opt, const Checkpoint& ck) {
  obs::Tracer* tr = solver_tracer(opt);
  const double t0 = tr != nullptr ? tr->now() : 0.0;
  save_checkpoint(opt.checkpoint_path, ck);
  if (tr != nullptr)
    tr->span(tr->control_track(), "io", "checkpoint_save", t0, tr->now(),
             obs::trace_args(
                 {{"iter", static_cast<double>(ck.iteration)}}));
}

Checkpoint traced_load(const SolverOptions& opt) {
  obs::Tracer* tr = solver_tracer(opt);
  const double t0 = tr != nullptr ? tr->now() : 0.0;
  Checkpoint ck = load_checkpoint(opt.restart_path);
  if (tr != nullptr)
    tr->span(tr->control_track(), "io", "checkpoint_load", t0, tr->now(),
             obs::trace_args(
                 {{"iter", static_cast<double>(ck.iteration)}}));
  return ck;
}

// Warm-start resolution shared by every solver: a restart checkpoint (its
// vector only) beats an explicit initial vector beats the model-space
// guess.  The result is parity-projected and normalized -- callers needing
// the verbatim checkpoint state (bitwise restart) restore it themselves.
std::vector<double> warm_start_vector(const CiSpace& space,
                                      const ModelSpacePreconditioner& precond,
                                      const SolverOptions& opt) {
  const std::size_t dim = space.dimension();
  std::vector<double> c;
  if (!opt.restart_path.empty()) {
    Checkpoint ck = traced_load(opt);
    XFCI_REQUIRE(ck.c.size() == dim,
                 "checkpoint CI dimension does not match this problem");
    c = std::move(ck.c);
  } else if (!opt.initial_vector.empty()) {
    XFCI_REQUIRE(opt.initial_vector.size() == dim,
                 "initial vector dimension does not match this problem");
    c = opt.initial_vector;
  } else {
    c = precond.initial_guess(dim);
  }
  parity_project(space, c);
  normalize(c);
  return c;
}

// Block Davidson for the `num_roots` lowest eigenpairs.  The subspace is
// seeded with the model-space eigenvectors; each iteration adds the Olsen
// correction vectors of the unconverged roots (paper section 4 uses the
// correction vector as the subspace direction).
SolverResult solve_davidson(SigmaOperator& op,
                            const ModelSpacePreconditioner& precond,
                            double core, const SolverOptions& opt) {
  const std::size_t dim = op.space().dimension();
  const std::size_t nroots = std::max<std::size_t>(1, opt.num_roots);
  XFCI_REQUIRE(nroots <= dim, "more roots than determinants");
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);

  std::vector<std::vector<double>> basis = precond.initial_guesses(dim, nroots);
  if (!opt.restart_path.empty() || !opt.initial_vector.empty())
    basis[0] = warm_start_vector(op.space(), precond, opt);
  for (auto& b : basis) normalize(b);
  // Project and re-orthogonalize the seeds (unit-vector fallback guesses
  // can overlap after normalization in pathological cases).
  for (std::size_t i = 0; i < basis.size(); ++i) {
    parity_project(op.space(), basis[i]);
    for (std::size_t j = 0; j < i; ++j) {
      const double ov = dot(basis[j], basis[i]);
      for (std::size_t x = 0; x < dim; ++x) basis[i][x] -= ov * basis[j][x];
    }
    normalize(basis[i]);
  }
  std::vector<std::vector<double>> hbasis;

  std::vector<double> last_e(nroots, 0.0);
  std::vector<std::vector<double>> ritz(nroots,
                                        std::vector<double>(dim, 0.0));
  std::vector<std::vector<double>> sigma_ritz(
      nroots, std::vector<double>(dim, 0.0));
  std::vector<double> theta(nroots, 0.0);

  while (res.iterations < opt.max_iterations) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      // Cancelled before the first Rayleigh-Ritz: fall back to the seed so
      // the returned vector is normalizable.
      if (dot(ritz[0], ritz[0]) == 0.0) ritz[0] = basis[0];
      break;
    }
    // Apply H to every not-yet-applied basis vector.
    while (hbasis.size() < basis.size() &&
           res.iterations < opt.max_iterations) {
      const double it0 = tr != nullptr ? tr->now() : 0.0;
      std::vector<double> hb(dim);
      op.apply(basis[hbasis.size()], hb);
      hbasis.push_back(std::move(hb));
      ++res.iterations;
      note_iteration();
      if (tr != nullptr)
        tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
                 obs::trace_args(
                     {{"iter", static_cast<double>(res.iterations)}}));
    }
    if (hbasis.size() < basis.size()) break;  // iteration budget exhausted

    // Rayleigh-Ritz.
    const std::size_t k = basis.size();
    linalg::Matrix hk(k, k);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        hk(i, j) = dot(basis[i], hbasis[j]);
    const auto eig = linalg::eigh(hk);

    bool all_converged = k >= nroots;
    double max_rnorm = 0.0;
    std::vector<std::vector<double>> residuals(nroots);
    for (std::size_t root = 0; root < nroots && root < k; ++root) {
      theta[root] = eig.values[root];
      std::fill(ritz[root].begin(), ritz[root].end(), 0.0);
      std::fill(sigma_ritz[root].begin(), sigma_ritz[root].end(), 0.0);
      for (std::size_t i = 0; i < k; ++i) {
        const double w = eig.vectors(i, root);
        linalg::daxpy_n(dim, w, basis[i].data(), ritz[root].data());
        linalg::daxpy_n(dim, w, hbasis[i].data(), sigma_ritz[root].data());
      }
      residuals[root].resize(dim);
      for (std::size_t i = 0; i < dim; ++i)
        residuals[root][i] =
            sigma_ritz[root][i] - theta[root] * ritz[root][i];
      const double rnorm = std::sqrt(dot(residuals[root], residuals[root]));
      max_rnorm = std::max(max_rnorm, rnorm);
      const double de = std::abs(theta[root] - last_e[root]);
      last_e[root] = theta[root];
      if (root == 0) {
        res.energy_history.push_back(theta[0] + core);
        res.residual_history.push_back(rnorm);
      }
      const bool root_ok =
          rnorm < opt.residual_tolerance &&
          (res.iterations <= nroots || de < opt.energy_tolerance ||
           rnorm < 0.01 * opt.residual_tolerance);
      all_converged = all_converged && root_ok;
    }
    note_residual(max_rnorm);

    if (all_converged) {
      res.converged = true;
      break;
    }

    // Restart: collapse onto the Ritz vectors (their sigma images are
    // linear combinations of the stored ones -- no extra applications).
    if (basis.size() + nroots > kMaxSubspace && basis.size() > nroots) {
      basis.assign(ritz.begin(), ritz.begin() + std::min(nroots, k));
      hbasis.assign(sigma_ritz.begin(),
                    sigma_ritz.begin() + std::min(nroots, k));
      for (std::size_t i = 0; i < basis.size(); ++i) {
        // Ritz vectors are orthonormal; normalize against round-off.
        const double n = std::sqrt(dot(basis[i], basis[i]));
        for (auto& x : basis[i]) x /= n;
        for (auto& x : hbasis[i]) x /= n;
      }
    }

    // New directions: Olsen corrections of the unconverged roots.
    bool added = false;
    for (std::size_t root = 0; root < nroots && root < k; ++root) {
      const double rnorm = std::sqrt(dot(residuals[root], residuals[root]));
      if (rnorm < opt.residual_tolerance) continue;
      std::vector<double> t = olsen_correction(precond, theta[root],
                                               ritz[root], residuals[root]);
      parity_project(op.space(), t);
      for (int pass = 0; pass < 2; ++pass)
        for (const auto& b : basis) {
          const double ov = dot(b, t);
          for (std::size_t i = 0; i < dim; ++i) t[i] -= ov * b[i];
        }
      const double tn = std::sqrt(dot(t, t));
      if (tn < 1e-10) continue;
      for (auto& x : t) x /= tn;
      basis.push_back(std::move(t));
      added = true;
    }
    if (!added) {
      // Stationary: nothing new to add; accept the current Ritz pairs.
      res.converged = max_rnorm < opt.residual_tolerance;
      break;
    }
  }

  res.energy = theta[0] + core;
  res.vector = ritz[0];
  normalize(res.vector);
  res.energies.resize(nroots);
  res.vectors.resize(nroots);
  for (std::size_t root = 0; root < nroots; ++root) {
    res.energies[root] = theta[root] + core;
    res.vectors[root] = ritz[root];
    const double n = std::sqrt(dot(res.vectors[root], res.vectors[root]));
    if (n > 0) 
      for (auto& x : res.vectors[root]) x /= n;
  }
  return res;
}

// The paper's "subspace" method (Table 2 column "Davidson"): the current
// vector plus the Olsen correction span a 2-dimensional subspace whose 2x2
// generalized eigenproblem is solved exactly every iteration.  Needs H t
// explicitly (one sigma application per iteration, applied to t), so C,
// sigma(C), t and H t are all in memory -- twice the auto-adjusted
// method's footprint, which is the paper's motivation for Eq. 14.
SolverResult solve_subspace2(SigmaOperator& op,
                             const ModelSpacePreconditioner& precond,
                             double core, const SolverOptions& opt) {
  const std::size_t dim = op.space().dimension();
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);
  const auto end_iteration = [&](std::size_t iter, double it0, double energy,
                                 double rnorm) {
    note_iteration();
    note_residual(rnorm);
    if (tr != nullptr)
      tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
               obs::trace_args({{"iter", static_cast<double>(iter)},
                                {"E", energy},
                                {"rnorm", rnorm}}));
  };

  std::vector<double> c = warm_start_vector(op.space(), precond, opt);
  std::vector<double> sigma(dim);
  const double it_init = tr != nullptr ? tr->now() : 0.0;
  op.apply(c, sigma);
  res.iterations = 1;
  double e = dot(c, sigma);
  double last_e = e;
  end_iteration(1, it_init, e + core, 0.0);

  for (std::size_t iter = 2; iter <= opt.max_iterations; ++iter) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      break;
    }
    const double it0 = tr != nullptr ? tr->now() : 0.0;
    std::vector<double> r(dim);
    for (std::size_t i = 0; i < dim; ++i) r[i] = sigma[i] - e * c[i];
    const double rnorm = std::sqrt(dot(r, r));
    const double de = std::abs(e - last_e);
    res.energy_history.push_back(e + core);
    res.residual_history.push_back(rnorm);
    if (rnorm < opt.residual_tolerance &&
        (res.iterations == 1 || de < opt.energy_tolerance ||
         rnorm < 0.01 * opt.residual_tolerance)) {
      res.converged = true;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, rnorm);
      return res;
    }
    last_e = e;

    std::vector<double> t = olsen_correction(precond, e, c, r);
    parity_project(op.space(), t);
    const double tt = dot(t, t);
    if (tt < 1e-22) {
      res.converged = rnorm < opt.residual_tolerance;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, rnorm);
      return res;
    }

    std::vector<double> ht(dim);
    op.apply(t, ht);
    res.iterations = iter;
    const double b = dot(c, ht);
    const double tht = dot(t, ht);

    const auto g = linalg::lowest_gen_eig_2x2(e, b, tht, 1.0, 0.0, tt);
    double lambda = 1.0;
    if (std::abs(g.x0) > 1e-8 * std::abs(g.x1)) lambda = g.x1 / g.x0;

    const double s = std::sqrt(1.0 / (1.0 + lambda * lambda * tt));
    for (std::size_t i = 0; i < dim; ++i) {
      c[i] = s * (c[i] + lambda * t[i]);
      sigma[i] = s * (sigma[i] + lambda * ht[i]);
    }
    if (parity_project(op.space(), c) != 0) {
      // H commutes with the projection, so project sigma coherently.
      parity_project(op.space(), sigma);
      const double nn = std::sqrt(dot(c, c));
      for (auto& x : c) x /= nn;
      for (auto& x : sigma) x /= nn;
    }
    e = dot(c, sigma);

    if (!opt.checkpoint_path.empty() && iter % kCheckpointInterval == 0) {
      // Warm-restart checkpoint: the subspace method rebuilds H t after a
      // restart, so only the vector and the histories are persisted.
      Checkpoint ck;
      ck.iteration = iter;
      ck.method = static_cast<std::uint32_t>(opt.method);
      ck.last_e = e;
      ck.c = c;
      ck.energy_history = res.energy_history;
      ck.residual_history = res.residual_history;
      traced_save(opt, ck);
    }
    end_iteration(iter, it0, e + core, rnorm);
  }

  res.converged = false;
  res.energy = e + core;
  res.vector = c;
  return res;
}

SolverResult solve_single_vector(SigmaOperator& op,
                                 const ModelSpacePreconditioner& precond,
                                 double core, const SolverOptions& opt) {
  const CiSpace& space = op.space();
  const std::size_t dim = space.dimension();
  const bool ms0 = space.nalpha() == space.nbeta() && space.nbeta() > 0;
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);

  // The paper's storage: c and sigma, with the correction t written over
  // sigma once <sigma|t> is summed.  The model block's rows (r and c at
  // the model indices) are the only other per-iteration data.
  std::vector<double> c;
  std::vector<double> sigma(dim);
  const std::span<const std::size_t> model = precond.model();
  std::vector<double> model_r(model.size()), model_c(model.size()),
      model_work(model.size());

  // State carried between iterations for the auto-adjusted step length
  // (Eqs. 13-15).
  double lambda = 1.0;
  bool have_prev = false;
  double e_prev = 0.0, b_prev = 0.0, tt_prev = 0.0, s2_prev = 1.0,
         lambda_prev = 0.0;
  double last_e = 0.0;
  std::size_t first_iter = 1;

  if (!opt.restart_path.empty()) {
    // Full restart: restore every word of the inter-iteration state.  The
    // CI vector is used verbatim -- renormalizing (dividing by a norm of
    // ~1.0) would perturb the bits and break the trajectory guarantee.
    const Checkpoint ck = traced_load(opt);
    XFCI_REQUIRE(ck.c.size() == dim,
                 "checkpoint CI dimension does not match this problem");
    XFCI_REQUIRE(ck.method == static_cast<std::uint32_t>(opt.method),
                 "checkpoint was written by a different solver method");
    c = ck.c;
    lambda = ck.lambda;
    have_prev = ck.have_prev;
    e_prev = ck.e_prev;
    b_prev = ck.b_prev;
    tt_prev = ck.tt_prev;
    s2_prev = ck.s2_prev;
    lambda_prev = ck.lambda_prev;
    last_e = ck.last_e;
    res.energy_history = ck.energy_history;
    res.residual_history = ck.residual_history;
    first_iter = static_cast<std::size_t>(ck.iteration) + 1;
    res.iterations = static_cast<std::size_t>(ck.iteration);
    res.energy = last_e + core;
    res.vector = c;
  } else {
    c = warm_start_vector(op.space(), precond, opt);
  }

  const auto end_iteration = [&](std::size_t iter, double it0, double energy,
                                 double step, double rnorm) {
    note_iteration();
    note_residual(rnorm);
    if (tr != nullptr)
      tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
               obs::trace_args({{"iter", static_cast<double>(iter)},
                                {"E", energy},
                                {"lambda", step},
                                {"rnorm", rnorm}}));
  };

  for (std::size_t iter = first_iter; iter <= opt.max_iterations; ++iter) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      break;
    }
    const double it0 = tr != nullptr ? tr->now() : 0.0;
    op.apply(c, sigma);
    res.iterations = iter;
    // Pass 1: e = <c|sigma> and <c|c>.
    const auto p1 = flat_sum<2>(dim, [&](std::size_t i) {
      return std::array<double, 2>{c[i] * sigma[i], c[i] * c[i]};
    });
    const double e = p1[0], cc = p1[1];

    if (opt.method == Method::kAutoAdjusted && have_prev &&
        std::abs(lambda_prev) > 1e-8 && tt_prev > 1e-20) {
      // Recover <t|H|t> of the previous iteration from the new energy
      // (Eq. 14) and diagonalize the previous 2x2 {C, t} problem; its
      // optimal mixing is this iteration's step length (Eq. 15).
      const double tht = (e / s2_prev - e_prev - 2.0 * lambda_prev * b_prev) /
                         (lambda_prev * lambda_prev);
      if (std::isfinite(tht)) {
        const auto g = linalg::lowest_gen_eig_2x2(e_prev, b_prev, tht, 1.0,
                                                  0.0, tt_prev);
        if (std::abs(g.x0) > 1e-8 * std::abs(g.x1))
          lambda = std::clamp(g.x1 / g.x0, -5.0, 5.0);
      }
    }

    // The model block's rows of (H0-E)^-1 r and (H0-E)^-1 c, solved from r
    // and c at the model indices before the passes that read them.
    for (std::size_t k = 0; k < model.size(); ++k) {
      model_r[k] = sigma[model[k]] - e * c[model[k]];
      model_c[k] = c[model[k]];
    }
    precond.apply_model_block(e, model_r, model_work);
    precond.apply_model_block(e, model_c, model_work);

    // Pass 2: r = sigma - e c recomputed; ||r||^2, <c|(H0-E)^-1 r> and
    // <c|(H0-E)^-1 c>.
    const auto p2 = sum_around_model<3>(
        dim, model,
        [&](std::size_t i) {
          const double r = sigma[i] - e * c[i];
          const double q = c[i] / precond.shifted_diagonal(i, e);
          return std::array<double, 3>{r * r, q * r, q * c[i]};
        },
        [&](std::size_t k, std::size_t i) {
          const double r = sigma[i] - e * c[i];
          return std::array<double, 3>{r * r, c[i] * model_r[k],
                                       c[i] * model_c[k]};
        });
    const double rnorm = std::sqrt(p2[0]);
    const double de = std::abs(e - last_e);
    last_e = e;
    res.energy_history.push_back(e + core);
    res.residual_history.push_back(rnorm);

    // Converged when the residual is small and either the energy has
    // settled or the residual is far below tolerance (the energy-change
    // test is meaningless on the first iteration and can lag the residual
    // by an iteration near machine precision).
    if (rnorm < opt.residual_tolerance &&
        (iter == 1 || de < opt.energy_tolerance ||
         rnorm < 0.01 * opt.residual_tolerance)) {
      res.converged = true;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, lambda, rnorm);
      return res;
    }

    // Pass 3: the Olsen correction (Eqs. 11-12) with the perturbation-
    // theory sign, t0 = -(H0-E)^-1 (r - eps c), eps = <c|(H0-E)^-1 r> /
    // <c|(H0-E)^-1 c>, written over sigma once <sigma|t0> is summed; with
    // <c|t0> and <t0|t0>.
    const double eps = std::abs(p2[2]) > 1e-300 ? p2[1] / p2[2] : 0.0;
    const auto p3 = sum_around_model<3>(
        dim, model,
        [&](std::size_t i) {
          const double r = sigma[i] - e * c[i];
          const double t = (eps * c[i] - r) / precond.shifted_diagonal(i, e);
          const double s = sigma[i];
          sigma[i] = t;
          return std::array<double, 3>{c[i] * t, s * t, t * t};
        },
        [&](std::size_t k, std::size_t i) {
          const double t = -(model_r[k] - eps * model_c[k]);
          const double s = sigma[i];
          sigma[i] = t;
          return std::array<double, 3>{c[i] * t, s * t, t * t};
        });
    // t = t0 - ov c removes the rounding overlap <c|t0>, so <c|t> = 0; its
    // sums follow from those of t0 without another pass.
    const double ov = p3[0];
    const double b = p3[1] - ov * e;  // <C|H|t>
    const double tt = p3[2] - ov * ov * (2.0 - cc);
    const auto t_at = [&](std::size_t i) { return sigma[i] - ov * c[i]; };
    if (tt < 1e-22) {
      // The correction vanished: stationary point.  Accept it if the
      // residual is small; otherwise the preconditioner cannot make
      // progress and iterating further would only amplify noise.
      res.converged = rnorm < opt.residual_tolerance;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, lambda, rnorm);
      return res;
    }

    switch (opt.method) {
      case Method::kOlsen:
        lambda = 1.0;
        break;
      case Method::kModifiedOlsen:
        lambda = kFixedLambda;
        break;
      case Method::kAutoAdjusted:
        if (iter == 1) {
          // First iteration: crude <t|H|t> estimate from the diagonal.
          const auto& diag = precond.diagonal();
          const double tht = flat_sum<1>(dim, [&](std::size_t i) {
            const double t = t_at(i);
            return std::array<double, 1>{t * t * diag[i]};
          })[0];
          const auto g =
              linalg::lowest_gen_eig_2x2(e, b, tht, 1.0, 0.0, tt);
          if (std::abs(g.x0) > 1e-12) lambda = g.x1 / g.x0;
        }
        // Otherwise lambda was set from Eq. 15 above.
        break;
      case Method::kDavidson:
      case Method::kSubspace2:
        XFCI_REQUIRE(false, "not a single-vector method");
    }

    // C <- S (C + lambda t), with <C|t> = 0 so S = (1+lambda^2 tt)^-1/2.
    const double s2 = 1.0 / (1.0 + lambda * lambda * tt);
    const double s = std::sqrt(s2);
    const auto next = [&](std::size_t i) {
      return s * (c[i] + lambda * t_at(i));
    };
    // Passes 4 and 5 (Ms = 0): <c'|c'> and <c'|P c'> over the transpose
    // pairs, then the parity fold and its normalization in one write:
    // ||P c'|| = ||c'|| makes the folded vector's squared norm
    // (<c'|c'> + parity <c'|P c'>) / 2.  Elsewhere pass 4 writes c' alone.
    int parity = 0;
    double h = 1.0;
    if (ms0) {
      const auto pc = parity_sums(space, next);
      parity = dominant_parity(pc);
      if (parity != 0) h = 0.5 / std::sqrt(0.5 * (pc[0] + parity * pc[1]));
    }
    if (parity != 0) {
      fold_pairs(space, parity, h, next, c);
    } else {
      for (std::size_t i = 0; i < dim; ++i) c[i] = next(i);
    }

    e_prev = e;
    b_prev = b;
    tt_prev = tt;
    s2_prev = s2;
    lambda_prev = lambda;
    have_prev = true;

    if (!opt.checkpoint_path.empty() && iter % kCheckpointInterval == 0) {
      Checkpoint ck;
      ck.iteration = iter;
      ck.method = static_cast<std::uint32_t>(opt.method);
      ck.have_prev = have_prev;
      ck.lambda = lambda;
      ck.e_prev = e_prev;
      ck.b_prev = b_prev;
      ck.tt_prev = tt_prev;
      ck.s2_prev = s2_prev;
      ck.lambda_prev = lambda_prev;
      ck.last_e = last_e;
      ck.c = c;
      ck.energy_history = res.energy_history;
      ck.residual_history = res.residual_history;
      traced_save(opt, ck);
    }
    end_iteration(iter, it0, e + core, lambda, rnorm);
  }

  res.converged = false;
  res.energy = last_e + core;
  res.vector = c;
  return res;
}

}  // namespace

SolverResult solve_lowest(SigmaOperator& op,
                          const integrals::IntegralTables& ints,
                          const SolverOptions& options,
                          const ModelSpacePreconditioner* precond) {
  XFCI_REQUIRE(options.num_roots == 1 || options.method == Method::kDavidson,
               "multiple roots require the Davidson method");
  std::unique_ptr<const ModelSpacePreconditioner> own;
  if (precond == nullptr) {
    own = std::make_unique<const ModelSpacePreconditioner>(
        op.space(), ints, options.model_space);
    precond = own.get();
  }
  SolverResult res;
  if (options.method == Method::kDavidson)
    res = solve_davidson(op, *precond, ints.core_energy, options);
  else if (options.method == Method::kSubspace2)
    res = solve_subspace2(op, *precond, ints.core_energy, options);
  else
    res = solve_single_vector(op, *precond, ints.core_energy, options);
  if (res.energies.empty()) {
    res.energies = {res.energy};
    res.vectors = {res.vector};
  }
  return res;
}

}  // namespace xfci::fci
