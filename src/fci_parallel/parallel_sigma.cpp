#include "fci_parallel/parallel_sigma.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/metric_names.hpp"
#include "common/telemetry.hpp"

namespace xfci::fcp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The one place DDI counts reach the live registry: one sigma's delta of
/// the backend's ledger (`before` -> `after` totals, rank forks included)
/// plus the driver-side recovery events, published from the driver thread.
/// The words series carries whole words of the cumulative ledger, so the
/// simulator's fractional all-to-all shares truncate without drifting.
void publish_ddi(const char* backend, const pv::CommCounters& before,
                 const pv::CommCounters& after, std::size_t reassigned,
                 std::size_t ranks_lost) {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  namespace m = obs::metric;
  const auto op = [&](const char* name, std::size_t calls0,
                      std::size_t calls1, double words0, double words1) {
    const std::vector<obs::Label> labels{{m::kLabelOp, name},
                                         {m::kLabelBackend, backend}};
    reg.counter(m::kDdiOps, labels).inc(calls1 - calls0);
    reg.counter(m::kDdiWords, labels)
        .inc(static_cast<std::uint64_t>(words1) -
             static_cast<std::uint64_t>(words0));
  };
  op("get", before.get_calls, after.get_calls, before.get_words,
     after.get_words);
  op("acc", before.acc_calls, after.acc_calls, before.acc_words,
     after.acc_words);
  op("put", before.put_calls, after.put_calls, before.put_words,
     after.put_words);
  reg.counter(m::kDdiRetransmits).inc(after.retransmits - before.retransmits);
  reg.counter(m::kDdiTasksReassigned, {{m::kLabelBackend, backend}})
      .inc(reassigned);
  reg.counter(m::kDdiRanksLost).inc(ranks_lost);
  reg.counter(m::kDdiSpawns, {{m::kLabelBackend, backend}})
      .inc(after.spawns - before.spawns);
}

/// Builds the backend the options select.  A future real-transport backend
/// (MPI / native SHMEM) adds one more case here; nothing else changes.
std::unique_ptr<pv::Ddi> make_backend(const ParallelOptions& options) {
  if (options.execution == ExecutionMode::kThreads)
    return pv::make_threads_ddi(options.num_ranks, options.num_threads,
                                options.faults);
  if (options.execution == ExecutionMode::kProcess)
    return pv::make_process_ddi(options.num_ranks, options.faults,
                                options.process);
  return pv::make_simulated_ddi(options.num_ranks, options.cost,
                                options.faults);
}

}  // namespace

PhaseBreakdown PhaseBreakdown::averaged() const {
  PhaseBreakdown a = *this;
  if (count == 0) return a;
  const double n = static_cast<double>(count);
  a.beta_side /= n;
  a.alpha_side /= n;
  a.mixed /= n;
  a.transpose /= n;
  a.vector_ops /= n;
  a.load_imbalance /= n;
  a.recovery /= n;
  a.total /= n;
  a.comm_words /= n;
  a.mixed_comm_words /= n;
  a.flops /= n;
  a.count = 1;
  return a;
}

PhaseState ParallelSigma::phase_state() {
  return PhaseState{ctx_,        options_,         *ddi_,      dist_,
                    dist_alive_, block_of_halpha_, breakdown_, slot_stats_};
}

ParallelSigma::ParallelSigma(const fci::SigmaContext& context,
                             const ParallelOptions& options)
    : ctx_(context),
      options_(options),
      ddi_(make_backend(options)),
      dist_(context.space(), options.num_ranks),
      dist_alive_(options.num_ranks, 1),
      slot_stats_(ddi_->num_slots()),
      recovery_(phase_state()),
      same_spin_(phase_state()),
      mixed_(phase_state(), recovery_) {
  const auto& space = context.space();
  block_of_halpha_.assign(space.group().num_irreps(), kNone);
  for (std::size_t b = 0; b < space.blocks().size(); ++b)
    block_of_halpha_[space.blocks()[b].halpha] = b;
  // The backend sizes and labels the tracer's tracks and installs its own
  // clock domain; from here on every layer emits through ddi().tracer().
  if (options_.tracer != nullptr) ddi_->set_tracer(options_.tracer);
  // Shared tables are built lazily; materialize the ones the phases read
  // now, before any worker thread can race on the first touch.  Only the
  // beta side reads the transposed context.
  if (space.nbeta() >= 1) ctx_.transposed();
  space.transposed();
}

void ParallelSigma::charge_solver_vector_ops() {
  if (!ddi_->models_cost()) return;  // real backends run the solver for real
  // Per iteration the single-vector solvers touch the distributed vectors a
  // handful of times: ~5 dot products, ~4 axpy/scale passes, and one
  // preconditioner application (indexed divide), plus reductions.
  const double t0 = ddi_->barrier();
  const std::size_t nranks = ddi_->num_ranks();
  for (std::size_t r = 0; r < nranks; ++r) {
    const double local = static_cast<double>(dist_.local_words(r));
    ddi_->charge_daxpy_flops(r, 18.0 * local);
    ddi_->charge_indexed(r, 2.0 * local);
  }
  const double t1 = ddi_->barrier();
  record_window(*ddi_, breakdown_.vector_ops, "vector_ops", t0, t1);
}

void ParallelSigma::apply_dgemm(std::span<const double> c,
                                std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  // Absorb any deaths declared at earlier barriers before handing out
  // column ownership for this sigma (no-op while every rank is alive).
  recovery_.maybe_redistribute();

  // A vector of exact transpose parity takes the "Vector Symm." shortcut
  // (paper Table 3): the beta side folds its own transpose into sigma, and
  // that one distributed transpose replaces the whole alpha-side phase.
  const int parity = space.transpose_parity(c);
  if (space.nbeta() >= 1)
    same_spin_.beta_side(ctx_.transposed(), c, sigma, /*moc_kernel=*/false,
                         parity);
  if (parity == 0 && space.nalpha() >= 1)
    same_spin_.alpha_side(c, sigma, false);
  mixed_.dgemm(c, sigma);
}

void ParallelSigma::apply_moc(std::span<const double> c,
                              std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  recovery_.maybe_redistribute();
  if (ctx_.space().nbeta() >= 1)
    same_spin_.beta_side(ctx_.transposed(), c, sigma, /*moc_kernel=*/true,
                         /*parity=*/0);
  if (ctx_.space().nalpha() >= 1) same_spin_.alpha_side(c, sigma, true);
  mixed_.moc(c, sigma);
}

void ParallelSigma::apply(std::span<const double> c,
                          std::span<double> sigma) {
  const fci::CiSpace& space = ctx_.space();
  XFCI_REQUIRE(c.size() == space.dimension(), "parallel sigma size mismatch");
  XFCI_REQUIRE(sigma.size() == c.size(), "parallel sigma size mismatch");
  std::fill(sigma.begin(), sigma.end(), 0.0);

  const double start = ddi_->elapsed();
  const pv::CommCounters led0 = ddi_->totals();
  const std::size_t reassigned0 = breakdown_.tasks_reassigned;
  const std::size_t lost0 = breakdown_.ranks_lost;

  if (options_.algorithm == fci::Algorithm::kMoc)
    apply_moc(c, sigma);
  else
    apply_dgemm(c, sigma);
  charge_solver_vector_ops();

  // The slots' kernel counts, folded in slot order: stats_ keeps the
  // counters cumulative and the shapes of this sigma only.
  stats_.dgemm_shapes.clear();
  for (SlotStats& slot : slot_stats_) {
    stats_ += slot.stats;
    slot.stats.reset();
  }

  // Every per-sigma count below is a delta of the one ledger.  The words
  // total is read off the ledger rather than summed from deltas, so it
  // equals the rows' column sums exactly even where the simulator's
  // all-to-all shares are fractional.
  const pv::CommCounters led1 = ddi_->totals();
  const double end = ddi_->elapsed();
  const double comm = led1.words() - led0.words();
  const double flops = led1.flops - led0.flops;
  breakdown_.comm_words = led1.words() - comm_base_;
  breakdown_.flops += flops;
  breakdown_.count += 1;
  breakdown_.ops_retried += led1.retransmits - led0.retransmits;
  breakdown_.dlb_calls += led1.dlb_calls - led0.dlb_calls;
  breakdown_.ops_dropped += led1.ops_dropped - led0.ops_dropped;
  breakdown_.ops_delayed += led1.ops_delayed - led0.ops_delayed;
  publish_ddi(ddi_->name(), led0, led1,
              breakdown_.tasks_reassigned - reassigned0,
              breakdown_.ranks_lost - lost0);
  record_window(*ddi_, breakdown_.total, "sigma", start, end,
                obs::trace_args({{"n", static_cast<double>(breakdown_.count)},
                                 {"comm_words", comm},
                                 {"flops", flops}}),
                "sigma");
}

}  // namespace xfci::fcp
