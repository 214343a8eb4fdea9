#include "fci_parallel/parallel_sigma.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "fci/fci.hpp"
#include "linalg/gemm.hpp"

namespace xfci::fcp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Retransmissions allowed per one-sided op before the run aborts.
constexpr std::size_t kMaxOpRetries = 8;

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

// Where a rank's share of one block lies in a flat CI vector, as a kernel
// matrix: element (row i, column j) is at
// offset + (first + i) * row_stride + j * col_stride.
struct BlockLayout {
  std::size_t offset, ncols, col_stride, row_stride, first, nrows;
  std::size_t irrep;  // the view slot: the irrep of the column strings
};

// A rank's compact local copies of its share of every block: in layout
// order, block k's column j holds its nrows values contiguously in one
// flat C buffer and one zeroed sigma buffer.
struct LocalBlocks {
  std::vector<BlockLayout> layout;
  std::vector<double> c, sigma;
  std::vector<fci::ColumnView> views;  // indexed by irrep
};

LocalBlocks copy_out(std::vector<BlockLayout> layout,
                     std::span<const double> c, std::size_t num_irreps) {
  LocalBlocks t{std::move(layout), {}, {}, {}};
  std::size_t total = 0;
  for (const BlockLayout& l : t.layout) total += l.ncols * l.nrows;
  t.c.resize(total);
  t.sigma.assign(total, 0.0);
  t.views.assign(num_irreps, fci::ColumnView{});
  std::size_t at = 0;
  for (const BlockLayout& l : t.layout) {
    if (l.nrows == 0) continue;
    const double* src = c.data() + l.offset + l.first * l.row_stride;
    double* dst = t.c.data() + at;
    for (std::size_t j = 0; j < l.ncols; ++j)
      for (std::size_t i = 0; i < l.nrows; ++i)
        dst[j * l.nrows + i] = src[j * l.col_stride + i * l.row_stride];
    t.views[l.irrep] = fci::ColumnView{dst, t.sigma.data() + at, l.nrows};
    at += l.ncols * l.nrows;
  }
  return t;
}

// sigma += the rank's local sigma copies (rank-disjoint writes).
void add_back(const LocalBlocks& t, std::span<double> sigma) {
  const double* src = t.sigma.data();
  for (const BlockLayout& l : t.layout) {
    double* dst = sigma.data() + l.offset + l.first * l.row_stride;
    for (std::size_t j = 0; j < l.ncols; ++j)
      for (std::size_t i = 0; i < l.nrows; ++i)
        dst[j * l.col_stride + i * l.row_stride] += *src++;
  }
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

ParallelSigma::ParallelSigma(const fci::SigmaContext& context,
                             const ParallelOptions& options)
    : ctx_(context),
      options_(options),
      ddi_(make_backend(options)),
      dist_(context.space(), options.num_ranks),
      dist_alive_(options.num_ranks, 1),
      rows_(context.space().transposed(), options.num_ranks),
      rows_alive_(options.num_ranks),
      slot_stats_(ddi_->num_slots()),
      items_([&context] {
        // Flatten the alpha (N-1)-string tasks.
        std::vector<std::pair<std::size_t, std::size_t>> items;
        const fci::CiSpace& space = context.space();
        if (space.nalpha() < 1 || space.nbeta() < 1) return items;
        const fci::StringSpace& am1 = *context.tables(fci::Spin::kAlpha).m1;
        for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
          for (std::size_t ik = 0; ik < am1.count(hk); ++ik)
            items.emplace_back(hk, ik);
        return items;
      }()),
      pool_(items_.size(), ddi_->num_workers(), options.lb),
      scratch_(ddi_->num_workers()) {
  const auto& space = context.space();
  block_of_halpha_.assign(space.group().num_irreps(), kNone);
  for (std::size_t b = 0; b < space.blocks().size(); ++b)
    block_of_halpha_[space.blocks()[b].halpha] = b;

  auto hooks = std::make_shared<pv::Ddi::PoolHooks>();
  hooks->stage_words = [this](std::size_t it) { return stage_words(it); };
  hooks->stage = [this](std::size_t it, std::size_t worker,
                        std::span<const double> c,
                        std::span<double> payload) {
    return stage_item(it, worker, c, payload);
  };
  hooks->commit = [this](std::size_t it, std::span<const double> payload) {
    commit_item(it, payload);
  };
  hooks->on_worker_death = [this] { maybe_redistribute(); };
  hooks->on_pool_start = [this](std::size_t worker) {
    // The rank's stage counts never reach the driver; drop the last
    // pool's, so they stay bounded by one sigma.
    slot_stats_[worker].stats.reset();
    // Deaths declared since the fork moved the driver's column split; take
    // it as a freshly forked rank would, without a second refetch.
    adopt_survivor_split();
  };
  hooks_ = std::move(hooks);

  // The mixed-spin core's INT operands, packed before a process backend
  // forks its ranks, so the ranks inherit them.
  if (options_.algorithm == fci::Algorithm::kDgemm && !items_.empty())
    ab_ints_ = fci::pack_ab_integrals(ctx_);

  // The backend sizes and labels the tracer's tracks and installs its own
  // clock domain; from here on every layer emits through ddi().tracer().
  if (options_.tracer != nullptr) ddi_->set_tracer(options_.tracer);
}

// ---------------------------------------------------------------------------
// Charges and metering
// ---------------------------------------------------------------------------

// Each charge point hands the backend one pv::Work record: the simulator
// turns it into seconds, a real backend registers only its exact counts.
void ParallelSigma::charge_kernel_stats(std::size_t rank,
                                        const fci::SigmaStats& stats) {
  ddi_->charge(rank,
               {.dgemm = stats.dgemm_shapes,
                .indexed_words = stats.gather_words + stats.scatter_words,
                .daxpy_flops = 2.0 * stats.indexed_ops,
                .seconds = options_.cost.moc_element * stats.element_count});
  slot_stats_[rank].stats += stats;
}

void ParallelSigma::charge_transpose(const ColumnDistribution& dist,
                                     double copies) {
  const std::size_t nranks = ddi_->num_ranks();
  for (std::size_t r = 0; r < nranks; ++r) {
    const double words = static_cast<double>(dist.local_words(r));
    ddi_->charge(r, {.alltoall_peers = nranks - 1,
                     .alltoall_words = words *
                                       static_cast<double>(nranks - 1) /
                                       static_cast<double>(nranks),
                     .indexed_words = copies * words});
  }
}

void ParallelSigma::record_window(double& row, const char* name, double t0,
                                  double t1, std::string args,
                                  const char* category) {
  row += t1 - t0;
  if (obs::Tracer* tr = ddi_->tracer())
    tr->span(tr->control_track(), category, name, t0, t1, std::move(args));
}

void ParallelSigma::rank_span(const char* name, std::size_t r, double t0) {
  if (obs::Tracer* tr = ddi_->tracer())
    tr->span(r, "phase", name, t0, ddi_->now(r));
}

void ParallelSigma::charge_solver_vector_ops() {
  if (!ddi_->models_cost()) return;  // real backends run the solver for real
  // Per iteration the single-vector solvers touch the distributed vectors a
  // handful of times: ~5 dot products, ~4 axpy/scale passes, and one
  // preconditioner application (indexed divide), plus reductions.
  const double t0 = ddi_->barrier();
  const std::size_t nranks = ddi_->num_ranks();
  for (std::size_t r = 0; r < nranks; ++r) {  // DAXPY before indexed words
    const double local = static_cast<double>(dist_.local_words(r));
    ddi_->charge(r, {.daxpy_flops = 18.0 * local});
    ddi_->charge(r, {.indexed_words = 2.0 * local});
  }
  const double t1 = ddi_->barrier();
  record_window(breakdown_.vector_ops, "vector_ops", t0, t1);
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

pv::OpOutcome ParallelSigma::robust_one_sided(pv::OneSided op,
                                              std::size_t rank,
                                              std::size_t owner,
                                              double words) {
  for (std::size_t attempt = 0;; ++attempt) {
    if (!ddi_->alive(rank) || !ddi_->alive(owner))
      return pv::OpOutcome::kDropped;
    const pv::OpOutcome out = ddi_->one_sided(op, rank, owner, words);
    if (out == pv::OpOutcome::kDelivered) return out;
    // The drop is terminal if either end just died (op-count triggers fire
    // mid-op); otherwise it is transient: the requester waits out the ack
    // timeout and retransmits.  Dropped ops are lost before the target
    // applies their payload, so a retransmit lands exactly once.
    if (!ddi_->alive(rank) || !ddi_->alive(owner))
      return pv::OpOutcome::kDropped;
    XFCI_REQUIRE(attempt < kMaxOpRetries,
                 "one-sided op exceeded its retransmission budget");
    ddi_->charge(rank, {.seconds = options_.cost.ack_timeout,
                        .retransmits = 1});
    breakdown_.recovery += options_.cost.ack_timeout;
    if (obs::Tracer* tr = ddi_->tracer())
      tr->instant(rank, "recovery", "retransmit", ddi_->now(rank),
                  obs::trace_args({{"owner", static_cast<double>(owner)},
                                   {"words", words}}));
  }
}

void ParallelSigma::maybe_redistribute() {
  // Loop: the recovery barriers below may declare further (time-triggered)
  // deaths, which then need their own redistribution pass.
  for (;;) {
    const std::vector<std::uint8_t> alive = ddi_->alive_mask();
    if (alive == dist_alive_) return;
    std::size_t newly_dead = 0;
    double lost_words = 0.0;
    for (std::size_t r = 0; r < alive.size(); ++r) {
      if (alive[r] == 0 && dist_alive_[r] != 0) {
        ++newly_dead;
        lost_words += static_cast<double>(dist_.local_words(r));
      }
    }
    const double t0 = ddi_->barrier();
    if (obs::Tracer* tr = ddi_->tracer()) {
      for (std::size_t r = 0; r < alive.size(); ++r)
        if (alive[r] == 0 && dist_alive_[r] != 0)
          tr->instant(tr->control_track(), "recovery", "rank_lost", t0,
                      obs::trace_args({{"rank", static_cast<double>(r)}}));
    }
    dist_.redistribute(alive);
    dist_alive_ = alive;
    if (newly_dead > 0) {
      breakdown_.ranks_lost += newly_dead;
      // Graceful degradation: each survivor refetches its share of the
      // dead ranks' coefficient blocks (from the lowest surviving rank,
      // which serves the recovery copy) and installs it locally.
      const std::size_t num_alive = ddi_->num_alive();
      const double share = lost_words / static_cast<double>(num_alive);
      std::size_t root = 0;
      while (root < alive.size() && alive[root] == 0) ++root;
      for (std::size_t r = 0; r < alive.size(); ++r) {
        if (alive[r] == 0) continue;
        robust_one_sided(pv::OneSided::kGet, r, root, share);
        ddi_->charge(r, {.indexed_words = share});
      }
    }
    const double t1 = ddi_->barrier();
    record_window(breakdown_.recovery, "redistribute", t0, t1,
                  obs::trace_args(
                      {{"ranks_lost", static_cast<double>(newly_dead)}}));
  }
}

void ParallelSigma::adopt_survivor_split() {
  const std::vector<std::uint8_t> alive = ddi_->alive_mask();
  if (alive == dist_alive_) return;
  dist_.redistribute(alive);
  dist_alive_ = alive;
}

// ---------------------------------------------------------------------------
// The static same-spin phases
// ---------------------------------------------------------------------------

void ParallelSigma::same_spin_kernels(fci::Spin spin, std::size_t r,
                                      std::span<const fci::ColumnView> views,
                                      bool moc_kernel) {
  XFCI_DCHECK(views.size() == ctx_.space().group().num_irreps(),
              "same-spin kernels take one view per irrep");
  fci::SigmaStats stats;
  if (moc_kernel)
    fci::moc_same_spin_columns(ctx_, spin, views, stats);
  else
    fci::sigma_same_spin_columns(ctx_, spin, views, stats);
  fci::sigma_one_electron_columns(ctx_, spin, views, stats);
  charge_kernel_stats(r, stats);
}

void ParallelSigma::beta_side(std::span<const double> c,
                              std::span<double> sigma, bool moc_kernel,
                              int parity) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  const std::size_t nranks = ddi_->num_ranks();

  // Phase: local transposes in ("Vector Symm."): rank r's alpha columns
  // [c0, c1) of every block become the rows of its local matrices, whose
  // columns are the beta strings.  Each rank touches only its own column
  // range, so the region runs concurrently where workers are real.
  const double t0 = ddi_->barrier();
  std::vector<LocalBlocks> locals(nranks);
  ddi_->for_ranks([&](std::size_t r) {
    const double tr0 = ddi_->now(r);
    std::vector<BlockLayout> layout;
    layout.reserve(space.blocks().size());
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const fci::CiBlock& blk = space.blocks()[b];
      const auto [c0, c1] = dist_.columns(b, r);
      layout.push_back({blk.offset, blk.nb, 1, blk.nb, c0, c1 - c0,
                        blk.hbeta});
    }
    locals[r] = copy_out(std::move(layout), c, space.group().num_irreps());
    ddi_->charge(r, {.indexed_words =
                         static_cast<double>(dist_.local_words(r))});
    rank_span("transpose_in", r, tr0);
  });
  const double t1 = ddi_->barrier();
  record_window(breakdown_.transpose, "transpose_in", t0, t1);

  // Phase: beta-index same-spin + one-electron, zero communication
  // (paper Fig. 2a, the "Beta-beta" row of Table 3).
  ddi_->for_ranks([&](std::size_t r) {
    const double tr0 = ddi_->now(r);
    same_spin_kernels(fci::Spin::kBeta, r, locals[r].views, moc_kernel);
    rank_span("beta_side", r, tr0);
  });
  const double t2 = ddi_->barrier();
  record_window(breakdown_.beta_side, "beta_side", t1, t2);

  // Phase: transpose back (rank-disjoint sigma writes).
  ddi_->for_ranks([&](std::size_t r) {
    const double tr0 = ddi_->now(r);
    add_back(locals[r], sigma);
    ddi_->charge(r, {.indexed_words =
                         static_cast<double>(dist_.local_words(r))});
    rank_span("transpose_out", r, tr0);
  });
  const double t3 = ddi_->barrier();
  record_window(breakdown_.transpose, "transpose_out", t2, t3);
  if (parity == 0) return;

  // Phase: the Ms = 0 fold, sigma += parity * P z.  Rank r's local sigma
  // block b holds z(columns [c0, c1) of block b) transposed, which is P z
  // on rows [c0, c1) of block P(b), the block whose alpha irrep is b's
  // beta irrep: column by column a contiguous run no other rank writes.
  const double t4 = ddi_->barrier();
  charge_transpose(dist_, 2.0);
  const double eps = static_cast<double>(parity);
  ddi_->for_ranks([&](std::size_t r) {
    const double* ts = locals[r].sigma.data();
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const auto [c0, c1] = dist_.columns(b, r);
      const fci::CiBlock& pb = *space.block_for_alpha(space.blocks()[b].hbeta);
      for (std::size_t j = 0; j < pb.na; ++j)
        for (std::size_t i = c0; i < c1; ++i)
          sigma[pb.offset + j * pb.nb + i] += eps * *ts++;
    }
  });
  const double t5 = ddi_->barrier();
  record_window(breakdown_.transpose, "parity_fold", t4, t5);
}

void ParallelSigma::alpha_side(std::span<const double> c,
                               std::span<double> sigma, bool moc_kernel) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  const std::size_t nranks = ddi_->num_ranks();

  if (moc_kernel) {
    // MOC: the whole vector is gathered onto every rank (collective
    // gather) and the alpha-side element generation is replicated; each
    // rank updates only its own sigma columns.
    const double t0 = ddi_->barrier();
    const double remote =
        static_cast<double>(space.dimension()) *
        static_cast<double>(nranks - 1) / static_cast<double>(nranks);
    for (std::size_t r = 0; r < nranks; ++r)
      ddi_->charge(r, {.alltoall_peers = nranks - 1, .alltoall_words = remote});
    const double t1 = ddi_->barrier();
    record_window(breakdown_.transpose, "moc_gather", t0, t1);

    ddi_->for_ranks([&](std::size_t r) {
      const double tr0 = ddi_->now(r);
      std::vector<fci::ColumnView> views(space.group().num_irreps());
      for (std::size_t b = 0; b < space.blocks().size(); ++b) {
        const auto& blk = space.blocks()[b];
        const auto [c0, c1] = dist_.columns(b, r);
        views[blk.halpha] =
            fci::ColumnView{c.data() + blk.offset, sigma.data() + blk.offset,
                            blk.nb, c0, c1};
      }
      same_spin_kernels(fci::Spin::kAlpha, r, views, /*moc_kernel=*/true);
      rank_span("alpha_side", r, tr0);
    });
    const double t2 = ddi_->barrier();
    record_window(breakdown_.alpha_side, "alpha_side", t1, t2);
    return;
  }

  // DGEMM path: rank r owns beta rows [r0, r1) of every alpha column -- the
  // transposed space's column split over the ranks alive now, which a
  // distributed transpose would deliver.  The transposes are charged; the
  // rank copies its rows out of c instead.
  const fci::CiSpace& tspace = space.transposed();
  if (ddi_->num_alive() != rows_alive_) {
    rows_.redistribute(ddi_->alive_mask());
    rows_alive_ = ddi_->num_alive();
  }

  const double t0 = ddi_->barrier();
  charge_transpose(rows_, 1.0);
  const double t1 = ddi_->barrier();
  record_window(breakdown_.transpose, "transpose_fwd", t0, t1);

  // Static alpha-index work on the rank's local copies, added back into
  // sigma in the same body (no other rank touches those rows), so sigma
  // gets each element's alpha-side sum in one addition.
  ddi_->for_ranks([&](std::size_t r) {
    const double tr0 = ddi_->now(r);
    const double words = static_cast<double>(rows_.local_words(r));
    std::vector<BlockLayout> layout;
    layout.reserve(tspace.blocks().size());
    for (std::size_t b = 0; b < tspace.blocks().size(); ++b) {
      const auto [r0, r1] = rows_.columns(b, r);
      const fci::CiBlock& blk =
          *space.block_for_alpha(tspace.blocks()[b].hbeta);
      layout.push_back({blk.offset, blk.na, blk.nb, 1, r0, r1 - r0,
                        blk.halpha});
    }
    const LocalBlocks local =
        copy_out(std::move(layout), c, space.group().num_irreps());
    ddi_->charge(r, {.indexed_words = words});
    same_spin_kernels(fci::Spin::kAlpha, r, local.views, /*moc_kernel=*/false);
    add_back(local, sigma);
    ddi_->charge(r, {.indexed_words = words});
    rank_span("alpha_side", r, tr0);
  });
  const double t2 = ddi_->barrier();
  record_window(breakdown_.alpha_side, "alpha_side", t1, t2);

  charge_transpose(dist_, 1.0);
  const double t3 = ddi_->barrier();
  record_window(breakdown_.transpose, "transpose_back", t2, t3);
}

// ---------------------------------------------------------------------------
// The dynamic mixed-spin phase
// ---------------------------------------------------------------------------

std::size_t ParallelSigma::stage_words(std::size_t it) const {
  const auto [hk, ik] = items_[it];
  const auto& alist = ctx_.tables(fci::Spin::kAlpha).create->list(hk, ik);
  std::size_t words = 0;
  for (const fci::Creation& cr : alist) {
    const std::size_t b = block_of_halpha_[cr.irrep];
    if (b != kNone) words += ctx_.space().blocks()[b].nb;
  }
  return words;
}

bool ParallelSigma::stage_item(std::size_t it, std::size_t worker,
                               std::span<const double> c,
                               std::span<double> payload) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension(),
              "staged C vector must span the CI dimension");
  const fci::CiSpace& space = ctx_.space();
  const auto [hk, ik] = items_[it];
  const auto& alist = ctx_.tables(fci::Spin::kAlpha).create->list(hk, ik);
  WorkerScratch& scratch = scratch_[worker];

  std::fill(payload.begin(), payload.end(), 0.0);
  scratch.ccols.assign(alist.size(), nullptr);
  scratch.scols.assign(alist.size(), nullptr);

  // One-sided gather of the reachable C columns (DDI_GET): the core reads
  // each column where it lies in c, and accumulates into the payload.
  std::size_t off = 0;
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    const std::size_t b = block_of_halpha_[alist[ai].irrep];
    if (b == kNone) continue;
    const auto& blk = space.blocks()[b];
    const std::size_t col = alist[ai].address;
    if (!deliver(pv::OneSided::kGet, worker, b, col)) return false;
    scratch.ccols[ai] = c.data() + blk.offset + col * blk.nb;
    scratch.scols[ai] = payload.data() + off;
    off += blk.nb;
  }
  XFCI_DCHECK(off == payload.size(),
              "mixed-spin payload must be exactly stage_words long");

  // Local dense work (Eqs. 4-6).
  fci::SigmaStats stats;
  fci::sigma_mixed_spin_core(ctx_, ab_ints_, hk, ik, scratch.ccols,
                             scratch.scols, stats);
  // One record per GEMM: the shape, then its D build + E scatter (one
  // gather and one scatter pass over each intermediate matrix).
  for (const auto& sh : stats.dgemm_shapes)
    ddi_->charge(worker,
                 {.dgemm = {&sh, 1},
                  .indexed_words = 2.0 * static_cast<double>(sh[0] * sh[1])});
  slot_stats_[worker].stats += stats;

  // One-sided accumulate of the sigma columns (DDI_ACC).  Two-phase
  // commit: the payload stays staged and is applied only once every
  // accumulate of the item has been delivered, so a worker death mid-item
  // leaves sigma untouched and the reassigned item re-sends everything.
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    const std::size_t b = block_of_halpha_[alist[ai].irrep];
    if (b != kNone &&
        !deliver(pv::OneSided::kAcc, worker, b, alist[ai].address))
      return false;
  }
  return true;
}

bool ParallelSigma::deliver(pv::OneSided op, std::size_t worker,
                            std::size_t b, std::size_t col) {
  const double words = double(ctx_.space().blocks()[b].nb);
  for (;;) {
    std::size_t owner = dist_.owner(b, col);
    if (!ddi_->alive(owner)) {
      // The column's owner died: redistribute, then retarget.
      maybe_redistribute();
      owner = dist_.owner(b, col);
    }
    if (robust_one_sided(op, worker, owner, words) == pv::OpOutcome::kDelivered)
      return true;
    if (!ddi_->alive(worker)) return false;  // the worker itself died
  }
}

void ParallelSigma::commit_item(std::size_t it,
                                std::span<const double> payload) {
  XFCI_DCHECK(mixed_sigma_.size() == ctx_.space().dimension(),
              "committed sigma must span the CI dimension");
  const fci::CiSpace& space = ctx_.space();
  const auto [hk, ik] = items_[it];
  const auto& alist = ctx_.tables(fci::Spin::kAlpha).create->list(hk, ik);
  std::size_t off = 0;
  for (const fci::Creation& cr : alist) {
    const std::size_t b = block_of_halpha_[cr.irrep];
    if (b == kNone) continue;
    const auto& blk = space.blocks()[b];
    double* dst = mixed_sigma_.data() + blk.offset + cr.address * blk.nb;
    const double* src = payload.data() + off;
    for (std::size_t j = 0; j < blk.nb; ++j) dst[j] += src[j];
    off += blk.nb;
  }
  XFCI_DCHECK(off == payload.size(),
              "mixed-spin payload must be exactly stage_words long");
}

void ParallelSigma::mixed_dgemm(std::span<const double> c,
                                std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  if (items_.empty()) return;
  // A kernel pinned since the last pack reads B in other strips.
  if (!ab_ints_.front().current()) ab_ints_ = fci::pack_ab_integrals(ctx_);

  maybe_redistribute();
  const double t0 = ddi_->barrier();
  const double comm0 = ddi_->comm_words();

  mixed_sigma_ = sigma;
  const pv::Ddi::PoolStats st = ddi_->run_pool(pool_, hooks_, c);
  mixed_sigma_ = {};
  breakdown_.tasks_reassigned += st.tasks_reassigned;
  breakdown_.recovery += st.recovery_seconds;

  const double t1 = ddi_->barrier();
  record_window(breakdown_.mixed, "mixed", t0, t1,
                obs::trace_args(
                    {{"tasks", static_cast<double>(pool_.num_chunks())},
                     {"items", static_cast<double>(items_.size())},
                     {"reassigned",
                      static_cast<double>(st.tasks_reassigned)}}));
  breakdown_.load_imbalance += ddi_->imbalance();
  breakdown_.mixed_comm_words += ddi_->comm_words() - comm0;
}

void ParallelSigma::mixed_moc(std::span<const double> c,
                              std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  if (space.nalpha() < 1 || space.nbeta() < 1) return;
  const fci::StringSpace& sa = space.alpha();
  const fci::StringSpace& bm1 = *ctx_.tables(fci::Spin::kBeta).m1;
  const auto& btable = *ctx_.tables(fci::Spin::kBeta).create;
  const auto& eri = ctx_.ints().eri;
  const std::size_t n = space.norb();

  // Deaths declared earlier shrink the column split before the phase; the
  // MOC baseline implements no task-level recovery beyond that (it is the
  // historical practice the paper eliminates), so mid-phase faults only
  // show up in the accounting (dropped-op counters, frozen clocks).
  maybe_redistribute();

  // Each rank computes its local sigma columns: for every alpha single
  // excitation J_a -> I_a it gathers the remote J_a column (no reuse across
  // excitations -- the Table-1 communication count Nci * Na * (n - Na)),
  // then applies every beta single excitation as an indexed multiply-add.
  // Sigma writes are confined to the rank's own columns, so real backends
  // run ranks concurrently with no synchronization.
  auto rank_body = [&](std::size_t r, fci::SigmaStats& stats) {
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const auto& blk = space.blocks()[b];
      const auto [c0, c1] = dist_.columns(b, r);
      for (std::size_t col = c0; col < c1; ++col) {
        const fci::StringMask ia = sa.mask(blk.halpha, col);
        double* scol = sigma.data() + blk.offset + col * blk.nb;
        // Enumerate E_pq with p occupied in I_a.
        fci::StringMask occ = ia;
        while (occ) {
          const int p = __builtin_ctzll(occ);
          occ &= occ - 1;
          const int s1 = fci::annihilate_sign(ia, p);
          const fci::StringMask mid = ia & ~(fci::StringMask{1} << p);
          for (std::size_t q = 0; q < n; ++q) {
            if (mid & (fci::StringMask{1} << q)) continue;
            const int s2 = fci::create_sign(mid, static_cast<int>(q));
            const fci::StringMask ja = mid | (fci::StringMask{1} << q);
            const std::size_t hja = sa.irrep_of(ja);
            const std::size_t bj = block_of_halpha_[hja];
            if (bj == kNone) continue;
            const auto& blkj = space.blocks()[bj];
            const std::size_t colj = sa.address(ja);
            // Remote gather of the J_a column; the outcome is ignored by
            // design (no retransmission in the MOC baseline).
            (void)ddi_->one_sided(pv::OneSided::kGet, r,
                                  dist_.owner(bj, colj), double(blkj.nb));
            const double* ccol = c.data() + blkj.offset + colj * blkj.nb;
            const double sa_sign = s1 * s2;
            // Beta part: sigma(I_b) += (pq|rs) * signs * C(J_b).
            for (std::size_t hkb = 0; hkb < bm1.num_irreps(); ++hkb) {
              for (std::size_t ikb = 0; ikb < bm1.count(hkb); ++ikb) {
                const auto& blist = btable.list(hkb, ikb);
                for (const fci::Creation& cs : blist) {
                  if (cs.irrep != blkj.hbeta) continue;
                  const double cj = ccol[cs.address];
                  if (cj == 0.0) continue;
                  for (const fci::Creation& cr : blist) {
                    if (cr.irrep != blk.hbeta) continue;
                    scol[cr.address] +=
                        sa_sign * cr.sign * cs.sign *
                        eri(static_cast<std::size_t>(p), q, cr.orbital,
                            cs.orbital) *
                        cj;
                    stats.indexed_ops += 1.0;
                  }
                }
              }
            }
          }
        }
      }
    }
  };

  const double t0 = ddi_->barrier();
  const double comm0 = ddi_->comm_words();
  ddi_->for_ranks([&](std::size_t r) {
    const double tr0 = ddi_->now(r);
    fci::SigmaStats stats;
    rank_body(r, stats);
    ddi_->charge(r, {.indexed_words = stats.indexed_ops});
    slot_stats_[r].stats += stats;
    rank_span("mixed_moc", r, tr0);
  });
  const double t1 = ddi_->barrier();
  record_window(breakdown_.mixed, "mixed", t0, t1);
  breakdown_.load_imbalance += ddi_->imbalance();
  breakdown_.mixed_comm_words += ddi_->comm_words() - comm0;
}

// ---------------------------------------------------------------------------
// One sigma
// ---------------------------------------------------------------------------

void ParallelSigma::apply_dgemm(std::span<const double> c,
                                std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  // Absorb any deaths declared at earlier barriers before handing out
  // column ownership for this sigma (no-op while every rank is alive).
  maybe_redistribute();

  // A vector of exact transpose parity takes the "Vector Symm." shortcut
  // (paper Table 3): the beta side folds its own transpose into sigma, and
  // that one distributed transpose replaces the whole alpha-side phase.
  const int parity = space.transpose_parity(c);
  if (space.nbeta() >= 1)
    beta_side(c, sigma, /*moc_kernel=*/false, parity);
  if (parity == 0 && space.nalpha() >= 1)
    alpha_side(c, sigma, /*moc_kernel=*/false);
  mixed_dgemm(c, sigma);
}

void ParallelSigma::apply_moc(std::span<const double> c,
                              std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  maybe_redistribute();
  if (ctx_.space().nbeta() >= 1)
    beta_side(c, sigma, /*moc_kernel=*/true, /*parity=*/0);
  if (ctx_.space().nalpha() >= 1) alpha_side(c, sigma, /*moc_kernel=*/true);
  mixed_moc(c, sigma);
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
  record_window(breakdown_.total, "sigma", start, end,
                obs::trace_args({{"n", static_cast<double>(breakdown_.count)},
                                 {"comm_words", comm},
                                 {"flops", flops}}),
                "sigma");
}

}  // namespace xfci::fcp
