#include "fci_parallel/phase_engines.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "fci/fci.hpp"
#include "linalg/gemm.hpp"

namespace xfci::fcp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Retransmissions allowed per one-sided op before the run aborts.
constexpr std::size_t kMaxOpRetries = 8;

// Transposed local copies of one rank's column range of every block:
// tc[b] is an (nb x width) matrix (column j = beta string j, rows = the
// rank's alpha columns); ts[b] is the matching sigma buffer.
struct TransposedLocal {
  std::vector<std::vector<double>> tc, ts;
  std::vector<fci::ColumnView> views;  // indexed by beta irrep
};

TransposedLocal build_beta_local(const PhaseState& s, std::size_t rank,
                                 std::span<const double> c) {
  const auto& blocks = s.ctx.space().blocks();
  TransposedLocal t;
  t.tc.resize(blocks.size());
  t.ts.resize(blocks.size());
  t.views.assign(s.ctx.space().group().num_irreps(), fci::ColumnView{});
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto [c0, c1] = s.dist.columns(b, rank);
    const std::size_t w = c1 - c0;
    if (w == 0) continue;
    const std::size_t nb = blocks[b].nb;
    auto& tc = t.tc[b];
    tc.resize(nb * w);
    const double* src = c.data() + blocks[b].offset + c0 * nb;
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < nb; ++j) tc[j * w + i] = src[i * nb + j];
    t.ts[b].assign(nb * w, 0.0);
    t.views[blocks[b].hbeta] =
        fci::ColumnView{tc.data(), t.ts[b].data(), w};
  }
  return t;
}

void writeback_beta_local(const PhaseState& s, std::size_t rank,
                          const TransposedLocal& t, std::span<double> sigma) {
  const auto& blocks = s.ctx.space().blocks();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto [c0, c1] = s.dist.columns(b, rank);
    const std::size_t w = c1 - c0;
    if (w == 0 || t.ts[b].empty()) continue;
    const std::size_t nb = blocks[b].nb;
    double* dst = sigma.data() + blocks[b].offset + c0 * nb;
    const auto& ts = t.ts[b];
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < nb; ++j) dst[i * nb + j] += ts[j * w + i];
  }
}

// One static kernel invocation's charges: DGEMM shapes, the gather/scatter
// word traffic, the indexed multiply-adds, and the MOC element generation.
// On a cost-modeling backend this advances the rank's clock; on a real
// backend only the (exact, integer-valued) flop counts register.
void charge_kernel_stats(const PhaseState& s, std::size_t rank,
                         const fci::SigmaStats& stats) {
  for (const auto& sh : stats.dgemm_shapes)
    s.ddi.charge_dgemm(rank, sh[0], sh[1], sh[2]);
  s.ddi.charge_indexed(rank, stats.gather_words + stats.scatter_words);
  s.ddi.charge_daxpy_flops(rank, 2.0 * stats.indexed_ops);
  s.ddi.charge_seconds(rank,
                       s.options.cost.moc_element * stats.element_count);
}

// One distributed transpose's charges: each rank exchanges the share of its
// `dist` words that the other ranks own, and makes `copies` indexed passes
// over its words.
void charge_transpose(const PhaseState& s, const ColumnDistribution& dist,
                      double copies) {
  const std::size_t nranks = s.ddi.num_ranks();
  for (std::size_t r = 0; r < nranks; ++r) {
    const double words = static_cast<double>(dist.local_words(r));
    s.ddi.alltoall(r, nranks - 1, words * static_cast<double>(nranks - 1) /
                                      static_cast<double>(nranks));
    s.ddi.charge_indexed(r, copies * words);
  }
}

// Per-rank phase span on the rank's own clock domain; call at the end of
// a for_ranks body with the entry timestamp.
void rank_span(const PhaseState& s, const char* name, std::size_t r,
               double t0) {
  if (obs::Tracer* tr = s.ddi.tracer())
    tr->span(r, "phase", name, t0, s.ddi.now(r));
}

}  // namespace

void record_window(pv::Ddi& ddi, double& row, const char* name, double t0,
                   double t1, std::string args, const char* category) {
  row += t1 - t0;
  if (obs::Tracer* tr = ddi.tracer())
    tr->span(tr->control_track(), category, name, t0, t1, std::move(args));
}

// ---------------------------------------------------------------------------
// RecoveryEngine
// ---------------------------------------------------------------------------

pv::OpOutcome RecoveryEngine::robust_one_sided(bool accumulate,
                                               std::size_t rank,
                                               std::size_t owner,
                                               double words) {
  for (std::size_t attempt = 0;; ++attempt) {
    if (!s_.ddi.alive(rank) || !s_.ddi.alive(owner))
      return pv::OpOutcome::kDropped;
    const pv::OpOutcome out = accumulate
                                  ? s_.ddi.acc(rank, owner, words)
                                  : s_.ddi.get(rank, owner, words);
    if (out == pv::OpOutcome::kDelivered) return out;
    // The drop is terminal if either end just died (op-count triggers fire
    // mid-op); otherwise it is transient: the requester waits out the ack
    // timeout and retransmits.  Dropped ops are lost before the target
    // applies their payload, so a retransmit lands exactly once.
    if (!s_.ddi.alive(rank) || !s_.ddi.alive(owner))
      return pv::OpOutcome::kDropped;
    XFCI_REQUIRE(attempt < kMaxOpRetries,
                 "one-sided op exceeded its retransmission budget");
    s_.ddi.charge_seconds(rank, s_.options.cost.ack_timeout);
    s_.breakdown.recovery += s_.options.cost.ack_timeout;
    s_.ddi.record_retransmit(rank);
    if (obs::Tracer* tr = s_.ddi.tracer())
      tr->instant(rank, "recovery", "retransmit", s_.ddi.now(rank),
                  obs::trace_args({{"owner", static_cast<double>(owner)},
                                   {"words", words}}));
  }
}

void RecoveryEngine::maybe_redistribute() {
  // Loop: the recovery barriers below may declare further (time-triggered)
  // deaths, which then need their own redistribution pass.
  for (;;) {
    const std::vector<std::uint8_t> alive = s_.ddi.alive_mask();
    if (alive == s_.dist_alive) return;
    std::size_t newly_dead = 0;
    double lost_words = 0.0;
    for (std::size_t r = 0; r < alive.size(); ++r) {
      if (alive[r] == 0 && s_.dist_alive[r] != 0) {
        ++newly_dead;
        lost_words += static_cast<double>(s_.dist.local_words(r));
      }
    }
    const double t0 = s_.ddi.barrier();
    if (obs::Tracer* tr = s_.ddi.tracer()) {
      for (std::size_t r = 0; r < alive.size(); ++r)
        if (alive[r] == 0 && s_.dist_alive[r] != 0)
          tr->instant(tr->control_track(), "recovery", "rank_lost", t0,
                      obs::trace_args({{"rank", static_cast<double>(r)}}));
    }
    s_.dist.redistribute(alive);
    s_.dist_alive = alive;
    if (newly_dead > 0) {
      s_.breakdown.ranks_lost += newly_dead;
      // Graceful degradation: each survivor refetches its share of the
      // dead ranks' coefficient blocks (from the lowest surviving rank,
      // which serves the recovery copy) and installs it locally.
      const std::size_t num_alive = s_.ddi.num_alive();
      const double share = lost_words / static_cast<double>(num_alive);
      std::size_t root = 0;
      while (root < alive.size() && alive[root] == 0) ++root;
      for (std::size_t r = 0; r < alive.size(); ++r) {
        if (alive[r] == 0) continue;
        robust_one_sided(false, r, root, share);
        s_.ddi.charge_indexed(r, share);
      }
    }
    const double t1 = s_.ddi.barrier();
    record_window(s_.ddi, s_.breakdown.recovery, "redistribute", t0, t1,
                  obs::trace_args(
                      {{"ranks_lost", static_cast<double>(newly_dead)}}));
  }
}

void RecoveryEngine::adopt_survivor_split() {
  const std::vector<std::uint8_t> alive = s_.ddi.alive_mask();
  if (alive == s_.dist_alive) return;
  s_.dist.redistribute(alive);
  s_.dist_alive = alive;
}

// ---------------------------------------------------------------------------
// SameSpinEngine
// ---------------------------------------------------------------------------

void SameSpinEngine::beta_side(const fci::SigmaContext& tctx,
                               std::span<const double> c,
                               std::span<double> sigma, bool moc_kernel,
                               int parity) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  const std::size_t nranks = s_.ddi.num_ranks();

  // Phase: local transposes in ("Vector Symm.").  Each rank touches only
  // its own column range, so the region runs concurrently where workers
  // are real.
  const double t0 = s_.ddi.barrier();
  std::vector<TransposedLocal> locals(nranks);
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    locals[r] = build_beta_local(s_, r, c);
    s_.ddi.charge_indexed(r, static_cast<double>(s_.dist.local_words(r)));
    rank_span(s_, "transpose_in", r, tr0);
  });
  const double t1 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.transpose, "transpose_in", t0, t1);

  // Phase: beta-index same-spin + one-electron, zero communication
  // (paper Fig. 2a, the "Beta-beta" row of Table 3).
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    fci::SigmaStats stats;
    if (moc_kernel)
      fci::moc_same_spin_columns(tctx, locals[r].views, stats);
    else
      fci::sigma_same_spin_columns(tctx, locals[r].views, stats);
    fci::sigma_one_electron_columns(tctx, locals[r].views, stats);
    charge_kernel_stats(s_, r, stats);
    rank_span(s_, "beta_side", r, tr0);
  });
  const double t2 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.beta_side, "beta_side", t1, t2);

  // Phase: transpose back (rank-disjoint sigma writes).
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    writeback_beta_local(s_, r, locals[r], sigma);
    s_.ddi.charge_indexed(r, static_cast<double>(s_.dist.local_words(r)));
    rank_span(s_, "transpose_out", r, tr0);
  });
  const double t3 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.transpose, "transpose_out", t2, t3);
  if (parity == 0) return;

  // Phase: the Ms = 0 fold, sigma += parity * P z.  Rank r's ts[b] holds
  // z(columns [c0, c1) of block b) transposed, which is P z on rows
  // [c0, c1) of block P(b), the block whose alpha irrep is b's beta irrep:
  // column by column a contiguous run no other rank writes.
  const double t4 = s_.ddi.barrier();
  charge_transpose(s_, s_.dist, 2.0);
  const double eps = static_cast<double>(parity);
  s_.ddi.for_ranks([&](std::size_t r) {
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const auto [c0, c1] = s_.dist.columns(b, r);
      const fci::CiBlock& pb = *space.block_for_alpha(space.blocks()[b].hbeta);
      const double* ts = locals[r].ts[b].data();
      for (std::size_t j = 0; j < pb.na; ++j)
        for (std::size_t i = c0; i < c1; ++i)
          sigma[pb.offset + j * pb.nb + i] += eps * *ts++;
    }
  });
  const double t5 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.transpose, "parity_fold", t4, t5);
}

void SameSpinEngine::alpha_side(std::span<const double> c,
                                std::span<double> sigma, bool moc_kernel) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  const std::size_t nranks = s_.ddi.num_ranks();

  if (moc_kernel) {
    // MOC: the whole vector is gathered onto every rank (collective
    // gather) and the alpha-side element generation is replicated; each
    // rank updates only its own sigma columns.
    const double t0 = s_.ddi.barrier();
    const double remote =
        static_cast<double>(space.dimension()) *
        static_cast<double>(nranks - 1) / static_cast<double>(nranks);
    for (std::size_t r = 0; r < nranks; ++r)
      s_.ddi.alltoall(r, nranks - 1, remote);
    const double t1 = s_.ddi.barrier();
    record_window(s_.ddi, s_.breakdown.transpose, "moc_gather", t0, t1);

    s_.ddi.for_ranks([&](std::size_t r) {
      const double tr0 = s_.ddi.now(r);
      std::vector<fci::ColumnView> views(space.group().num_irreps());
      for (std::size_t b = 0; b < space.blocks().size(); ++b) {
        const auto& blk = space.blocks()[b];
        const auto [c0, c1] = s_.dist.columns(b, r);
        views[blk.halpha] =
            fci::ColumnView{c.data() + blk.offset, sigma.data() + blk.offset,
                            blk.nb, c0, c1};
      }
      fci::SigmaStats stats;
      fci::moc_same_spin_columns(s_.ctx, views, stats);
      fci::sigma_one_electron_columns(s_.ctx, views, stats);
      charge_kernel_stats(s_, r, stats);
      rank_span(s_, "alpha_side", r, tr0);
    });
    const double t2 = s_.ddi.barrier();
    record_window(s_.ddi, s_.breakdown.alpha_side, "alpha_side", t1, t2);
    return;
  }

  // DGEMM path: rank r owns beta rows [r0, r1) of every alpha column -- the
  // transposed space's column split, which a distributed transpose would
  // deliver -- and works on them where they lie in c (column stride nb).
  // The transposes are charged, not performed.
  const fci::CiSpace& tspace = space.transposed();
  ColumnDistribution rows(tspace, nranks);
  if (s_.ddi.num_alive() < nranks) rows.redistribute(s_.ddi.alive_mask());

  const double t0 = s_.ddi.barrier();
  charge_transpose(s_, rows, 1.0);
  const double t1 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.transpose, "transpose_fwd", t0, t1);

  // Static alpha-index work: the kernels accumulate into zeroed scratch
  // rows, which the rank then adds into sigma (no other rank touches those
  // rows), so sigma gets each element's alpha-side sum in one addition.
  std::vector<double> scratch(sigma.size(), 0.0);
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    const double words = static_cast<double>(rows.local_words(r));
    std::vector<fci::ColumnView> views(space.group().num_irreps());
    for (std::size_t b = 0; b < tspace.blocks().size(); ++b) {
      const auto [r0, r1] = rows.columns(b, r);
      const auto& blk = *space.block_for_alpha(tspace.blocks()[b].hbeta);
      views[blk.halpha] = {.c = c.data() + blk.offset + r0,
                           .sigma = scratch.data() + blk.offset + r0,
                           .nrows = r1 - r0,
                           .stride = blk.nb};
    }
    s_.ddi.charge_indexed(r, words);
    fci::SigmaStats stats;
    fci::sigma_same_spin_columns(s_.ctx, views, stats);
    fci::sigma_one_electron_columns(s_.ctx, views, stats);
    charge_kernel_stats(s_, r, stats);
    for (const fci::CiBlock& blk : space.blocks()) {
      const fci::ColumnView& v = views[blk.halpha];
      double* dst = sigma.data() + (v.sigma - scratch.data());
      for (std::size_t i = 0; i < blk.na * blk.nb; i += blk.nb)
        for (std::size_t k = i; k < i + v.nrows; ++k) dst[k] += v.sigma[k];
    }
    s_.ddi.charge_indexed(r, words);
    rank_span(s_, "alpha_side", r, tr0);
  });
  const double t2 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.alpha_side, "alpha_side", t1, t2);

  charge_transpose(s_, s_.dist, 1.0);
  const double t3 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.transpose, "transpose_back", t2, t3);
}

// ---------------------------------------------------------------------------
// MixedSpinEngine
// ---------------------------------------------------------------------------

std::size_t MixedSpinEngine::stage_words(std::size_t it) const {
  const auto [hk, ik] = items_[it];
  std::size_t words = 0;
  for (const fci::Creation& cr : s_.ctx.alpha_create()->list(hk, ik)) {
    const std::size_t b = s_.block_of_halpha[cr.irrep];
    if (b != kNone) words += s_.ctx.space().blocks()[b].nb;
  }
  return words;
}

bool MixedSpinEngine::stage_item(std::size_t it, std::size_t worker,
                                 std::span<const double> c,
                                 std::span<double> payload) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension(),
              "staged C vector must span the CI dimension");
  const fci::CiSpace& space = s_.ctx.space();
  const auto [hk, ik] = items_[it];
  const auto& alist = s_.ctx.alpha_create()->list(hk, ik);
  WorkerScratch& scratch = scratch_[worker];

  // The gathered columns mirror the payload's layout.
  std::fill(payload.begin(), payload.end(), 0.0);
  scratch.gather.resize(payload.size());
  scratch.ccols.assign(alist.size(), nullptr);
  scratch.scols.assign(alist.size(), nullptr);

  // One-sided gather of the reachable C columns (DDI_GET).
  std::size_t off = 0;
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    const std::size_t b = s_.block_of_halpha[alist[ai].irrep];
    if (b == kNone) continue;
    const auto& blk = space.blocks()[b];
    const std::size_t col = alist[ai].address;
    if (!deliver(false, worker, b, col)) return false;
    const double* src = c.data() + blk.offset + col * blk.nb;
    std::copy(src, src + blk.nb, scratch.gather.begin() + off);
    scratch.ccols[ai] = scratch.gather.data() + off;
    scratch.scols[ai] = payload.data() + off;
    off += blk.nb;
  }
  XFCI_DCHECK(off == payload.size(),
              "mixed-spin payload must be exactly stage_words long");

  // Local dense work (Eqs. 4-6).
  fci::SigmaStats stats;
  fci::sigma_mixed_spin_core(s_.ctx, hk, ik, scratch.ccols, scratch.scols,
                             stats);
  for (const auto& sh : stats.dgemm_shapes) {
    s_.ddi.charge_dgemm(worker, sh[0], sh[1], sh[2]);
    // D build + E scatter: one gather and one scatter pass over each
    // intermediate matrix.
    s_.ddi.charge_indexed(worker,
                          2.0 * static_cast<double>(sh[0] * sh[1]));
  }

  // One-sided accumulate of the sigma columns (DDI_ACC).  Two-phase
  // commit: the payload stays staged and is applied only once every
  // accumulate of the item has been delivered, so a worker death mid-item
  // leaves sigma untouched and the reassigned item re-sends everything.
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    const std::size_t b = s_.block_of_halpha[alist[ai].irrep];
    if (b != kNone && !deliver(true, worker, b, alist[ai].address))
      return false;
  }
  return true;
}

bool MixedSpinEngine::deliver(bool accumulate, std::size_t worker,
                              std::size_t b, std::size_t col) {
  const double words = double(s_.ctx.space().blocks()[b].nb);
  for (;;) {
    std::size_t owner = s_.dist.owner(b, col);
    if (!s_.ddi.alive(owner)) {
      // The column's owner died: redistribute, then retarget.
      recovery_.maybe_redistribute();
      owner = s_.dist.owner(b, col);
    }
    if (recovery_.robust_one_sided(accumulate, worker, owner, words) ==
        pv::OpOutcome::kDelivered)
      return true;
    if (!s_.ddi.alive(worker)) return false;  // the worker itself died
  }
}

void MixedSpinEngine::commit_item(std::size_t it,
                                  std::span<const double> payload) {
  XFCI_DCHECK(sigma_.size() == s_.ctx.space().dimension(),
              "committed sigma must span the CI dimension");
  const fci::CiSpace& space = s_.ctx.space();
  const auto [hk, ik] = items_[it];
  std::size_t off = 0;
  for (const fci::Creation& cr : s_.ctx.alpha_create()->list(hk, ik)) {
    const std::size_t b = s_.block_of_halpha[cr.irrep];
    if (b == kNone) continue;
    const auto& blk = space.blocks()[b];
    double* dst = sigma_.data() + blk.offset + cr.address * blk.nb;
    const double* src = payload.data() + off;
    for (std::size_t j = 0; j < blk.nb; ++j) dst[j] += src[j];
    off += blk.nb;
  }
  XFCI_DCHECK(off == payload.size(),
              "mixed-spin payload must be exactly stage_words long");
}

MixedSpinEngine::MixedSpinEngine(const PhaseState& s,
                                 RecoveryEngine& recovery)
    : s_(s),
      recovery_(recovery),
      items_([&s] {
        // Flatten the alpha (N-1)-string tasks.
        std::vector<std::pair<std::size_t, std::size_t>> items;
        const fci::CiSpace& space = s.ctx.space();
        if (space.nalpha() < 1 || space.nbeta() < 1) return items;
        const fci::StringSpace& am1 = *s.ctx.alpha_m1();
        for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
          for (std::size_t ik = 0; ik < am1.count(hk); ++ik)
            items.emplace_back(hk, ik);
        return items;
      }()),
      pool_(items_.size(), s.ddi.num_workers(), s.options.lb),
      scratch_(s.ddi.num_workers()) {
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
  hooks->on_worker_death = [this] { recovery_.maybe_redistribute(); };
  hooks->on_pool_start = [this](std::size_t) {
    // A rank process inherits the driver's GEMM thread-team pointer, but
    // the team's threads do not survive fork: run dense kernels serially.
    linalg::set_gemm_team(nullptr);
    // Deaths declared since the fork moved the driver's column split; take
    // it as a freshly forked rank would, without a second refetch.
    recovery_.adopt_survivor_split();
  };
  hooks_ = std::move(hooks);
}

void MixedSpinEngine::dgemm(std::span<const double> c,
                            std::span<double> sigma) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  if (items_.empty()) return;

  recovery_.maybe_redistribute();
  const double t0 = s_.ddi.barrier();
  const double comm0 = s_.ddi.comm_words();

  sigma_ = sigma;
  const pv::Ddi::PoolStats st = s_.ddi.run_pool(pool_, hooks_, c);
  sigma_ = {};
  s_.breakdown.tasks_reassigned += st.tasks_reassigned;
  s_.breakdown.recovery += st.recovery_seconds;

  const double t1 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.mixed, "mixed", t0, t1,
                obs::trace_args(
                    {{"tasks", static_cast<double>(pool_.num_chunks())},
                     {"items", static_cast<double>(items_.size())},
                     {"reassigned",
                      static_cast<double>(st.tasks_reassigned)}}));
  s_.breakdown.load_imbalance += s_.ddi.imbalance();
  s_.breakdown.mixed_comm_words += s_.ddi.comm_words() - comm0;
}

void MixedSpinEngine::moc(std::span<const double> c,
                          std::span<double> sigma) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  if (space.nalpha() < 1 || space.nbeta() < 1) return;
  const fci::StringSpace& sa = space.alpha();
  const fci::StringSpace& bm1 = *s_.ctx.beta_m1();
  const auto& btable = *s_.ctx.beta_create();
  const auto& eri = s_.ctx.ints().eri;
  const std::size_t n = space.norb();

  // Deaths declared earlier shrink the column split before the phase; the
  // MOC baseline implements no task-level recovery beyond that (it is the
  // historical practice the paper eliminates), so mid-phase faults only
  // show up in the accounting (dropped-op counters, frozen clocks).
  recovery_.maybe_redistribute();

  // Each rank computes its local sigma columns: for every alpha single
  // excitation J_a -> I_a it gathers the remote J_a column (no reuse across
  // excitations -- the Table-1 communication count Nci * Na * (n - Na)),
  // then applies every beta single excitation as an indexed multiply-add.
  // Sigma writes are confined to the rank's own columns, so real backends
  // run ranks concurrently with no synchronization.
  auto rank_body = [&](std::size_t r, fci::SigmaStats& stats) {
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const auto& blk = space.blocks()[b];
      const auto [c0, c1] = s_.dist.columns(b, r);
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
            const std::size_t bj = s_.block_of_halpha[hja];
            if (bj == kNone) continue;
            const auto& blkj = space.blocks()[bj];
            const std::size_t colj = sa.address(ja);
            // Remote gather of the J_a column; the outcome is ignored by
            // design (no retransmission in the MOC baseline).
            (void)s_.ddi.get(r, s_.dist.owner(bj, colj), double(blkj.nb));
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

  const double t0 = s_.ddi.barrier();
  const double comm0 = s_.ddi.comm_words();
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    fci::SigmaStats stats;
    rank_body(r, stats);
    s_.ddi.charge_indexed(r, stats.indexed_ops);
    rank_span(s_, "mixed_moc", r, tr0);
  });
  const double t1 = s_.ddi.barrier();
  record_window(s_.ddi, s_.breakdown.mixed, "mixed", t0, t1);
  s_.breakdown.load_imbalance += s_.ddi.imbalance();
  s_.breakdown.mixed_comm_words += s_.ddi.comm_words() - comm0;
}

}  // namespace xfci::fcp
