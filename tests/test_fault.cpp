// Fault-injection and recovery tests: FaultPlan determinism, dead-rank
// semantics of the simulated backend (frozen clocks, exclusion from
// scheduling and barriers), one-sided retransmission, task reassignment
// after a rank death in both backends, and the full solve surviving a
// seeded failure scenario with the recovery overhead visible in the phase
// breakdown.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "chem/molecule.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "parallel/ddi.hpp"
#include "pool_harness.hpp"
#include "scf/scf.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;
namespace pv = xfci::pv;

namespace {

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

}  // namespace

TEST(FaultPlan, SameSeedSameEventSequence) {
  pv::FaultPlan a, b;
  a.randomize(1234, 0.25, 0.10, 1e-6);
  b.randomize(1234, 0.25, 0.10, 1e-6);
  std::size_t drops = 0, delays = 0;
  for (std::size_t rank = 0; rank < 6; ++rank)
    for (std::size_t op = 1; op <= 300; ++op) {
      const auto da = a.on_one_sided(rank, op);
      const auto db = b.on_one_sided(rank, op);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_DOUBLE_EQ(da.delay, db.delay);
      drops += da.drop ? 1 : 0;
      delays += da.delay > 0.0 ? 1 : 0;
    }
  // 1800 draws at p = 0.25 / 0.10: the counts must sit near expectation.
  EXPECT_GT(drops, 300u);
  EXPECT_LT(drops, 600u);
  EXPECT_GT(delays, 90u);
  EXPECT_LT(delays, 280u);
}

TEST(FaultPlan, DecisionsAreOrderIndependent) {
  pv::FaultPlan plan;
  plan.randomize(99, 0.3);
  // Querying in reverse (or repeatedly) gives the same fate per (rank, op):
  // the draw is a pure hash, not a stream.
  const auto first = plan.on_one_sided(3, 17);
  for (std::size_t op = 100; op > 0; --op) plan.on_one_sided(2, op);
  const auto again = plan.on_one_sided(3, 17);
  EXPECT_EQ(first.drop, again.drop);
  EXPECT_DOUBLE_EQ(first.delay, again.delay);
}

TEST(Machine, OpTriggeredDeathFreezesClockAndLeavesScheduling) {
  const xfci::x1::CostModel cm;
  pv::FaultPlan plan;
  plan.kill_rank_at_op(1, 1);
  auto m = pv::make_simulated_ddi(4, cm, plan);

  // Rank 1 dies issuing its first one-sided op; the op is not delivered.
  EXPECT_EQ(m->one_sided(pv::OneSided::kGet, 1, 0, 10.0),
            pv::OpOutcome::kDropped);
  EXPECT_FALSE(m->alive(1));
  EXPECT_EQ(m->num_alive(), 3u);
  EXPECT_DOUBLE_EQ(m->now(1), 0.0);

  // Its frozen clock (0.0) must never win the DLB tie-break; the winner
  // pays the claim's round trip.
  m->charge(0, {.seconds = 1.0});
  m->charge(2, {.seconds = 2.0});
  m->charge(3, {.seconds = 3.0});
  EXPECT_EQ(xfci::test::first_claimant(*m), 0u);
  EXPECT_NEAR(m->now(0), 1.0 + cm.dlb_latency, 1e-12);

  // Charges to a dead rank are ignored; the clock stays frozen.
  m->charge(1, {.seconds = 5.0});
  EXPECT_DOUBLE_EQ(m->now(1), 0.0);

  // Barrier and imbalance run over survivors only.
  const double t = m->barrier();
  EXPECT_GE(t, 3.0);
  EXPECT_NEAR(m->imbalance(), 2.0 - cm.dlb_latency, 1e-12);
  EXPECT_DOUBLE_EQ(m->now(1), 0.0);
  EXPECT_DOUBLE_EQ(m->now(0), m->now(2));
  EXPECT_GE(m->elapsed(), 3.0);
}

TEST(Machine, TimeTriggeredDeathDeclaredAtBarrier) {
  pv::FaultPlan plan;
  plan.kill_rank_at_time(2, 0.5);
  auto m = pv::make_simulated_ddi(3, {}, plan);
  m->charge(2, {.seconds = 1.0});  // past the trigger...
  EXPECT_TRUE(m->alive(2));        // ...but death waits for the barrier
  m->barrier();
  EXPECT_FALSE(m->alive(2));
  EXPECT_EQ(m->num_alive(), 2u);
}

TEST(Machine, DropAndDelayAccounting) {
  pv::FaultPlan plan;
  plan.drop_op(0, 1).delay_op(0, 2, 1e-3);
  auto m = pv::make_simulated_ddi(2, {}, plan);

  EXPECT_EQ(m->one_sided(pv::OneSided::kGet, 0, 1, 8.0),
            pv::OpOutcome::kDropped);
  EXPECT_EQ(m->counters(0).ops_dropped, 1u);
  const double before = m->now(0);
  EXPECT_EQ(m->one_sided(pv::OneSided::kGet, 0, 1, 8.0),
            pv::OpOutcome::kDelivered);
  EXPECT_EQ(m->counters(0).ops_delayed, 1u);
  EXPECT_GE(m->now(0) - before, 1e-3);
  // Subsequent ops are clean.
  EXPECT_EQ(m->one_sided(pv::OneSided::kAcc, 0, 1, 8.0),
            pv::OpOutcome::kDelivered);
}

TEST(Machine, StragglerStretchesCharges) {
  pv::FaultPlan plan;
  plan.slow_rank(1, 4.0);
  auto m = pv::make_simulated_ddi(2, {}, plan);
  m->charge(0, {.seconds = 1.0});
  m->charge(1, {.seconds = 1.0});
  EXPECT_DOUBLE_EQ(m->now(0), 1.0);
  EXPECT_DOUBLE_EQ(m->now(1), 4.0);
}

TEST(Machine, EveryRankDeadAborts) {
  // Both ranks crash issuing their first one-sided op.
  pv::FaultPlan plan;
  plan.kill_rank_at_op(0, 1).kill_rank_at_op(1, 1);
  auto m = pv::make_simulated_ddi(2, {}, plan);
  m->one_sided(pv::OneSided::kGet, 0, 1, 1.0);
  m->one_sided(pv::OneSided::kGet, 1, 0, 1.0);
  EXPECT_EQ(m->num_alive(), 0u);
  EXPECT_THROW(xfci::test::first_claimant(*m), xfci::Error);
  EXPECT_THROW(m->barrier(), xfci::Error);
  EXPECT_THROW(m->elapsed(), xfci::Error);
}

TEST(FaultRecovery, SigmaSurvivesDropsAndDelaysBitwise) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.randomize(7, 0.02, 0.02, 2e-6);
  fcp::ParallelSigma op(ctx, faulty);
  std::vector<double> s(c.size());
  op.apply(c, s);

  // No rank died, so the distribution never changed: the numerics must be
  // bitwise identical to the fault-free run -- faults only cost time.
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], s_clean[i]);
  EXPECT_GT(op.breakdown().ops_retried, 0u);
  EXPECT_GT(op.breakdown().recovery, 0.0);
  EXPECT_EQ(op.breakdown().ranks_lost, 0u);
  // The retransmissions show up in the machine's drop counters too.
  std::size_t dropped = 0;
  for (std::size_t r = 0; r < 8; ++r)
    dropped += op.ddi().counters(r).ops_dropped;
  EXPECT_GT(dropped, 0u);
  // Timeouts cost simulated time.
  EXPECT_GT(op.ddi().elapsed(), op_clean.ddi().elapsed());
}

TEST(FaultRecovery, RankDeathMidSigmaIsReassignedAndRedistributed) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.kill_rank_at_op(3, 25);  // dies mid mixed-spin task
  fcp::ParallelSigma op(ctx, faulty);
  std::vector<double> s(c.size());
  op.apply(c, s);

  EXPECT_FALSE(op.ddi().alive(3));
  EXPECT_EQ(op.breakdown().ranks_lost, 1u);
  EXPECT_GE(op.breakdown().tasks_reassigned, 1u);
  EXPECT_GT(op.breakdown().recovery, 0.0);
  // Graceful degradation: the dead rank's columns moved to survivors.
  EXPECT_EQ(op.distribution().local_words(3), 0u);
  double dmax = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    dmax = std::max(dmax, std::abs(s[i] - s_clean[i]));
  EXPECT_LT(dmax, 1e-12);

  // A second sigma through the degraded machine still works.
  std::vector<double> s2(c.size());
  op.apply(c, s2);
  dmax = 0.0;
  for (std::size_t i = 0; i < s2.size(); ++i)
    dmax = std::max(dmax, std::abs(s2[i] - s_clean[i]));
  EXPECT_LT(dmax, 1e-12);

  // So does the Ms = 0 shortcut on c's symmetric part: its parity fold
  // reads the survivors' redistributed column split, and it adds nothing
  // to the alpha-side row.
  std::vector<double> pc;
  space.transpose_vector(c, pc);
  std::vector<double> even(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) even[i] = c[i] + pc[i];
  ASSERT_EQ(space.transpose_parity(even), 1);
  op_clean.apply(even, s_clean);
  const double alpha_side = op.breakdown().alpha_side;
  op.apply(even, s2);
  EXPECT_EQ(op.breakdown().alpha_side, alpha_side);
  dmax = 0.0;
  for (std::size_t i = 0; i < s2.size(); ++i)
    dmax = std::max(dmax, std::abs(s2[i] - s_clean[i]));
  EXPECT_LT(dmax, 1e-12);
}

TEST(FaultRecovery, RankDeathBetweenStaticPhasesMovesTheAlphaSideRows) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());
  ASSERT_EQ(space.transpose_parity(c), 0);  // the alpha side runs

  xfci::obs::Tracer tracer;
  tracer.enable(0);
  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  clean.tracer = &tracer;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);
  // Rank 3 dies in the middle of the beta side's kernels, so the barrier
  // that ends them declares it dead before the alpha side starts.
  double t = -1.0;
  for (const auto& e : tracer.events(tracer.control_track()))
    if (e.name == "beta_side") {
      t = 0.5 * (e.t0 + e.t1);
      break;
    }
  ASSERT_GT(t, 0.0);

  fcp::ParallelOptions faulty = clean;
  faulty.tracer = nullptr;
  faulty.faults.kill_rank_at_time(3, t);
  fcp::ParallelSigma op(ctx, faulty);
  std::vector<double> s(c.size());
  op.apply(c, s);

  EXPECT_FALSE(op.ddi().alive(3));
  EXPECT_EQ(op.breakdown().ranks_lost, 1u);
  // The alpha side splits its rows over the survivors, so every kernel
  // flop is still charged (a split that kept rank 3 drops its share)...
  EXPECT_EQ(op.ddi().totals().flops, op_clean.ddi().totals().flops);
  // ...and sigma is the clean one bit for bit.
  EXPECT_EQ(std::memcmp(s.data(), s_clean.data(), s.size() * sizeof(double)),
            0);
}

TEST(FaultRecovery, FullSolveConvergesThroughKillAndDrop) {
  // The acceptance scenario: a seeded plan kills one rank mid-sigma and
  // drops an accumulate, yet the solve converges to the fault-free energy
  // with the recovery overhead visible in the Table-3-style breakdown.
  const auto& tables = be_tables();
  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  const auto ref = fcp::run_parallel_fci(tables, 2, 2, 0, clean);
  ASSERT_TRUE(ref.solve.converged);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.kill_rank_at_op(2, 40).drop_op(0, 7);
  const auto res = fcp::run_parallel_fci(tables, 2, 2, 0, faulty);
  EXPECT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.solve.energy, ref.solve.energy, 1e-10);
  EXPECT_EQ(res.metrics.per_sigma.ranks_lost, 1u);
  EXPECT_GE(res.metrics.per_sigma.tasks_reassigned, 1u);
  EXPECT_GE(res.metrics.per_sigma.ops_retried, 1u);
  EXPECT_GT(res.metrics.per_sigma.recovery, 0.0);
}

TEST(FaultRecovery, ThreadsBackendReassignsDeadWorkersChunks) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 4;
  clean.execution = fcp::ExecutionMode::kThreads;
  clean.num_threads = 4;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  // Every spawned worker crashes on its first claimed chunk; the calling
  // thread survives and (with the inline replacements) drains the pool.
  faulty.faults.kill_worker_at_claim(1, 1)
      .kill_worker_at_claim(2, 1)
      .kill_worker_at_claim(3, 1);
  // A death only fires if a spawned worker claims a chunk, and on a
  // loaded (or single-core) host the calling thread can drain the whole
  // pool before the others wake up.  Retry until a worker really died;
  // every attempt must still be bitwise identical to the clean run.
  std::size_t reassigned = 0;
  double recovery = 0.0;
  for (int attempt = 0; attempt < 50 && reassigned == 0; ++attempt) {
    fcp::ParallelSigma op(ctx, faulty);
    std::vector<double> s(c.size());
    op.apply(c, s);
    // Ordered commit: bitwise identical to the fault-free threaded run.
    for (std::size_t i = 0; i < s.size(); ++i) ASSERT_EQ(s[i], s_clean[i]);
    reassigned = op.breakdown().tasks_reassigned;
    recovery = op.breakdown().recovery;
  }
  EXPECT_GE(reassigned, 1u);
  EXPECT_GT(recovery, 0.0);
}

TEST(FaultRecovery, EveryRankKilledAbortsCleanly) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  for (std::size_t r = 0; r < 3; ++r)
    opt.faults.kill_rank_at_op(r, 5 + r);
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> s(c.size());
  EXPECT_THROW(op.apply(c, s), xfci::Error);
}
