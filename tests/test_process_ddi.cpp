// Tests for the multi-process DDI backend (parallel/process_ddi.hpp): the
// shm arena pool protocol across real fork boundaries, the persistent
// ranks (one pool program, forked once, many pools, idle between them),
// the failure domain (actual SIGKILLs mid-operation and mid-publish,
// watchdog kills, check-in deadline degradation, STONITH fencing of
// wedged ranks, deaths between pools), orphan hygiene (no leaked /dev/shm
// entries or rank processes on any path; stale-segment reaping is
// test_shm_reap.cpp's), and
// the end-to-end contract: the FCI sigma and solve are bitwise / 1e-10
// identical to the simulated backend even while live rank processes are
// being killed.
//
// gtest assertions inside PoolHooks::stage run in the forked rank and
// would be invisible to the parent test binary, so every check here is
// made parent-side (in commit, or after run_pool returns).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "parallel/process_ddi.hpp"
#include "parallel/shm_ipc.hpp"
#include "parallel/task_pool.hpp"
#include "pool_harness.hpp"
#include "process_host.hpp"
#include "scf/scf.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <dirent.h>
#endif

namespace pv = xfci::pv;
namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

namespace {

using xfci::test::PoolHarness;
using xfci::test::spin_micros;

/// Deadlines tightened from the production defaults so fencing paths run
/// in test time, but generous enough not to flake on a loaded machine.
pv::ProcessDdiParams fast_params() {
  pv::ProcessDdiParams p;
  p.task_deadline = 10.0;
  p.heartbeat_deadline = 10.0;
  p.spawn_deadline = 10.0;
  p.shutdown_deadline = 10.0;
  p.poll_micros = 100;
  return p;
}

/// Processes whose parent is this test process, zombies included: a rank
/// the backend killed but did not reap still counts.
std::size_t child_processes() {
  std::size_t n = 0;
#if defined(__linux__)
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/") + entry->d_name + "/stat");
    std::string line;
    std::getline(stat, line);
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    char state = 0;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == static_cast<long>(::getpid())) ++n;
  }
  ::closedir(dir);
#endif
  return n;
}

/// Sleeps until `ddi`'s clock passes `t` seconds.
void wait_until(const pv::Ddi& ddi, double t) {
  while (ddi.elapsed() <= t) spin_micros(10000);
}

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

std::vector<double> run_sigma(const xf::SigmaContext& ctx,
                              const fcp::ParallelOptions& opt,
                              std::span<const double> c) {
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> sigma(c.size());
  op.apply(c, sigma);
  return sigma;
}

}  // namespace

// ------------------------------------------------- pool protocol ----------

TEST(ProcessDdi, PoolResultsCrossAddressSpacesAndCommitInOrder) {
  XFCI_REQUIRE_PROCESS_HOST();
  auto ddi = pv::make_process_ddi(3, pv::FaultPlan{}, fast_params());
  EXPECT_STREQ(ddi->name(), "process");
  EXPECT_FALSE(ddi->models_cost());

  PoolHarness h(*ddi, 257);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(st.tasks_reassigned, 0u);
  EXPECT_EQ(ddi->num_alive(), 3u);

  // One-sided accounting crossed the fork boundary: one get and one acc
  // per item, recorded in the shared counters from the children.
  std::size_t gets = 0, accs = 0, dlb = 0;
  for (std::size_t r = 0; r < ddi->num_ranks(); ++r) {
    gets += ddi->counters(r).get_calls;
    accs += ddi->counters(r).acc_calls;
    dlb += ddi->counters(r).dlb_calls;
  }
  EXPECT_EQ(gets, 257u);
  EXPECT_EQ(accs, 257u);
  EXPECT_GE(dlb, h.pool.num_chunks());
  EXPECT_EQ(ddi->comm_words(), 257.0 * 8.0 + 2.0 * 257.0 * 8.0);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, SigkillMidPublishLeavesTornWriteAndIsReassigned) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 0's first chunk claim stages its first item into the item's
  // slot, poisons the slot's second half with NaN and dies by
  // raise(SIGKILL) with the seqlock odd: a genuinely torn shared-memory
  // write.  The seqlock/generation protocol must discard it and re-issue
  // the chunk.
  pv::FaultPlan plan;
  plan.kill_worker_at_claim(0, 1);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 128, /*stage_micros=*/500);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_GE(st.tasks_reassigned, 1u);
  EXPECT_FALSE(ddi->alive(0));
  EXPECT_TRUE(ddi->alive(1));
  EXPECT_EQ(ddi->num_alive(), 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, SigkillMidOneSidedOpIsDetectedAndRecovered) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 dies mid one-sided op (its 5th): the child SIGKILLs itself
  // inside ddi.one_sided(), mid-stage, and the parent's waitpid watchdog
  // pick up the corpse and reassign the chunk it was staging.
  pv::FaultPlan plan;
  plan.kill_rank_at_op(1, 5);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 128, /*stage_micros=*/500);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_GE(st.tasks_reassigned, 1u);
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_EQ(ddi->num_alive(), 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, WatchdogDeliversTimeTriggeredKills) {
  XFCI_REQUIRE_PROCESS_HOST();
  // FaultPlan time triggers map to the parent's watchdog SIGKILLing the
  // child pid from outside while the pool runs.
  pv::FaultPlan plan;
  plan.kill_rank_at_time(0, 0.2);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 96, /*stage_micros=*/20000);
  const auto st = h.run();  // pool outlives t = 0.2 s
  h.expect_all_items_committed_in_order();
  EXPECT_FALSE(ddi->alive(0));
  EXPECT_TRUE(ddi->alive(1));
  (void)st;  // rank 0 may die between chunks; reassignment is not forced
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, EntryBarrierDegradesToSurvivorsOnDeadline) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 wedges before checking in to the pool (in on_pool_start, so
  // it never sets its `entered` flag or ticks a heartbeat).  The check-in
  // deadline must fence it at the spawn deadline instead of hanging, and
  // the pool must complete on the survivor.
  auto params = fast_params();
  params.spawn_deadline = 0.3;
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, params);

  const std::size_t nitems = 64;
  pv::TaskPool pool(nitems, 2);
  std::vector<double> out(nitems, 0.0);
  auto hooks = std::make_shared<pv::Ddi::PoolHooks>();
  hooks->on_pool_start = [](std::size_t worker) {
    if (worker == 1)
      for (;;) spin_micros(10000);  // never checks in; fenced by the parent
  };
  hooks->stage_words = [](std::size_t) { return std::size_t{1}; };
  hooks->stage = [](std::size_t it, std::size_t, std::span<const double>,
                    std::span<double> payload) {
    payload[0] = 2.0 * static_cast<double>(it);
    return true;
  };
  hooks->commit = [&](std::size_t it, std::span<const double> payload) {
    out[it] = payload[0];
  };
  (void)ddi->run_pool(pool, hooks, {});

  for (std::size_t it = 0; it < nitems; ++it)
    EXPECT_EQ(out[it], 2.0 * static_cast<double>(it)) << "item " << it;
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_TRUE(ddi->alive(0));
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, TaskDeadlineFencesAWedgedClaimant) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 wedges *mid-chunk* (an infinite loop inside stage), with its
  // heartbeat silent.  The claimed-chunk deadline must STONITH-fence the
  // live-but-stuck process (a real SIGKILL) and reassign its chunk.
  auto params = fast_params();
  params.task_deadline = 0.4;
  params.heartbeat_deadline = 0.4;
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, params);

  const std::size_t nitems = 64;
  pv::TaskPool pool(nitems, 2);
  std::vector<double> out(nitems, 0.0);
  auto hooks = std::make_shared<pv::Ddi::PoolHooks>();
  hooks->stage_words = [](std::size_t) { return std::size_t{1}; };
  hooks->stage = [](std::size_t it, std::size_t worker,
                    std::span<const double>, std::span<double> payload) {
    if (worker == 1)
      for (;;) spin_micros(1000);  // wedged holding a claim
    // Slow the healthy rank so the wedged one is scheduled and actually
    // claims a chunk (this box may have a single core).
    spin_micros(2000);
    payload[0] = static_cast<double>(it) + 0.5;
    return true;
  };
  hooks->commit = [&](std::size_t it, std::span<const double> payload) {
    out[it] = payload[0];
  };
  const auto st = ddi->run_pool(pool, hooks, {});

  for (std::size_t it = 0; it < nitems; ++it)
    EXPECT_EQ(out[it], static_cast<double>(it) + 0.5) << "item " << it;
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_GE(st.tasks_reassigned, 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, EveryRankLostNamesEachRankAndItsReason) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Every rank dies at its first claim, mid-publish, so no chunk can ever
  // complete: the pool fails, and its error names each rank with the
  // reason it was declared dead.
  constexpr std::size_t kRanks = 3;
  pv::FaultPlan plan;
  for (std::size_t r = 0; r < kRanks; ++r) plan.kill_worker_at_claim(r, 1);
  auto ddi = pv::make_process_ddi(kRanks, plan, fast_params());

  PoolHarness h(*ddi, 96);
  std::string what;
  try {
    h.run();
  } catch (const xfci::Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("every rank died while tasks remain unclaimed"),
            std::string::npos)
      << what;
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_NE(what.find("rank " + std::to_string(r) +
                        " exited (wait status 9)"),
              std::string::npos)
        << what;
  EXPECT_EQ(ddi->num_alive(), 0u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

// ------------------------------------------------- persistent ranks -------

TEST(ProcessDdi, OneProgramRunsManyPoolsOnRanksForkedOnce) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Five pools of one program, each over a different input: the ranks,
  // forked at the first pool, must compute every pool from that pool's
  // input (the shm slab), never from what they inherited at the fork.
  auto ddi = pv::make_process_ddi(3, pv::FaultPlan{}, fast_params());
  const std::size_t nitems = 97;
  PoolHarness h(*ddi, nitems);
  for (int p = 0; p < 5; ++p) {
    std::vector<double> in(nitems);
    for (std::size_t it = 0; it < nitems; ++it)
      in[it] = 0.25 * static_cast<double>(it) - 7.0 * p + 1.5;
    const auto st = h.run(in);
    h.expect_all_items_committed_in_order();
    EXPECT_EQ(st.tasks_reassigned, 0u) << "pool " << p;
    EXPECT_EQ(child_processes(), 3u) << "pool " << p;
  }
  for (std::size_t r = 0; r < ddi->num_ranks(); ++r)
    EXPECT_EQ(ddi->counters(r).spawns, 1u) << "rank " << r;
  EXPECT_EQ(ddi->totals().get_calls, 5u * nitems);
  ddi.reset();
  EXPECT_EQ(child_processes(), 0u);
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, ASecondProgramThrowsAndLeavesNothingBehind) {
  XFCI_REQUIRE_PROCESS_HOST();
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, fast_params());
  PoolHarness h(*ddi, 40);
  (void)h.run();
  h.expect_all_items_committed_in_order();

  // The ranks run the hooks they were forked with: other hooks, another
  // chunk table or another input length is a second program.
  PoolHarness other(*ddi, 40);
  EXPECT_THROW((void)other.run(), xfci::Error);
  const std::vector<double> longer(41, 1.0);
  EXPECT_THROW((void)h.run(longer), xfci::Error);
  const pv::TaskPool finer(40, 2, pv::TaskPoolParams{1, 1, 1, false});
  const std::vector<double> index(h.input);
  EXPECT_THROW((void)ddi->run_pool(finer, h.hooks, index), xfci::Error);
  EXPECT_TRUE(other.commit_order.empty());

  // The bound program still runs on the same two ranks.
  (void)h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(ddi->totals().spawns, 2u);
  EXPECT_EQ(child_processes(), 2u);
  ddi.reset();
  EXPECT_EQ(child_processes(), 0u);
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, TimeKillBetweenPoolsIsFencedAtTheNextBarrier) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1's death time falls between two pools: no watchdog runs then,
  // so the next barrier declares it — and must also kill and reap the
  // idle rank's process, which would otherwise outlive its last pool.
  pv::FaultPlan plan;
  plan.kill_rank_at_time(1, 1.0);
  auto ddi = pv::make_process_ddi(3, plan, fast_params());
  PoolHarness h(*ddi, 64);
  (void)h.run();
  h.expect_all_items_committed_in_order();
  ASSERT_LT(ddi->elapsed(), 1.0) << "the first pool must end before t = 1 s";
  EXPECT_TRUE(ddi->alive(1));
  EXPECT_EQ(child_processes(), 3u);

  wait_until(*ddi, 1.0);
  (void)ddi->barrier();
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_EQ(child_processes(), 2u);  // killed and reaped, no zombie left

  for (int p = 0; p < 3; ++p) {
    const auto st = h.run();
    h.expect_all_items_committed_in_order();
    EXPECT_EQ(st.tasks_reassigned, 0u) << "pool " << p;
  }
  EXPECT_EQ(ddi->num_alive(), 2u);
  EXPECT_EQ(ddi->totals().spawns, 3u);
  ddi.reset();
  EXPECT_EQ(child_processes(), 0u);
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, IdleRanksOweNoHeartbeatBetweenPools) {
  XFCI_REQUIRE_PROCESS_HOST();
  // The driver pauses between pools for three heartbeat deadlines (a long
  // same-spin phase, a checkpoint write): idle ranks tick nothing, and
  // none may be fenced for it.
  auto params = fast_params();
  params.heartbeat_deadline = 0.5;
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, params);
  PoolHarness h(*ddi, 64);
  (void)h.run();
  h.expect_all_items_committed_in_order();
  spin_micros(1500000);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(st.tasks_reassigned, 0u);
  EXPECT_EQ(ddi->num_alive(), 2u);
  EXPECT_EQ(ddi->totals().spawns, 2u);
  EXPECT_EQ(child_processes(), 2u);
}

// ------------------------------------------------- orphan hygiene ---------

TEST(ProcessDdi, NoSegmentsLeakAfterAFaultedRun) {
  XFCI_REQUIRE_PROCESS_HOST();
  ASSERT_TRUE(pv::own_segment_names().empty());
  {
    pv::FaultPlan plan;
    plan.kill_worker_at_claim(0, 1);
    auto ddi = pv::make_process_ddi(2, plan, fast_params());
    PoolHarness h(*ddi, 64, /*stage_micros=*/500);
    (void)h.run();
    // Two segments exist only while a backend is alive: the control arena
    // and the pool arena, which lives as long as the backend.
    EXPECT_FALSE(pv::own_segment_names().empty());
  }
  EXPECT_TRUE(pv::own_segment_names().empty());
}

// ------------------------------------------------- FCI conformance --------

TEST(ProcessSigma, BitwiseMatchesSimulateForEveryRankCount) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  opt.algorithm = xf::Algorithm::kDgemm;
  const auto reference = run_sigma(ctx, opt, c);

  for (std::size_t nranks : {1u, 2u, 3u}) {
    fcp::ParallelOptions popt = opt;
    popt.execution = fcp::ExecutionMode::kProcess;
    popt.num_ranks = nranks;
    popt.process = fast_params();
    const auto sigma = run_sigma(ctx, popt, c);
    // Ordered commit + deterministic per-item layout: the forked build is
    // bitwise identical to the simulated one (same binary, same flags).
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(sigma[i], reference[i])
          << "element " << i << " ranks " << nranks;
  }
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessSigma, DeathBetweenPoolsCostsOneDriverRefetchRound) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 2 dies between the first and the second sigma.  The driver
  // absorbs it at its next redistribution (one refetch get per survivor);
  // the ranks, forked before the death, must adopt that split when the
  // next pool opens instead of redistributing — and paying — again.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(23);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  opt.algorithm = xf::Algorithm::kDgemm;
  const auto reference = run_sigma(ctx, opt, c);

  fcp::ParallelOptions popt = opt;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.process = fast_params();
  popt.faults.kill_rank_at_time(2, 1.0);
  fcp::ParallelSigma op(ctx, popt);
  const auto gets = [&op] { return op.ddi().totals().get_calls; };
  std::vector<double> sigma(c.size());

  op.apply(c, sigma);
  ASSERT_LT(op.ddi().elapsed(), 1.0) << "the first sigma must end first";
  EXPECT_EQ(sigma, reference);
  const std::size_t per_sigma = gets();  // the mixed phase's gathers

  wait_until(op.ddi(), 1.0);
  const std::size_t before = gets();
  op.apply(c, sigma);
  EXPECT_EQ(sigma, reference);
  EXPECT_FALSE(op.ddi().alive(2));
  EXPECT_EQ(op.breakdown().ranks_lost, 1u);
  EXPECT_EQ(gets() - before, per_sigma + 2u);

  const std::size_t after_death = gets();
  op.apply(c, sigma);
  EXPECT_EQ(sigma, reference);
  EXPECT_EQ(gets() - after_death, per_sigma);
  EXPECT_EQ(op.ddi().totals().spawns, 3u);
}

TEST(ProcessSolve, ConvergesToSimulatedEnergyThroughRealKills) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  const auto simulated = fcp::run_parallel_fci(tables, 2, 2, 0, opt);
  ASSERT_TRUE(simulated.solve.converged);

  fcp::ParallelOptions popt = opt;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.process = fast_params();
  // A watchdog SIGKILL early in the solve (guaranteed to fire: the time
  // trigger needs no claim/op race on a single-core box), plus op-count
  // and torn-publish kills and a dropped accumulate as extra chaos on the
  // Be system's short pools; the survivors must still converge to the
  // same energy.
  popt.faults.kill_rank_at_time(2, 0.02)
      .kill_worker_at_claim(1, 3)
      .drop_op(0, 7);
  const auto forked = fcp::run_parallel_fci(tables, 2, 2, 0, popt);

  EXPECT_TRUE(forked.solve.converged);
  EXPECT_NEAR(forked.solve.energy, simulated.solve.energy, 1e-10);
  EXPECT_GE(forked.metrics.per_sigma.ranks_lost, 1u);
  EXPECT_GT(forked.metrics.total_seconds, 0.0);
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessSolve, KillThenRestartContinuesTheTrajectory) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  const std::string ck = "test_process_ddi.ck";

  fcp::ParallelOptions popt;
  popt.num_ranks = 2;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.process = fast_params();

  // Stage a "crash": checkpoint every iteration, stop after 3.
  xf::SolverOptions first;
  first.checkpoint_path = ck;
  first.max_iterations = 3;
  const auto partial = fcp::run_parallel_fci(tables, 2, 2, 0, popt, first);
  ASSERT_FALSE(partial.solve.converged);

  // Restart from the checkpoint — with a real SIGKILL in the resumed run.
  fcp::ParallelOptions rpopt = popt;
  rpopt.faults.kill_worker_at_claim(1, 2);
  xf::SolverOptions second;
  second.restart_path = ck;
  const auto resumed = fcp::run_parallel_fci(tables, 2, 2, 0, rpopt, second);

  fcp::ParallelOptions sopt;
  sopt.num_ranks = 2;
  const auto reference = fcp::run_parallel_fci(tables, 2, 2, 0, sopt);

  EXPECT_TRUE(resumed.solve.converged);
  EXPECT_NEAR(resumed.solve.energy, reference.solve.energy, 1e-10);
  EXPECT_TRUE(pv::own_segment_names().empty());
  std::remove(ck.c_str());
}
