// Tests for the parallel substrate: the simulated backend's virtual-time
// accounting, the task pool aggregation (paper Fig. 3), the column
// distribution, and Ddi::run_pool's staging contract on the sim and
// threads backends (tests/pool_harness.hpp; test_process_ddi.cpp runs the
// same harness on the process backend).

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>

#include "fci/ci_space.hpp"
#include "fci_parallel/distribution.hpp"
#include "parallel/ddi.hpp"
#include "parallel/task_pool.hpp"
#include "pool_harness.hpp"

namespace pv = xfci::pv;
namespace fcp = xfci::fcp;
namespace xf = xfci::fci;
namespace xc = xfci::chem;

namespace {

/// The simulated backend the Machine tests drive through pv::Ddi.
std::unique_ptr<pv::Ddi> sim(std::size_t ranks,
                             const xfci::x1::CostModel& cost = {}) {
  return pv::make_simulated_ddi(ranks, cost, pv::FaultPlan{});
}

}  // namespace

TEST(Machine, ClocksAccumulate) {
  auto m = sim(4);
  m->charge(0, {.seconds = 1.0});
  m->charge(0, {.seconds = 0.5});
  m->charge(2, {.seconds = 2.0});
  EXPECT_DOUBLE_EQ(m->now(0), 1.5);
  EXPECT_DOUBLE_EQ(m->now(1), 0.0);
  EXPECT_DOUBLE_EQ(m->now(2), 2.0);
  EXPECT_DOUBLE_EQ(m->elapsed(), 2.0);
  EXPECT_EQ(xfci::test::first_claimant(*m), 1u);
}

TEST(Machine, BarrierSynchronizesAndMeasuresImbalance) {
  auto m = sim(3);
  m->charge(0, {.seconds = 1.0});
  m->charge(1, {.seconds = 3.0});
  const double t = m->barrier();
  EXPECT_NEAR(m->imbalance(), 3.0, 1e-12);
  EXPECT_GE(t, 3.0);  // max + barrier cost
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(m->now(r), t);
}

TEST(Machine, LocalGetIsCheaperThanRemote) {
  auto a = sim(2), b = sim(2);
  a->one_sided(pv::OneSided::kGet, 0, 0, 1000.0);  // local
  b->one_sided(pv::OneSided::kGet, 0, 1, 1000.0);  // remote
  EXPECT_LT(a->now(0), b->now(0));
  EXPECT_DOUBLE_EQ(a->counters(0).get_words, 0.0);
  EXPECT_DOUBLE_EQ(b->counters(0).get_words, 1000.0);
}

TEST(Machine, AccCostsTwiceGetTraffic) {
  const xfci::x1::CostModel cm;
  // Large payload: latencies negligible.
  const double words = 1e7;
  EXPECT_NEAR(cm.acc_seconds(words) / cm.get_seconds(words), 2.0, 0.01);
}

TEST(Machine, DlbServerSerializes) {
  const xfci::x1::CostModel cm;
  auto m = sim(4, cm);
  // A pool of four chunks whose stages charge nothing: every rank claims
  // one at time zero, and the server handles the claims one at a time.
  auto hooks = std::make_shared<pv::Ddi::PoolHooks>();
  hooks->stage_words = [](std::size_t) { return std::size_t{0}; };
  hooks->stage = [](std::size_t, std::size_t, std::span<const double>,
                    std::span<double>) { return true; };
  hooks->commit = [](std::size_t, std::span<const double>) {};
  pv::TaskPoolParams fine;
  fine.aggregate = false;
  const pv::TaskPool pool(4, 4, fine);
  ASSERT_EQ(pool.num_chunks(), 4u);
  m->run_pool(pool, hooks, {});
  const double dt = cm.dlb_latency;
  EXPECT_NEAR(m->now(0), dt, 1e-12);
  EXPECT_NEAR(m->now(1), 2 * dt, 1e-12);
  EXPECT_NEAR(m->now(3), 4 * dt, 1e-12);
}

TEST(Machine, ReceiverCongestionBoundsBarrier) {
  const xfci::x1::CostModel cm;
  auto m = sim(8, cm);
  // Everyone accumulates a huge payload into rank 0; the barrier cannot
  // complete before rank 0 has absorbed it all.
  double requester_max = 0.0;
  for (std::size_t r = 1; r < 8; ++r) {
    m->one_sided(pv::OneSided::kAcc, r, 0, 1e8);
    requester_max = std::max(requester_max, m->now(r));
  }
  const double t = m->barrier();
  const double absorb = 7 * cm.acc_target_seconds(1e8);
  EXPECT_GE(t, absorb);
  EXPECT_GT(t, requester_max);
}

TEST(Machine, AlltoallCongestsReceivers) {
  // Make the node (receive) bandwidth the bottleneck so the congestion
  // term binds: each rank can pull at get_bandwidth but absorb only at
  // node_bandwidth < get_bandwidth.
  xfci::x1::CostModel cm;
  cm.node_bandwidth = cm.get_bandwidth / 4.0;
  auto m = sim(4, cm);
  const double words = 1e9;
  m->charge(0, {.alltoall_peers = 3, .alltoall_words = words});
  const double sender = m->now(0);
  const double t = m->barrier();
  // Rank 0 must absorb everything it pulled at node bandwidth...
  EXPECT_GE(t, cm.recv_target_seconds(words));
  // ...which is slower than issuing the gets.
  EXPECT_GT(cm.recv_target_seconds(words), sender);
  // The serving side is spread over the peers, so one skewed reader does
  // not stall the sources as much as itself.
  EXPECT_GE(t, cm.recv_target_seconds(words / 3.0));
}

TEST(Machine, ChargeConvertsAWorkRecordFieldByField) {
  // The simulator turns a record into seconds field by field, in Work's
  // order, each through the rank's straggler-stretched clock: one record
  // with every field set lands exactly where the same fields charged as
  // one-field records do, clocks, congestion and ledger rows alike.
  pv::FaultPlan plan;
  plan.slow_rank(1, 2.3);
  const xfci::x1::CostModel cm;
  auto whole = pv::make_simulated_ddi(4, cm, plan);
  auto split = pv::make_simulated_ddi(4, cm, plan);
  // A start of the terms' magnitude lets their order show in the clock's
  // last bits: with these values, summing the seconds first or most
  // reorderings of the fields move it.
  whole->charge(1, {.seconds = 3.3e-6});
  split->charge(1, {.seconds = 3.3e-6});
  const std::array<std::size_t, 3> shapes[] = {{2, 90, 11}, {21, 13, 8}};
  const pv::Work work{.alltoall_peers = 3,
                      .alltoall_words = 1234.5,
                      .dgemm = shapes,
                      .indexed_words = 321.0,
                      .daxpy_flops = 20000.0,
                      .seconds = 1.7e-5,
                      .retransmits = 2};
  whole->charge(1, work);
  split->charge(1, {.alltoall_peers = 3, .alltoall_words = 1234.5});
  split->charge(1, {.dgemm = {shapes, 1}});
  split->charge(1, {.dgemm = {shapes + 1, 1}});
  split->charge(1, {.indexed_words = 321.0});
  split->charge(1, {.daxpy_flops = 20000.0});
  split->charge(1, {.seconds = 1.7e-5});
  split->charge(1, {.retransmits = 2});

  const auto expect_same_row = [](const pv::CommCounters& a,
                                  const pv::CommCounters& b) {
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.get_words, b.get_words);
    EXPECT_EQ(a.acc_words, b.acc_words);
    EXPECT_EQ(a.get_calls, b.get_calls);
    EXPECT_EQ(a.acc_calls, b.acc_calls);
    EXPECT_EQ(a.dlb_calls, b.dlb_calls);
    EXPECT_EQ(a.ops_dropped, b.ops_dropped);
    EXPECT_EQ(a.ops_delayed, b.ops_delayed);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.spawns, b.spawns);
  };
  EXPECT_GT(whole->now(1), 0.0);
  EXPECT_EQ(whole->counters(1).flops, work.flops());
  EXPECT_EQ(whole->counters(1).retransmits, 2u);
  for (std::size_t r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(whole->now(r), split->now(r));
    expect_same_row(whole->counters(r), split->counters(r));
  }
  EXPECT_EQ(whole->barrier(), split->barrier());

  // A record charged to a dead rank leaves its clock and row unchanged.
  pv::FaultPlan dying = plan;
  dying.kill_rank_at_op(1, 1);
  auto m = pv::make_simulated_ddi(4, cm, dying);
  m->charge(1, {.seconds = 1.0});
  EXPECT_EQ(m->one_sided(pv::OneSided::kGet, 1, 0, 8.0),
            pv::OpOutcome::kDropped);
  ASSERT_FALSE(m->alive(1));
  const double frozen = m->now(1);
  const pv::CommCounters row = m->counters(1);
  m->charge(1, work);
  EXPECT_EQ(m->now(1), frozen);
  expect_same_row(m->counters(1), row);
}

TEST(CostModel, DgemmEfficiencyRampsWithDimension) {
  const xfci::x1::CostModel cm;
  // Effective rate for a large square multiply approaches the asymptote.
  const double t_big = cm.dgemm_seconds(600, 600, 600);
  const double rate_big = 2.0 * 600.0 * 600.0 * 600.0 / t_big;
  EXPECT_GT(rate_big, 0.85 * cm.dgemm_asymptotic);
  // A skinny multiply runs far below peak.
  const double t_skinny = cm.dgemm_seconds(8, 600, 600);
  const double rate_skinny = 2.0 * 8.0 * 600.0 * 600.0 / t_skinny;
  EXPECT_LT(rate_skinny, 0.2 * cm.dgemm_asymptotic);
}

TEST(CostModel, DaxpyFarBelowDgemm) {
  // The X1 evaluation report: out-of-cache DAXPY ~2 GF/s vs DGEMM 10-11
  // GF/s per MSP -- the motivation for the paper's algorithm.
  const xfci::x1::CostModel cm;
  const double flops = 1e10;
  const double t_daxpy = cm.daxpy_seconds(flops);
  // Same flops as one large DGEMM.
  const double t_dgemm = cm.dgemm_seconds(1000, 1000, 5000);
  EXPECT_GT(t_daxpy, 3.0 * t_dgemm);
}

// ----------------------------------------------------------- task pool ----

TEST(TaskPool, ChunksTileTheRange) {
  for (std::size_t n : {1u, 7u, 100u, 1000u, 12345u}) {
    for (std::size_t p : {1u, 4u, 16u}) {
      const pv::TaskPool pool(n, p);
      std::size_t covered = 0;
      for (std::size_t i = 0; i < pool.num_chunks(); ++i) {
        const auto [b, e] = pool.chunk(i);
        EXPECT_EQ(b, covered);
        EXPECT_GT(e, b);
        covered = e;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(TaskPool, LargeTasksComeFirstInDecreasingSize) {
  pv::TaskPoolParams params;
  params.nfine_per_rank = 64;
  params.nlarge_per_rank = 4;
  params.nsmall_per_rank = 8;
  const pv::TaskPool pool(100000, 8, params);
  // The first NLtask chunks must be non-increasing in size (Fig. 3).
  const std::size_t nlarge = params.nlarge_per_rank * 8;
  ASSERT_GT(pool.num_chunks(), nlarge);
  for (std::size_t i = 1; i < nlarge; ++i) {
    const auto [b0, e0] = pool.chunk(i - 1);
    const auto [b1, e1] = pool.chunk(i);
    EXPECT_GE(e0 - b0, e1 - b1) << "chunk " << i;
  }
  // The tail is fine-grained: much smaller than the head.
  const auto [hb, he] = pool.chunk(0);
  const auto [tb, te] = pool.chunk(pool.num_chunks() - 1);
  EXPECT_GT(he - hb, 10 * (te - tb));
}

TEST(TaskPool, TailHasFineGranularity) {
  pv::TaskPoolParams params;
  params.nfine_per_rank = 16;
  const std::size_t p = 4;
  const std::size_t n = 6400;
  const pv::TaskPool pool(n, p, params);
  const std::size_t fine = n / (params.nfine_per_rank * p);
  const auto [tb, te] = pool.chunk(pool.num_chunks() - 1);
  EXPECT_LE(te - tb, fine);
}

TEST(TaskPool, NoAggregationAblation) {
  pv::TaskPoolParams params;
  params.aggregate = false;
  params.nfine_per_rank = 10;
  const pv::TaskPool pool(1000, 10, params);
  // 100 fine tasks of 10 items each.
  EXPECT_EQ(pool.num_chunks(), 100u);
  EXPECT_EQ(pool.max_chunk_size(), 10u);
}

TEST(TaskPool, FineSizeUsesCeilingDivision) {
  // num_items just below a multiple of the fine-task target: truncating
  // division would produce fine_size 1 and nearly 2x the requested number
  // of fine tasks (2*nfine - 1 DLB requests instead of nfine).
  pv::TaskPoolParams params;
  params.aggregate = false;
  params.nfine_per_rank = 10;
  const pv::TaskPool pool(19, 1, params);  // nfine = 10, items = 2*10 - 1
  EXPECT_EQ(pool.num_chunks(), 10u);       // ceil(19/10) = 2 items per task
  EXPECT_EQ(pool.max_chunk_size(), 2u);
}

TEST(TaskPool, RandomizedChunksTileTheRange) {
  // Property test: for arbitrary pool shapes the chunks partition
  // [0, num_items) exactly -- contiguous, non-empty, in order.
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng() % 20000;
    const std::size_t p = 1 + rng() % 64;
    pv::TaskPoolParams params;
    params.aggregate = (rng() % 4) != 0;
    params.nfine_per_rank = 1 + rng() % 128;
    params.nlarge_per_rank = 1 + rng() % 8;
    params.nsmall_per_rank = 1 + rng() % 16;
    const pv::TaskPool pool(n, p, params);
    std::size_t covered = 0;
    for (std::size_t i = 0; i < pool.num_chunks(); ++i) {
      const auto [b, e] = pool.chunk(i);
      ASSERT_EQ(b, covered) << "n=" << n << " p=" << p << " chunk " << i;
      ASSERT_GT(e, b) << "n=" << n << " p=" << p << " chunk " << i;
      covered = e;
    }
    ASSERT_EQ(covered, n) << "n=" << n << " p=" << p;
  }
}

TEST(TaskPool, SmallPoolDegenerates) {
  const pv::TaskPool pool(3, 16);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < pool.num_chunks(); ++i)
    covered += pool.chunk(i).second - pool.chunk(i).first;
  EXPECT_EQ(covered, 3u);
}

// -------------------------------------------------------- distribution ----

TEST(ColumnDistribution, PartitionsEveryBlock) {
  const auto group = xc::PointGroup::make("C2v");
  const std::vector<std::size_t> irreps = {0, 1, 0, 2, 3, 1};
  const xf::CiSpace space(6, 3, 2, group, irreps, 1);
  for (std::size_t p : {1u, 2u, 3u, 7u}) {
    const fcp::ColumnDistribution dist(space, p);
    std::size_t words = 0, cols = 0;
    for (std::size_t r = 0; r < p; ++r) {
      words += dist.local_words(r);
      cols += dist.local_columns(r);
    }
    EXPECT_EQ(words, space.dimension());
    std::size_t total_cols = 0;
    for (const auto& blk : space.blocks()) total_cols += blk.na;
    EXPECT_EQ(cols, total_cols);

    // Ownership is consistent with the ranges.
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      for (std::size_t r = 0; r < p; ++r) {
        const auto [c0, c1] = dist.columns(b, r);
        for (std::size_t ccc = c0; ccc < c1; ++ccc)
          EXPECT_EQ(dist.owner(b, ccc), r);
      }
    }
  }
}

TEST(ColumnDistribution, EvenWithinOneColumn) {
  const auto group = xc::PointGroup::make("C1");
  const std::vector<std::size_t> irreps(8, 0);
  const xf::CiSpace space(8, 4, 4, group, irreps, 0);
  const fcp::ColumnDistribution dist(space, 5);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::size_t r = 0; r < 5; ++r) {
    lo = std::min(lo, dist.local_columns(r));
    hi = std::max(hi, dist.local_columns(r));
  }
  EXPECT_LE(hi - lo, 1u);
}

// ------------------------------------------------- run_pool staging -------

TEST(SimulatedPool, CommitsEveryItemOnceInOrder) {
  auto ddi = pv::make_simulated_ddi(4, xfci::x1::CostModel{}, pv::FaultPlan{});
  xfci::test::PoolHarness h(*ddi, 257);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(st.tasks_reassigned, 0u);
  EXPECT_EQ(ddi->totals().get_calls, 257u);
  EXPECT_EQ(ddi->totals().acc_calls, 257u);
}

TEST(SimulatedPool, RankDeathMidItemIsRestagedOnASurvivor) {
  // Rank 1 dies at its 6th one-sided op, the accumulate of its third item,
  // after staging that item: the harness poisons the payload, and the item
  // must be staged again, on the survivor, before it is committed.
  pv::FaultPlan plan;
  plan.kill_rank_at_op(1, 6);
  auto ddi = pv::make_simulated_ddi(2, xfci::x1::CostModel{}, plan);
  xfci::test::PoolHarness h(*ddi, 128);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(st.tasks_reassigned, 1u);
  EXPECT_FALSE(ddi->alive(1));
}

TEST(ThreadedPool, CommitsEveryItemOnceInOrder) {
  auto ddi = pv::make_threads_ddi(4, 4, pv::FaultPlan{});
  xfci::test::PoolHarness h(*ddi, 257);
  for (int p = 0; p < 3; ++p) {
    const auto st = h.run();
    h.expect_all_items_committed_in_order();
    EXPECT_EQ(st.tasks_reassigned, 0u) << "pool " << p;
  }
  EXPECT_EQ(ddi->totals().get_calls, 3u * 257u);
}

TEST(ThreadedPool, WorkerDeathRestagesTheChunkIntoItsBuffer) {
  // Worker 0, the calling thread, dies at its first claim of every pool:
  // the chunk is staged again into the worker's own buffer and committed
  // at its normal turn.  The calling thread holds chunk 0 of every region,
  // so the death fires in every pool, whatever the OS schedules.
  pv::FaultPlan plan;
  plan.kill_worker_at_claim(0, 1);
  auto ddi = pv::make_threads_ddi(4, 4, plan);
  xfci::test::PoolHarness h(*ddi, 128);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(h.run().tasks_reassigned, 1u) << "pool " << p;
    h.expect_all_items_committed_in_order();
  }
}
