// Randomized stress for the std::thread execution backend, aimed at the
// tsan preset: many short parallel regions with irregular bodies so the
// ThreadTeam handoff (generation counter, condition variables, atomic
// claim counter) and the OrderedSequencer commit gate get hammered from
// every interleaving the scheduler can produce.  Seeds are fixed, so a
// failure reproduces exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/task_pool.hpp"
#include "parallel/thread_team.hpp"

namespace {

using xfci::Rng;
using xfci::pv::OrderedSequencer;
using xfci::pv::TaskPool;
using xfci::pv::TaskPoolParams;
using xfci::pv::ThreadTeam;

// A little non-uniform work so items finish at scrambled times.
void spin(std::size_t iters) {
  volatile std::size_t sink = 0;
  for (std::size_t i = 0; i < iters; ++i) sink = sink + i;
}

TEST(ThreadTeamStress, DynamicClaimsEachIndexExactlyOnce) {
  ThreadTeam team(4);
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const std::size_t count = 1 + rng.index(2000);
    std::vector<std::atomic<int>> claims(count);
    team.for_dynamic(count, [&](std::size_t i, std::size_t tid) {
      ASSERT_LT(tid, team.size());
      spin(i % 37);
      claims[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(claims[i].load(), 1) << "round " << round << " index " << i;
  }
}

TEST(ThreadTeamStress, PoolChunksCoverEveryItemOnce) {
  ThreadTeam team(4);
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    const std::size_t items = 1 + rng.index(4000);
    TaskPoolParams params;
    params.nfine_per_rank = 1 + rng.index(32);
    params.nlarge_per_rank = 1 + rng.index(8);
    params.nsmall_per_rank = 1 + rng.index(16);
    params.aggregate = rng.index(4) != 0;
    const TaskPool pool(items, team.size(), params);
    std::vector<std::atomic<int>> claims(items);
    team.for_dynamic(pool.num_chunks(), [&](std::size_t ci, std::size_t) {
      const auto [b, e] = pool.chunk(ci);
      ASSERT_LE(b, e);
      ASSERT_LE(e, items);
      spin(ci % 53);
      for (std::size_t i = b; i < e; ++i)
        claims[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < items; ++i)
      ASSERT_EQ(claims[i].load(), 1) << "round " << round << " item " << i;
  }
}

TEST(ThreadTeamStress, NestedRegionsRunInline) {
  ThreadTeam outer(4);
  ThreadTeam inner(4);
  std::atomic<std::size_t> total{0};
  outer.for_dynamic(16, [&](std::size_t, std::size_t) {
    ASSERT_TRUE(ThreadTeam::in_parallel_region());
    // Nested call must degrade to inline execution, not deadlock.
    inner.for_dynamic(8, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(ThreadTeam::in_parallel_region());
  EXPECT_EQ(total.load(), 16u * 8u);

  // One-thread teams inside a region that holds all four workers at once
  // (each outer body waits at the latch until every worker holds one), as
  // a serve worker drives its session's one-rank sigma: each inner team
  // must hand out its own worker ids, not the enclosing worker's.
  std::latch all_in(4);
  std::atomic<std::size_t> inner_calls{0}, bad_tids{0};
  outer.for_dynamic(4, [&](std::size_t, std::size_t) {
    all_in.arrive_and_wait();
    ThreadTeam one(1);
    const auto check = [&](std::size_t tid) {
      inner_calls.fetch_add(1, std::memory_order_relaxed);
      if (tid >= one.size()) bad_tids.fetch_add(1, std::memory_order_relaxed);
    };
    one.for_dynamic(3, [&](std::size_t, std::size_t tid) { check(tid); });
    const TaskPool pool(6, one.size(), {});
    one.for_pool_resilient(pool, [&](std::size_t, std::size_t tid) {
      check(tid);
      return true;
    });
  });
  EXPECT_EQ(bad_tids.load(), 0u);
  EXPECT_GT(inner_calls.load(), 4u * 3u);
}

TEST(ThreadTeamStress, ExceptionPropagatesAndTeamStaysUsable) {
  ThreadTeam team(4);
  Rng rng(4);
  for (int round = 0; round < 10; ++round) {
    const std::size_t count = 64 + rng.index(512);
    const std::size_t bad = rng.index(count);
    EXPECT_THROW(
        team.for_dynamic(count,
                         [&](std::size_t i, std::size_t) {
                           spin(i % 29);
                           XFCI_REQUIRE(i != bad, "poisoned index");
                         }),
        xfci::Error);
    // The team must come back clean: a full region right after the throw.
    std::atomic<std::size_t> ok{0};
    team.for_dynamic(100, [&](std::size_t, std::size_t) {
      ok.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ok.load(), 100u);
  }
}

TEST(ThreadTeamStress, ResilientPoolSurvivesStragglersAndWorkerDeaths) {
  // Randomized kill/straggler schedule against for_pool_resilient: some
  // workers retire after a pre-drawn number of claims (mimicking the
  // kThreads fault model, where the dying worker commits its last chunk
  // before leaving), others are slowed.  Survivors must still claim every
  // chunk exactly once and commit in index order.
  ThreadTeam team(4);
  Rng rng(6);
  for (int round = 0; round < 10; ++round) {
    const std::size_t items = 256 + rng.index(2000);
    TaskPoolParams params;
    params.nfine_per_rank = 1 + rng.index(16);
    const TaskPool pool(items, team.size(), params);
    const std::size_t nchunks = pool.num_chunks();

    // Up to size()-1 workers die; at least one always survives.
    std::vector<std::size_t> kill_at(team.size(), 0);  // 0 = immortal
    const std::size_t ndead = rng.index(team.size());
    for (std::size_t k = 0; k < ndead; ++k)
      kill_at[1 + rng.index(team.size() - 1)] = 1 + rng.index(4);
    std::vector<std::size_t> slow(nchunks);
    for (auto& s : slow) s = rng.index(500);

    std::vector<std::size_t> claims(team.size(), 0);
    std::vector<std::atomic<int>> touched(items);
    OrderedSequencer seq;
    std::vector<std::size_t> order;
    order.reserve(nchunks);
    team.for_pool_resilient(pool, [&](std::size_t ci, std::size_t tid) {
      const bool dies =
          kill_at[tid] != 0 && ++claims[tid] == kill_at[tid];
      const auto [b, e] = pool.chunk(ci);
      spin(slow[ci]);
      for (std::size_t i = b; i < e; ++i)
        touched[i].fetch_add(1, std::memory_order_relaxed);
      seq.wait_turn(ci);
      order.push_back(ci);
      seq.complete(ci);
      return !dies;  // the dying worker still committed its chunk
    });
    for (std::size_t i = 0; i < items; ++i)
      ASSERT_EQ(touched[i].load(), 1) << "round " << round << " item " << i;
    ASSERT_EQ(order.size(), nchunks);
    for (std::size_t i = 0; i < nchunks; ++i)
      ASSERT_EQ(order[i], i) << "round " << round;
  }
}

TEST(ThreadTeamStress, ResilientPoolAllWorkersRetiringThrows) {
  ThreadTeam team(4);
  TaskPoolParams params;
  params.nfine_per_rank = 8;
  const TaskPool pool(512, team.size(), params);
  ASSERT_GT(pool.num_chunks(), team.size());
  EXPECT_THROW(
      team.for_pool_resilient(
          pool, [&](std::size_t, std::size_t) { return false; }),
      xfci::Error);
  // The team must come back clean after the failed region.
  std::atomic<std::size_t> ok{0};
  team.for_dynamic(100, [&](std::size_t, std::size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_EQ(ok.load(), 100u);

  // Same contract on the serial path.
  ThreadTeam serial(1);
  EXPECT_THROW(
      serial.for_pool_resilient(
          pool, [&](std::size_t, std::size_t) { return false; }),
      xfci::Error);
}

TEST(OrderedSequencerStress, CommitsRetireInIndexOrder) {
  ThreadTeam team(4);
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const std::size_t sections = 32 + rng.index(256);
    // Pre-drawn delays: Rng is not thread-safe, workers only read.
    std::vector<std::size_t> delay(sections);
    for (auto& d : delay) d = rng.index(200);
    OrderedSequencer seq;
    std::vector<std::size_t> order;
    order.reserve(sections);
    team.for_dynamic(sections, [&](std::size_t i, std::size_t) {
      spin(delay[i]);  // scramble arrival order at the gate
      seq.wait_turn(i);
      order.push_back(i);  // serialized by the sequencer
      seq.complete(i);
    });
    ASSERT_EQ(order.size(), sections);
    for (std::size_t i = 0; i < sections; ++i)
      ASSERT_EQ(order[i], i) << "round " << round;
  }
}

TEST(OrderedSequencerStress, ResetRestartsTheGate) {
  ThreadTeam team(3);
  OrderedSequencer seq;
  for (int pass = 0; pass < 5; ++pass) {
    std::vector<std::size_t> order;
    team.for_dynamic(24, [&](std::size_t i, std::size_t) {
      spin(i * 7 % 41);
      seq.wait_turn(i);
      order.push_back(i);
      seq.complete(i);
    });
    ASSERT_EQ(order.size(), 24u);
    for (std::size_t i = 0; i < order.size(); ++i) ASSERT_EQ(order[i], i);
    seq.reset();
  }
}

}  // namespace
