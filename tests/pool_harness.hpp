#pragma once
// One pool program for the direct Ddi::run_pool tests, run on every
// backend: test_parallel.cpp drives sim and threads, test_process_ddi.cpp
// the process backend.  Item `it` stages words(it) doubles, each a pure
// function of the pool's input at the item, into the payload span its
// backend hands over.  On the process backend stage runs in a forked rank,
// where a gtest assertion would be invisible, so every check is made in
// the driver: commit records what arrives, and
// expect_all_items_committed_in_order compares it after run_pool returns.
// first_claimant asks a backend's load balancer for its pick.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "parallel/ddi.hpp"
#include "parallel/task_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace xfci::test {

/// usleep shim: the process tests never run off-POSIX (they skip first),
/// but the tests must still compile there.
inline void spin_micros(std::size_t micros) {
#if defined(__unix__) || defined(__APPLE__)
  ::usleep(static_cast<unsigned>(micros));
#else
  (void)micros;
#endif
}

/// A driver for the direct pool-protocol tests: one pool program, built
/// once (a process backend runs one program per backend).
struct PoolHarness {
  /// Payload length of item `it`: neighbouring items differ, so a payload
  /// read at another item's offset or length fails the value check.
  static std::size_t words(std::size_t it) { return 1 + it % 4; }
  /// Word `j` of the payload of an item whose input is `v`.
  static double value(double v, std::size_t j) {
    const double k = static_cast<double>(j);
    return (k + 3.0) * v - k - 0.5;
  }

  PoolHarness(pv::Ddi& backend, std::size_t nitems,
              std::size_t stage_micros = 0)
      : ddi(backend),
        pool(nitems, backend.num_workers()),
        committed(nitems) {
    auto h = std::make_shared<pv::Ddi::PoolHooks>();
    h->stage_words = [](std::size_t it) { return words(it); };
    h->stage = [this, stage_micros](std::size_t it, std::size_t worker,
                                    std::span<const double> in,
                                    std::span<double> payload) {
      // Compute straight into the payload, plus one-sided traffic so the
      // op accounting is exercised (and the op-count fault triggers can
      // fire mid-operation).
      if (ddi.one_sided(pv::OneSided::kGet, worker, 0, 8.0) ==
              pv::OpOutcome::kDropped &&
          !ddi.alive(worker))
        return false;
      for (std::size_t j = 0; j < payload.size(); ++j)
        payload[j] = value(in[it], j);
      if (stage_micros != 0) spin_micros(stage_micros);
      if (ddi.one_sided(pv::OneSided::kAcc, worker, 0, 8.0) ==
              pv::OpOutcome::kDropped &&
          !ddi.alive(worker)) {
        // A worker that dies mid-item leaves garbage in its payload; a
        // backend that committed it would fail the value check.
        std::fill(payload.begin(), payload.end(),
                  std::numeric_limits<double>::quiet_NaN());
        return false;
      }
      return true;
    };
    h->commit = [this](std::size_t it, std::span<const double> payload) {
      commit_order.push_back(it);
      committed[it].assign(payload.begin(), payload.end());
    };
    hooks = std::move(h);
  }
  // The pool program captures `this`.
  PoolHarness(const PoolHarness&) = delete;
  PoolHarness& operator=(const PoolHarness&) = delete;

  /// One pool over `in` (one value per item).
  pv::Ddi::PoolStats run(std::span<const double> in) {
    input.assign(in.begin(), in.end());
    commit_order.clear();
    for (auto& payload : committed) payload.clear();
    return ddi.run_pool(pool, hooks, input);
  }
  /// One pool whose input is the item index.
  pv::Ddi::PoolStats run() {
    std::vector<double> index(committed.size());
    std::iota(index.begin(), index.end(), 0.0);
    return run(index);
  }

  /// Every item committed exactly once, in global item order, with
  /// exactly the words its stage wrote.
  void expect_all_items_committed_in_order() const {
    ASSERT_EQ(commit_order.size(), committed.size());
    for (std::size_t it = 0; it < committed.size(); ++it) {
      EXPECT_EQ(commit_order[it], it);
      std::vector<double> want(words(it));
      for (std::size_t j = 0; j < want.size(); ++j)
        want[j] = value(input[it], j);
      EXPECT_EQ(committed[it], want) << "item " << it;
    }
  }

  pv::Ddi& ddi;
  pv::TaskPool pool;
  std::shared_ptr<const pv::Ddi::PoolHooks> hooks;
  std::vector<double> input;
  std::vector<std::vector<double>> committed;  ///< per item, as committed
  std::vector<std::size_t> commit_order;
};

/// The worker `ddi`'s load balancer hands the only chunk of a one-item
/// pool: on the simulator, the surviving rank with the earliest clock
/// (ties go to the lowest rank id), which pays the DLB round trip.
inline std::size_t first_claimant(pv::Ddi& ddi) {
  auto h = std::make_shared<pv::Ddi::PoolHooks>();
  std::size_t claimant = ddi.num_workers();
  h->stage_words = [](std::size_t) { return std::size_t{0}; };
  h->stage = [&claimant](std::size_t, std::size_t worker,
                         std::span<const double>, std::span<double>) {
    claimant = worker;
    return true;
  };
  h->commit = [](std::size_t, std::span<const double>) {};
  ddi.run_pool(pv::TaskPool(1, ddi.num_workers()), h, {});
  return claimant;
}

}  // namespace xfci::test
