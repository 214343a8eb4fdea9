// Tests for the shared-memory execution backend: the ThreadTeam pool and
// OrderedSequencer primitives and the ExecutionMode::kThreads sigma build
// -- which must be bitwise identical to the simulate backend for every
// thread count (the determinism the ordered-commit mixed-spin phase
// guarantees).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "linalg/gemm_kernels.hpp"
#include "parallel/task_pool.hpp"
#include "parallel/thread_team.hpp"
#include "scf/scf.hpp"
#include "serial_sigma.hpp"

namespace pv = xfci::pv;
namespace xf = xfci::fci;
namespace xl = xfci::linalg;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

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

// ------------------------------------------------------------ ThreadTeam ----

TEST(ThreadTeam, ForDynamicVisitsEachIndexExactlyOnce) {
  pv::ThreadTeam team(4);
  ASSERT_EQ(team.size(), 4u);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  team.for_dynamic(n, [&](std::size_t i, std::size_t tid) {
    EXPECT_LT(tid, team.size());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadTeam, ForPoolClaimsEveryChunk) {
  pv::ThreadTeam team(4);
  const pv::TaskPool pool(6400, 4);
  std::vector<std::atomic<int>> item_hits(6400);
  team.for_dynamic(pool.num_chunks(), [&](std::size_t chunk, std::size_t) {
    const auto [b, e] = pool.chunk(chunk);
    for (std::size_t i = b; i < e; ++i)
      item_hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 6400; ++i) EXPECT_EQ(item_hits[i].load(), 1);
}

TEST(ThreadTeam, NestedRegionsRunInlineWithoutDeadlock) {
  pv::ThreadTeam team(4);
  EXPECT_FALSE(pv::ThreadTeam::in_parallel_region());
  std::atomic<std::size_t> inner_total{0};
  team.for_dynamic(8, [&](std::size_t, std::size_t tid) {
    EXPECT_TRUE(pv::ThreadTeam::in_parallel_region());
    // A nested request on the same (busy) team must run inline on this
    // worker, preserving its tid for per-thread scratch.
    team.for_dynamic(5, [&](std::size_t, std::size_t inner_tid) {
      EXPECT_EQ(inner_tid, tid);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(pv::ThreadTeam::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 40u);
}

TEST(ThreadTeam, PropagatesExceptions) {
  pv::ThreadTeam team(4);
  EXPECT_THROW(team.for_dynamic(100,
                                [&](std::size_t i, std::size_t) {
                                  if (i == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The team must remain usable after a failed region.
  std::atomic<int> ran{0};
  team.for_dynamic(10, [&](std::size_t, std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(OrderedSequencer, EnforcesCommitOrder) {
  pv::ThreadTeam team(4);
  pv::OrderedSequencer seq;
  std::vector<std::size_t> commits;  // guarded by the sequencer itself
  team.for_dynamic(64, [&](std::size_t i, std::size_t) {
    seq.wait_turn(i);
    commits.push_back(i);
    seq.complete(i);
  });
  ASSERT_EQ(commits.size(), 64u);
  for (std::size_t i = 0; i < commits.size(); ++i) EXPECT_EQ(commits[i], i);
}

// --------------------------------------------------------- threaded sigma ----

namespace {

// Applies the parallel sigma with the given execution mode and returns it.
std::vector<double> run_sigma(const xf::SigmaContext& ctx,
                              const fcp::ParallelOptions& opt,
                              std::span<const double> c) {
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> sigma(c.size());
  op.apply(c, sigma);
  return sigma;
}

}  // namespace

TEST(ThreadedSigma, BitwiseMatchesSimulateForEveryThreadCount) {
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

  for (std::size_t nthreads : {1u, 2u, 4u}) {
    fcp::ParallelOptions topt = opt;
    topt.execution = fcp::ExecutionMode::kThreads;
    topt.num_threads = nthreads;
    const auto sigma = run_sigma(ctx, topt, c);
    double dmax = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      dmax = std::max(dmax, std::abs(sigma[i] - reference[i]));
    // The ordered commit makes the threaded build bitwise deterministic;
    // 1e-12 is the contract, 0.0 is what the design delivers.
    EXPECT_EQ(dmax, 0.0) << "threads=" << nthreads;
  }
}

TEST(ThreadedSigma, MatchesSerialOperator) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(23);
  const auto c = rng.signed_vector(space.dimension());

  xfci::oracle::SigmaSerial serial(ctx, xf::Algorithm::kDgemm);
  std::vector<double> s_serial(c.size());
  serial.apply(c, s_serial);

  fcp::ParallelOptions opt;
  opt.num_ranks = 4;
  opt.execution = fcp::ExecutionMode::kThreads;
  opt.num_threads = 2;
  const auto s_thread = run_sigma(ctx, opt, c);

  double dmax = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    dmax = std::max(dmax, std::abs(s_serial[i] - s_thread[i]));
    norm = std::max(norm, std::abs(s_serial[i]));
  }
  EXPECT_LT(dmax, 1e-12 * std::max(1.0, norm));
}

// Pinning another GEMM kernel between two sigmas: apply() packs the
// mixed-spin INT blocks again, so the second sigma has the bits of a fresh
// operator under the new kernel, and none of its GEMMs runs the old one
// (kernels may agree bitwise on a host, the dispatch counts cannot).
TEST(ThreadedSigma, KernelSwitchBetweenSigmasMatchesAFreshOperator) {
  const auto names = xl::gemm_kernel_names();
  if (names.size() < 2) GTEST_SKIP() << "one GEMM kernel on this host";
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(43);
  const auto c = rng.signed_vector(space.dimension());
  fcp::ParallelOptions opt;
  opt.num_ranks = 4;
  opt.execution = fcp::ExecutionMode::kThreads;
  opt.num_threads = 2;

  xfci::obs::Registry& reg = xfci::obs::telemetry();
  struct Restore {  // the default kernel and the telemetry switch
    xfci::obs::Registry& reg;
    bool was_enabled;
    ~Restore() {
      reg.set_enabled(was_enabled);
      xl::set_gemm_kernel("");
    }
  } restore{reg, reg.enabled()};
  reg.set_enabled(true);
  const auto dispatched = [&reg](const std::string& kernel) {
    namespace m = xfci::obs::metric;
    const xfci::obs::Snapshot snap = reg.snapshot();
    const auto* s = snap.find(m::kGemmKernelDispatch.name,
                              {{m::kLabelKernel, kernel}});
    return s == nullptr ? std::uint64_t{0} : s->value;
  };
  for (const auto& from : names)
    for (const auto& to : names) {
      if (from == to) continue;
      ASSERT_TRUE(xl::set_gemm_kernel(from));
      fcp::ParallelSigma op(ctx, opt);
      std::vector<double> first(c.size()), second(c.size());
      op.apply(c, first);
      ASSERT_TRUE(xl::set_gemm_kernel(to));
      const std::uint64_t old_kernel_calls = dispatched(from);
      op.apply(c, second);
      EXPECT_EQ(dispatched(from), old_kernel_calls) << from << " -> " << to;
      const auto fresh = run_sigma(ctx, opt, c);
      EXPECT_EQ(std::memcmp(second.data(), fresh.data(),
                            c.size() * sizeof(double)),
                0)
          << from << " -> " << to;
    }
}

TEST(ThreadedSigma, MocBackendMatchesSimulate) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(31);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  opt.algorithm = xf::Algorithm::kMoc;
  const auto reference = run_sigma(ctx, opt, c);

  fcp::ParallelOptions topt = opt;
  topt.execution = fcp::ExecutionMode::kThreads;
  topt.num_threads = 2;
  const auto sigma = run_sigma(ctx, topt, c);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_EQ(sigma[i], reference[i]) << "element " << i;
}

TEST(ThreadedSigma, Ms0TransposeShortcutStaysDeterministic) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  // Definite-parity vector so the transpose shortcut engages.
  xfci::Rng rng(41);
  const auto raw = rng.signed_vector(space.dimension());
  std::vector<double> pc;
  space.transpose_vector(raw, pc);
  std::vector<double> c(raw.size());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = raw[i] + pc[i];

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  const auto reference = run_sigma(ctx, opt, c);

  fcp::ParallelOptions topt = opt;
  topt.execution = fcp::ExecutionMode::kThreads;
  topt.num_threads = 4;
  const auto sigma = run_sigma(ctx, topt, c);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_EQ(sigma[i], reference[i]) << "element " << i;
}

TEST(ThreadedSolve, ReproducesSimulatedEnergyAndReportsWallClock) {
  const auto& tables = be_tables();
  fcp::ParallelOptions opt;
  opt.num_ranks = 2;
  const auto simulated = fcp::run_parallel_fci(tables, 2, 2, 0, opt);

  fcp::ParallelOptions topt = opt;
  topt.execution = fcp::ExecutionMode::kThreads;
  topt.num_threads = 2;
  const auto threaded = fcp::run_parallel_fci(tables, 2, 2, 0, topt);

  EXPECT_TRUE(threaded.solve.converged);
  EXPECT_NEAR(threaded.solve.energy, simulated.solve.energy, 1e-10);
  // The threads backend reports real wall-clock, not simulated X1 time.
  EXPECT_GT(threaded.metrics.total_seconds, 0.0);
  EXPECT_EQ(threaded.metrics.per_sigma.comm_words, 0.0);
}
