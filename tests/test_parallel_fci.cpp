// Tests for the distributed FCI driver: the serial sigma (make_sigma, the
// engines on one rank) must be bitwise the parallel one for every rank
// count, backend and both algorithms, and agree to rounding with the
// tests' serial reference; simulated time must show the paper's scaling
// shapes (DGEMM scales, replicated MOC same-spin does not); the full
// parallel solve must reproduce the serial energy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "parallel/shm_ipc.hpp"
#include "scf/scf.hpp"
#include "serial_sigma.hpp"

#if defined(__SANITIZE_THREAD__)
#define XFCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XFCI_TSAN 1
#endif
#endif
#ifndef XFCI_TSAN
#define XFCI_TSAN 0
#endif

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

namespace {

// Shared medium test system: Be atom in a split basis -> D2h symmetry,
// a few thousand determinants.
const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

// Open-shell variant (B-like occupation on Be tables is fine for sigma
// identity tests; 3 alpha / 1 beta).
struct ParCase {
  std::size_t nranks;
  xf::Algorithm alg;
};

// gtest names each case by the raw bytes of its ParCase, padding included.
// A constant table in static storage has zeroed padding, so the names are
// the same on every build; temporaries would carry stack garbage there.
// Both algorithms cover 1, 3, 7 and 16 ranks.
constexpr ParCase kParCases[] = {
    {1, xf::Algorithm::kDgemm}, {2, xf::Algorithm::kDgemm},
    {3, xf::Algorithm::kDgemm}, {5, xf::Algorithm::kDgemm},
    {8, xf::Algorithm::kDgemm}, {16, xf::Algorithm::kDgemm},
    {1, xf::Algorithm::kMoc},   {2, xf::Algorithm::kMoc},
    {4, xf::Algorithm::kMoc},   {7, xf::Algorithm::kMoc},
    {7, xf::Algorithm::kDgemm}, {3, xf::Algorithm::kMoc},
    {16, xf::Algorithm::kMoc}};

// Every backend at `nranks`: sim, threads on 3 threads, and process where
// fork and shm work (not under tsan).
std::vector<fcp::ParallelOptions> every_backend(std::size_t nranks,
                                                xf::Algorithm alg) {
  std::vector<fcp::ParallelOptions> backends(2);
  backends[1].execution = fcp::ExecutionMode::kThreads;
  backends[1].num_threads = 3;
  if (!XFCI_TSAN && xfci::pv::process_backend_supported())
    backends.emplace_back().execution = fcp::ExecutionMode::kProcess;
  for (auto& opt : backends) {
    opt.num_ranks = nranks;
    opt.algorithm = alg;
  }
  return backends;
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double dmax = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dmax = std::max(dmax, std::abs(a[i] - b[i]));
    norm = std::max(norm, std::abs(b[i]));
  }
  return dmax / std::max(1.0, norm);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

class ParallelInvariance : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelInvariance, SigmaMatchesSerial) {
  const auto [nranks, alg] = GetParam();
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);

  auto serial = xf::make_sigma(alg, ctx);
  xfci::oracle::SigmaSerial reference(ctx, alg);
  std::vector<std::unique_ptr<fcp::ParallelSigma>> parallel;
  for (const auto& opt : every_backend(nranks, alg))
    parallel.push_back(std::make_unique<fcp::ParallelSigma>(ctx, opt));

  // A random vector, and (nalpha = nbeta) a parity-pure one, which takes
  // the Ms = 0 shortcut.
  xfci::Rng rng(17);
  std::vector<std::vector<double>> inputs{
      rng.signed_vector(space.dimension())};
  if (space.nalpha() == space.nbeta()) {
    std::vector<double> pc;
    space.transpose_vector(inputs[0], pc);
    for (std::size_t i = 0; i < pc.size(); ++i) pc[i] += inputs[0][i];
    ASSERT_EQ(space.transpose_parity(pc), 1);
    inputs.push_back(std::move(pc));
  }
  for (std::size_t v = 0; v < inputs.size(); ++v) {
    const auto& c = inputs[v];
    std::vector<double> s1(c.size()), ref(c.size()), s2(c.size());
    serial->apply(c, s1);
    reference.apply(c, ref);
    EXPECT_LT(max_rel_diff(s1, ref), 1e-11)
        << "P=" << nranks << " alg=" << xf::algorithm_name(alg)
        << " input " << v;
    for (const auto& p : parallel) {
      p->apply(c, s2);
      EXPECT_TRUE(same_bits(s2, s1))
          << p->ddi().name() << " P=" << nranks
          << " alg=" << xf::algorithm_name(alg) << " input " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, ParallelInvariance,
                         ::testing::ValuesIn(kParCases));

TEST(ParallelFci, OpenShellSigmaMatchesSerial) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 1, tables.group,
                          tables.orbital_irreps, 2);
  const xf::SigmaContext ctx(space, tables);
  xfci::oracle::SigmaSerial serial(ctx, xf::Algorithm::kDgemm);
  fcp::ParallelOptions opt;
  opt.num_ranks = 6;
  fcp::ParallelSigma parallel(ctx, opt);

  xfci::Rng rng(23);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  serial.apply(c, s1);
  parallel.apply(c, s2);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(s2[i], s1[i], 1e-11);
}

TEST(ParallelFci, AllAlphaEdgeCaseMatchesSerial) {
  // nbeta = 0: the mixed-spin phase vanishes and the beta-side kernels
  // no-op; the alpha-side path must still reproduce the serial sigma.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 0, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::oracle::SigmaSerial serial(ctx, xf::Algorithm::kDgemm);
  fcp::ParallelOptions opt;
  opt.num_ranks = 5;
  fcp::ParallelSigma parallel(ctx, opt);

  xfci::Rng rng(31);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  serial.apply(c, s1);
  parallel.apply(c, s2);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(s2[i], s1[i], 1e-12);
}

TEST(ParallelFci, SimulatedTimeIsDeterministic) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  fcp::ParallelOptions opt;
  opt.num_ranks = 8;

  double elapsed[2];
  for (int trial = 0; trial < 2; ++trial) {
    fcp::ParallelSigma op(ctx, opt);
    xfci::Rng rng(5);
    const auto c = rng.signed_vector(space.dimension());
    std::vector<double> s(c.size());
    op.apply(c, s);
    elapsed[trial] = op.ddi().elapsed();
  }
  EXPECT_DOUBLE_EQ(elapsed[0], elapsed[1]);
  EXPECT_GT(elapsed[0], 0.0);
}

TEST(ParallelFci, DgemmSigmaScalesMocSameSpinDoesNot) {
  // The Fig. 4 shape: doubling ranks roughly halves the DGEMM sigma time,
  // while the replicated MOC same-spin phase stays flat.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(9);
  const auto c = rng.signed_vector(space.dimension());

  auto run = [&](std::size_t p, xf::Algorithm alg) {
    fcp::ParallelOptions opt;
    opt.num_ranks = p;
    opt.algorithm = alg;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    return op.breakdown();
  };

  const auto d4 = run(4, xf::Algorithm::kDgemm);
  const auto d16 = run(16, xf::Algorithm::kDgemm);
  // Mixed-spin (dominant phase) speeds up substantially.
  EXPECT_LT(d16.mixed, 0.5 * d4.mixed);

  const auto m4 = run(4, xf::Algorithm::kMoc);
  const auto m16 = run(16, xf::Algorithm::kMoc);
  // Replicated element generation: the same-spin phases barely improve.
  const double ss4 = m4.beta_side + m4.alpha_side;
  const double ss16 = m16.beta_side + m16.alpha_side;
  EXPECT_GT(ss16, 0.6 * ss4);
  // And MOC is slower than DGEMM at the same rank count.
  EXPECT_GT(m16.total, d16.total);
}

TEST(ParallelFci, CommunicationCountsMatchTable1Model) {
  // DGEMM mixed-spin moves ~3 Nci Nalpha words (1x gather + 2x accumulate);
  // MOC moves ~Nci Nalpha (n - Nalpha) gather words.  Check the measured
  // counter ratios against the model within a factor allowing for symmetry
  // blocking and boundary effects.
  const auto& tables = be_tables();
  const std::size_t na = 2, nb = 2;
  const xf::CiSpace space(tables.norb, na, nb, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(3);
  const auto c = rng.signed_vector(space.dimension());

  auto comm_of = [&](xf::Algorithm alg) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 4;
    opt.algorithm = alg;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    // Only the mixed phase moves per-column traffic; subtract nothing and
    // compare orders of magnitude.
    double words = 0.0;
    for (std::size_t r = 0; r < 4; ++r) {
      const auto& cc = op.ddi().counters(r);
      words += cc.get_words + 2.0 * cc.acc_words;
    }
    return words;
  };

  const double dgemm_words = comm_of(xf::Algorithm::kDgemm);
  const double moc_words = comm_of(xf::Algorithm::kMoc);
  // n = 16-ish orbitals: MOC should move several times more data.
  EXPECT_GT(moc_words, 2.0 * dgemm_words);
}

TEST(ParallelFci, FullSolveMatchesSerialEnergy) {
  const auto& tables = be_tables();
  const auto serial = xf::run_fci(tables, 2, 2, 0);
  ASSERT_TRUE(serial.solve.converged);

  fcp::ParallelOptions opt;
  opt.num_ranks = 8;
  const auto par = fcp::run_parallel_fci(tables, 2, 2, 0, opt);
  EXPECT_TRUE(par.solve.converged);
  EXPECT_NEAR(par.solve.energy, serial.solve.energy, 1e-9);
  EXPECT_EQ(par.metrics.dimension, serial.dimension);
  EXPECT_GT(par.metrics.total_seconds, 0.0);
  EXPECT_GT(par.metrics.gflops_per_rank(), 0.0);
  // Breakdown rows were populated.
  EXPECT_GT(par.metrics.per_sigma.mixed, 0.0);
  EXPECT_GT(par.metrics.per_sigma.beta_side, 0.0);
  EXPECT_GT(par.metrics.per_sigma.transpose, 0.0);
}

TEST(ParallelFci, SpeedupImprovesWithRanks) {
  // Fig. 5 shape: near-linear speedup of the full DGEMM iteration.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(1);
  const auto c = rng.signed_vector(space.dimension());

  auto time_of = [&](std::size_t p) {
    fcp::ParallelOptions opt;
    opt.num_ranks = p;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    return op.ddi().elapsed();
  };
  const double t2 = time_of(2);
  const double t8 = time_of(8);
  const double speedup = t2 / t8;
  // Ideal would be 4; demand at least 2.2 on this small problem.
  EXPECT_GT(speedup, 2.2);
}

TEST(ParallelFci, AggregationReducesDlbTraffic) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(2);
  const auto c = rng.signed_vector(space.dimension());

  auto dlb_calls = [&](bool aggregate) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 8;
    opt.lb.aggregate = aggregate;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    std::size_t calls = 0;
    for (std::size_t r = 0; r < 8; ++r)
      calls += op.ddi().counters(r).dlb_calls;
    return calls;
  };
  EXPECT_LT(dlb_calls(true), dlb_calls(false));
}
