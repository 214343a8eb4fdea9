// Wall-clock scaling of the std::thread execution backend
// (ExecutionMode::kThreads): the same DGEMM sigma build the simulator
// times on virtual MSPs, executed for real on 1..N host threads.
//
// System: water / x-dzp truncated to a Ne-like (10-electron) FCI space of
// a few hundred thousand determinants -- big enough that the mixed-spin
// DGEMMs dominate, small enough to run in seconds.
//
// Two columns matter:
//   speedup     wall-clock t(1 thread) / t(T threads); on a multi-core
//               host the target is >= 2x at 4 threads.  Rows with more
//               threads than the host has cores cannot speed up further;
//               the backend is still exercised end to end.
//   max |diff|  element-wise deviation from the 1-thread sigma; the
//               ordered-commit reduction makes this exactly 0 for every
//               thread count.
// A second table splits t/sigma into the phase rows (PhaseBreakdown).  The
// vector is random, so both same-spin sides run: this is the tree's one
// run of the alpha side on real threads at scale.
//
// A third table prices splitting one rank's same-spin work over many: the
// beta side per sigma on one thread at 1, 4 and 16 ranks, on the C2 space
// of bench_profile's c2_threads workload (x-dz, 2 frozen cores, 14
// orbitals, D2h) and a parity-pure vector, as every C2 iterate is.  The
// three rank counts alternate in one process, so their ratio survives the
// host's drift between runs.
//
// A fourth table times the mixed-spin phase (PhaseBreakdown::mixed) per
// sigma on one rank and one thread, for that C2 space and its C1 twin
// (use_symmetry = false, about 1.0 M determinants), on a random vector,
// the two spaces alternated sigma by sigma.  Built against another commit's
// libraries, the same source gives that commit's column for a ratio.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
using namespace xfci::bench;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The beta side per sigma (median of 9) on one thread at 1, 4 and 16
// ranks, the rank counts alternated sigma by sigma.
void print_rank_split() {
  xs::SpaceOptions o;
  o.basis = "x-dz";
  o.freeze_core = 2;
  o.max_orbitals = 14;
  const auto sys = xs::carbon_dimer(o);
  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps,
                          sys.ground_irrep);
  const xf::SigmaContext ctx(space, sys.tables);

  // c + P c has transpose parity +1 exactly: the Ms = 0 shortcut runs the
  // beta side alone.
  xfci::Rng rng(11);
  std::vector<double> c = rng.signed_vector(space.dimension());
  std::vector<double> pc;
  space.transpose_vector(c, pc);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] += pc[i];

  const std::size_t ranks[] = {1, 4, 16};
  std::vector<std::unique_ptr<fcp::ParallelSigma>> ops;
  for (const std::size_t r : ranks) {
    fcp::ParallelOptions opt;
    opt.num_ranks = r;
    opt.execution = fcp::ExecutionMode::kThreads;
    opt.num_threads = 1;
    ops.push_back(std::make_unique<fcp::ParallelSigma>(ctx, opt));
  }
  std::vector<double> s(c.size());
  for (auto& op : ops) op->apply(c, s);  // warm-up
  constexpr int kSigmas = 9;
  std::vector<std::vector<double>> beta(ops.size());
  for (int rep = 0; rep < kSigmas; ++rep)
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i]->reset_breakdown();
      ops[i]->apply(c, s);
      beta[i].push_back(ops[i]->breakdown().beta_side);
    }

  std::printf(
      "\nBeta side per sigma, one thread, C2 (CI dimension %zu, D2h,\n"
      "parity-pure vector; median of %d sigmas, rank counts alternated)\n",
      space.dimension(), kSigmas);
  print_row({"ranks", "beta side", "vs 1 rank"});
  print_rule(3);
  const double one = median(beta[0]);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double t = median(beta[i]);
    print_row({std::to_string(ranks[i]), fmt_seconds(t),
               fmt(t / one, "%.2f")});
  }
}

// The mixed-spin phase per sigma (median of 5) on one rank and one thread,
// for the C2 space and its C1 twin, alternated sigma by sigma.
void print_mixed_spin() {
  struct Space {
    const char* name;
    xs::PreparedSystem sys;
    std::unique_ptr<xf::CiSpace> space;
    std::unique_ptr<xf::SigmaContext> ctx;
    std::unique_ptr<fcp::ParallelSigma> op;
    std::vector<double> c, s, mixed;
  };
  std::vector<Space> spaces(2);
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    Space& x = spaces[i];
    xs::SpaceOptions o;
    o.basis = "x-dz";
    o.freeze_core = 2;
    o.max_orbitals = 14;
    o.use_symmetry = i == 0;
    x.name = i == 0 ? "C2, D2h" : "C2, C1 twin";
    x.sys = xs::carbon_dimer(o);
    x.space = std::make_unique<xf::CiSpace>(
        x.sys.tables.norb, x.sys.nalpha, x.sys.nbeta, x.sys.tables.group,
        x.sys.tables.orbital_irreps, x.sys.ground_irrep);
    x.ctx = std::make_unique<xf::SigmaContext>(*x.space, x.sys.tables);
    fcp::ParallelOptions opt;
    opt.num_ranks = 1;
    opt.execution = fcp::ExecutionMode::kThreads;
    opt.num_threads = 1;
    x.op = std::make_unique<fcp::ParallelSigma>(*x.ctx, opt);
    xfci::Rng rng(13);
    x.c = rng.signed_vector(x.space->dimension());
    x.s.resize(x.c.size());
    x.op->apply(x.c, x.s);  // warm-up
  }
  constexpr int kSigmas = 5;
  for (int rep = 0; rep < kSigmas; ++rep)
    for (Space& x : spaces) {
      x.op->reset_breakdown();
      x.op->apply(x.c, x.s);
      x.mixed.push_back(x.op->breakdown().mixed);
    }

  std::printf(
      "\nMixed-spin phase per sigma, one rank, one thread (random vector;\n"
      "median of %d sigmas, the spaces alternated)\n",
      kSigmas);
  print_row({"space", "dimension", "mixed spin"});
  print_rule(3);
  for (const Space& x : spaces)
    print_row({x.name, std::to_string(x.space->dimension()),
               fmt_seconds(median(x.mixed))});
}

}  // namespace

int main() {
  xs::SpaceOptions o;
  o.basis = "x-dzp";
  o.max_orbitals = 12;
  o.use_symmetry = false;  // unblocked: large DGEMM operands
  auto sys = xs::water(o);
  sys.ground_irrep = xs::scf_determinant_irrep(sys);

  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps,
                          sys.ground_irrep);
  const xf::SigmaContext ctx(space, sys.tables);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "Threaded sigma build, water (Ne-like 10e FCI space)\n"
      "CI dimension %zu, host hardware concurrency %u\n\n",
      space.dimension(), hw);

  xfci::Rng rng(9);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> reference;  // 1-thread sigma

  print_row({"threads", "t/sigma", "speedup", "GF/thread", "max |diff|"});
  print_rule(5);

  std::vector<std::size_t> counts = {1, 2, 4};
  for (unsigned t = 8; t <= hw; t *= 2) counts.push_back(t);
  double t1 = 0.0;
  std::vector<fcp::PhaseBreakdown> phases;
  for (const std::size_t nthreads : counts) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 16;
    opt.execution = fcp::ExecutionMode::kThreads;
    opt.num_threads = nthreads;
    fcp::ParallelSigma op(ctx, opt);

    std::vector<double> s(c.size());
    op.apply(c, s);  // warm-up (first-touch, pack buffers)
    op.reset_breakdown();
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) op.apply(c, s);
    phases.push_back(op.breakdown().averaged());
    const double t = phases.back().total;
    if (nthreads == 1) {
      t1 = t;
      reference = s;
    }
    double dmax = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i)
      dmax = std::max(dmax, std::abs(s[i] - reference[i]));
    const double gf =
        phases.back().flops / static_cast<double>(nthreads) / t / 1e9;
    print_row({std::to_string(nthreads), fmt_seconds(t),
               fmt(t1 / t, "%.2f"), fmt(gf, "%.2f"), fmt(dmax, "%.1e")});
  }

  std::printf("\nPhase rows per sigma (16 ranks)\n");
  print_row({"threads", "beta side", "alpha side", "transpose", "mixed"});
  print_rule(5);
  for (std::size_t i = 0; i < counts.size(); ++i)
    print_row({std::to_string(counts[i]), fmt_seconds(phases[i].beta_side),
               fmt_seconds(phases[i].alpha_side),
               fmt_seconds(phases[i].transpose), fmt_seconds(phases[i].mixed)});

  std::printf(
      "\nDeterminism contract: max |diff| must be exactly 0 for every row\n"
      "(ordered chunk commit fixes the accumulation order).\n");

  print_rank_split();
  std::printf(
      "\n'vs 1 rank' is the cost of splitting one rank's same-spin work:\n"
      "each rank's views hold fewer rows, so the kernel stacks more (N-2)\n"
      "strings into each GEMM to keep it wide.\n");

  print_mixed_spin();
  return 0;
}
