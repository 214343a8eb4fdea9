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

#include <algorithm>
#include <cmath>
#include <cstdio>
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
  return 0;
}
