// Ablation of the symmetry machinery on the C2 benchmark system:
//  (a) D2h symmetry blocking vs unblocked C1 (space size and sigma time);
//  (b) the Ms = 0 transpose shortcut ("Vector Symm.", paper Table 3) taken
//      or not: on a vector of definite transpose parity the alpha-side
//      same-spin phase is replaced by one transpose.

#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
using namespace xfci::bench;

namespace {

struct Row {
  std::size_t dim;
  fcp::PhaseBreakdown b;
};

// One sigma on a seeded vector.  The DGEMM sigma takes the Ms = 0
// shortcut exactly when the vector has definite transpose parity, so the
// no-shortcut rows apply it to the raw vector and the shortcut row to its
// symmetric part (the physical sector of the X 1Sigma_g+ ground state).
Row run(const xs::PreparedSystem& sys, bool symmetric) {
  const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                          sys.tables.group, sys.tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, sys.tables);
  fcp::ParallelOptions opt;
  opt.num_ranks = 24;
  opt.cost = opt.cost.with_overhead_scale(fcp::kDriverOverheadScale);
  fcp::ParallelSigma op(ctx, opt);

  xfci::Rng rng(3);
  std::vector<double> c = rng.signed_vector(space.dimension());
  if (symmetric) {
    std::vector<double> pc;
    space.transpose_vector(c, pc);
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = 0.5 * (c[i] + pc[i]);
  }

  std::vector<double> s(c.size());
  op.apply(c, s);
  return {space.dimension(), op.breakdown()};
}

}  // namespace

int main() {
  std::printf(
      "Symmetry ablations on C2 FCI(8,14), 24 simulated MSPs, one sigma.\n\n");

  xs::SpaceOptions o;
  o.basis = "x-dz";
  o.freeze_core = 2;
  o.max_orbitals = 14;
  const auto d2h = xs::carbon_dimer(o);
  o.use_symmetry = false;
  const auto c1 = xs::carbon_dimer(o);

  const Row rows[3] = {run(c1, false), run(d2h, false), run(d2h, true)};
  const char* names[3] = {"C1, no shortcut", "D2h blocked",
                          "D2h + Ms0 transpose"};

  print_row({"Configuration", "dim", "same-spin", "alpha-beta", "transpose",
             "total"},
            20);
  print_rule(6, 20);
  for (int i = 0; i < 3; ++i) {
    const auto& b = rows[i].b;
    print_row({names[i], std::to_string(rows[i].dim),
               fmt_seconds(b.beta_side + b.alpha_side), fmt_seconds(b.mixed),
               fmt_seconds(b.transpose), fmt_seconds(b.total)},
              20);
  }
  std::printf(
      "\nExpected: D2h blocking shrinks the space ~8x and the sigma time\n"
      "with it; the Ms0 shortcut removes roughly half the remaining\n"
      "same-spin work for one extra transpose (the paper's Table 3 lists\n"
      "'Vector Symm.' at 11 s against a 62 s same-spin phase).\n");
  return 0;
}
