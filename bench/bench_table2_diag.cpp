// Reproduces Table 2: "Iterations Required by Various Diagonalization
// Methods for (1e-10 Eh) Convergence Criteria".
//
// Paper (full bases, dimensions 18M - 506M):
//   Molecule   Davidson  Olsen    Olsen(l=0.7)  Auto
//   H3COH          17      NC          19        15
//   H2O2           17      NC          22        15
//   CN+            41      >>60        NC        22
//   O              13      14          18        11
//
// Here: the same four molecules in frozen-core truncated spaces (DESIGN.md
// section 2) -- the iteration counts depend on the conditioning of the
// eigenproblem, so the *shape* must reproduce: the plain Olsen update is
// fragile (diverges or crawls on the multireference CN+), the damped
// version helps but is not robust, and the paper's automatically adjusted
// single-vector method converges everywhere in the fewest or nearly the
// fewest iterations.  A run counts by its final energy against the row's
// E(FCI) (a Davidson solve), so that one which converges onto an excited
// state is not mistaken for a converged one.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "fci/fci.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
using namespace xfci::bench;

namespace {

// "div" when the run converges more than 1e-6 Eh from the row's FCI
// energy e_fci, else its iteration count when it converged, else "NC".
std::string run_method(const xs::PreparedSystem& sys, xf::Method m,
                       double e_fci) {
  xf::FciOptions opt;
  opt.solver.method = m;
  opt.solver.energy_tolerance = 1e-10;
  opt.solver.residual_tolerance = 1e-5;
  opt.solver.max_iterations = 60;
  opt.solver.model_space = 60;
  const auto res =
      xf::run_fci(sys.tables, sys.nalpha, sys.nbeta, sys.ground_irrep, opt);
  if (!res.solve.converged) return "NC";
  if (std::abs(res.solve.energy - e_fci) > 1e-6) return "div";
  return std::to_string(res.solve.iterations);
}

}  // namespace

int main() {
  std::printf(
      "Table 2: iterations of the diagonalization methods (1e-10 Eh)\n"
      "Paper shape: Olsen NC on H3COH/H2O2, >>60 on CN+; damped Olsen NC on\n"
      "CN+; Auto converges everywhere with the fewest iterations.\n\n");

  std::vector<xs::PreparedSystem> systems;
  {
    xs::SpaceOptions o;
    o.basis = "sto-3g";
    o.freeze_core = 2;
    o.max_orbitals = 11;
    systems.push_back(xs::methanol(o));
  }
  {
    xs::SpaceOptions o;
    o.basis = "sto-3g";
    o.freeze_core = 2;
    systems.push_back(xs::hydrogen_peroxide(o));
  }
  {
    xs::SpaceOptions o;
    o.basis = "sto-3g";
    o.freeze_core = 2;
    systems.push_back(xs::cn_cation(o));
  }
  {
    xs::SpaceOptions o;
    o.basis = "x-dz";
    o.freeze_core = 1;
    o.max_orbitals = 10;
    auto sys = xs::oxygen_atom(o);
    sys.ground_irrep = xs::find_ground_irrep(sys);
    systems.push_back(std::move(sys));
  }

  print_row({"Molecule", "Group", "Dimension", "Subspace", "Olsen",
             "Olsen(0.7)", "Auto", "E(FCI)"});
  print_rule(8);
  for (const auto& sys : systems) {
    const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                            sys.tables.group, sys.tables.orbital_irreps,
                            sys.ground_irrep);
    xf::FciOptions ref;
    ref.solver.method = xf::Method::kDavidson;
    const auto fci = xf::run_fci(sys.tables, sys.nalpha, sys.nbeta,
                                 sys.ground_irrep, ref);
    if (!fci.solve.converged) {
      std::fprintf(stderr, "%s: reference FCI solve did not converge\n",
                   sys.name.c_str());
      return 1;
    }
    std::vector<std::string> row = {sys.name, sys.tables.group.name(),
                                    std::to_string(space.dimension())};
    for (const auto m : {xf::Method::kSubspace2, xf::Method::kOlsen,
                         xf::Method::kModifiedOlsen,
                         xf::Method::kAutoAdjusted})
      row.push_back(run_method(sys, m, fci.solve.energy));
    row.push_back(fmt(fci.solve.energy, "%.6f"));
    print_row(row);
  }
  std::printf(
      "\nNC = not converged within 60 iterations; div = converged more than\n"
      "1e-6 Eh from E(FCI) (a Davidson solve), on an excited state.\n"
      "Iterations count sigma evaluations; all methods share the\n"
      "model-space Olsen preconditioner (exact H on the lowest-diagonal\n"
      "determinants).\n");
  return 0;
}
