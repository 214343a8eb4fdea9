// FCIDUMP command-line tool: export xfci integrals for other programs, or
// solve an FCIDUMP produced elsewhere (MOLPRO, PySCF, OpenMolcas) with the
// paper's DGEMM-based FCI.
//
//   fcidump_tool write <molecule> <basis> <file>   export integrals
//   fcidump_tool solve <file> [group] [irrep]      read + FCI ground state
//
// Molecules: h2, water, methanol, h2o2, cn+, o, o-, c2.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "fci/fci.hpp"
#include "fci_parallel/driver_cli.hpp"
#include "integrals/fcidump.hpp"
#include "systems/standard_systems.hpp"

namespace xs = xfci::systems;
namespace xf = xfci::fci;
namespace xi = xfci::integrals;

namespace {

xs::PreparedSystem by_name(const std::string& name,
                           const xs::SpaceOptions& opt) {
  if (name == "h2") return xs::h2(1.4, opt);
  if (name == "water") return xs::water(opt);
  if (name == "methanol") return xs::methanol(opt);
  if (name == "h2o2") return xs::hydrogen_peroxide(opt);
  if (name == "cn+") return xs::cn_cation(opt);
  if (name == "o") return xs::oxygen_atom(opt);
  if (name == "o-") return xs::oxygen_anion(opt);
  if (name == "c2") return xs::carbon_dimer(opt);
  std::fprintf(stderr, "unknown molecule '%s'\n", name.c_str());
  std::exit(1);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fcidump_tool write <molecule> <basis> <file>\n"
               "  fcidump_tool solve <file> [group] [irrep]\n");
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "write") {
    if (argc != 5) return usage();
    xs::SpaceOptions opt;
    opt.basis = argv[3];
    const auto sys = by_name(argv[2], opt);
    xi::write_fcidump(argv[4], sys.tables, sys.nalpha, sys.nbeta);
    std::printf("wrote %s: norb=%zu nelec=%zu group=%s E(SCF)=%.8f\n",
                argv[4], sys.tables.norb, sys.nalpha + sys.nbeta,
                sys.tables.group.name().c_str(), sys.scf_energy);
    return 0;
  }

  if (mode == "solve") {
    if (argc < 3) return usage();
    const std::string group = argc > 3 ? argv[3] : "C1";
    const auto data = xi::read_fcidump(argv[2], group);
    std::size_t irrep = data.isym;
    if (argc > 4 && (!xfci::fcp::parse_count(argv[4], irrep) ||
                     irrep >= data.tables.group.num_irreps()))
      return usage();
    std::printf("read %s: norb=%zu nalpha=%zu nbeta=%zu group=%s irrep=%zu\n",
                argv[2], data.tables.norb, data.nalpha, data.nbeta,
                group.c_str(), irrep);
    const auto res =
        xf::run_fci(data.tables, data.nalpha, data.nbeta, irrep);
    std::printf("E(FCI) = %.10f Eh  (%zu determinants, %zu iterations, %s)\n",
                res.solve.energy, res.dimension, res.solve.iterations,
                res.solve.converged ? "converged" : "NOT converged");
    std::printf("<S^2>  = %.6f\n", res.s_squared);
    return 0;
  }
  return usage();
}

}  // namespace

// An unreadable file or an unsolvable request (an empty target irrep, a
// malformed FCIDUMP) is reported on stderr with exit status 1.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcidump_tool: %s\n", e.what());
    return 1;
  }
}
