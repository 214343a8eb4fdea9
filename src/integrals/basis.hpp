#pragma once
// Contracted Cartesian Gaussian basis sets.
//
// A Shell is one contracted Gaussian of angular momentum l on one center;
// it expands into (l+1)(l+2)/2 Cartesian components (x^i y^j z^k with
// i+j+k = l), each individually normalized.  A BasisSet is the ordered
// shell list for a molecule plus the AO bookkeeping the integral engines
// and the SCF need.
//
// Built-in libraries (see basis_data.cpp):
//   "sto-3g"  - the classic 3-Gaussian STO fits (H..Ne), generated from the
//               published fit parameters and Slater exponents.
//   "x-dz"    - even-tempered split-valence double-zeta (H..Ne).
//   "x-dzp"   - x-dz plus one polarization shell per atom.
//   "x-tz"    - even-tempered triple-zeta used by the large scaling runs.

#include <array>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "chem/pointgroup.hpp"

namespace xfci::integrals {

/// One primitive Gaussian: exponent and contraction coefficient.  The
/// coefficient already includes the radial primitive normalization; the
/// per-Cartesian-component double-factorial factor is applied by the
/// integral engine.
struct Primitive {
  double exponent = 0.0;
  double coefficient = 0.0;
};

/// One contracted shell.
struct Shell {
  int l = 0;                               ///< angular momentum
  std::size_t atom = 0;                    ///< owning atom index
  std::array<double, 3> center = {0, 0, 0};  ///< center (bohr)
  std::vector<Primitive> primitives;
  std::size_t ao_offset = 0;  ///< index of the first AO of this shell

  /// Number of Cartesian components: (l+1)(l+2)/2.
  std::size_t num_components() const {
    return static_cast<std::size_t>((l + 1) * (l + 2) / 2);
  }
};

/// Cartesian component exponents (lx, ly, lz) of component c of a shell
/// with angular momentum l, in canonical order (x-major):
/// l=1 -> x, y, z;  l=2 -> xx, xy, xz, yy, yz, zz; ...
std::array<int, 3> cartesian_component(int l, std::size_t c);

/// Ordered shell list + AO bookkeeping for a molecule.
class BasisSet {
 public:
  /// Builds the named built-in basis on the molecule.  Throws for unknown
  /// basis names or unsupported elements.
  static BasisSet build(const std::string& name, const chem::Molecule& mol);

  /// Builds a basis from an explicit shell list (normalization applied).
  /// Used for custom/test bases.
  static BasisSet from_shells(std::vector<Shell> shells,
                              std::string name = "custom");

  const std::vector<Shell>& shells() const { return shells_; }
  std::size_t num_ao() const { return nao_; }
  const std::string& name() const { return name_; }

  /// Atom owning AO index `ao`.
  std::size_t ao_atom(std::size_t ao) const { return ao_atom_.at(ao); }

  /// Shell index owning AO index `ao`.
  std::size_t ao_shell(std::size_t ao) const { return ao_shell_.at(ao); }

  /// Cartesian exponents (lx, ly, lz) of AO `ao`.
  std::array<int, 3> ao_cartesian(std::size_t ao) const;

  /// Representation of a point-group operation in the AO basis.  For our
  /// sign-flip groups every AO maps to exactly one AO (on the image atom)
  /// with a sign (-1)^(parity of flipped-axis exponents); the result gives
  /// image index and sign per AO.  Throws if the molecule is not invariant.
  struct AoMap {
    std::vector<std::size_t> image;
    std::vector<double> sign;
  };
  AoMap ao_mapping(const chem::Molecule& mol, const chem::PointGroup& group,
                   std::size_t op_index) const;

 private:
  std::string name_;
  std::vector<Shell> shells_;
  std::size_t nao_ = 0;
  std::vector<std::size_t> ao_atom_;
  std::vector<std::size_t> ao_shell_;

  void finalize();  // assigns offsets, bookkeeping, normalization
};

}  // namespace xfci::integrals
