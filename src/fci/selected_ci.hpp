#pragma once
// Excitation-truncated (selected) CI: CIS, CISD, CISDT, ... relative to a
// reference determinant.
//
// The paper's opening argument is that full CI "provides a vital tool in
// the evaluation and development of other quantum chemistry methods"; this
// module supplies the methods being calibrated.  The truncated space does
// not factorize into alpha x beta strings, so instead of the DGEMM sigma
// machinery it enumerates the selected determinants, builds the sparse
// Hamiltonian once by the Slater-Condon rules (screened by excitation
// distance), and Davidson-iterates on it.  Intended for spaces up to a few
// hundred thousand determinants.

#include <cstddef>
#include <vector>

#include "fci/ci_space.hpp"
#include "fci/slater_condon.hpp"
#include "integrals/tables.hpp"

namespace xfci::fci {

/// Number of excitations of `det` relative to `ref` (holes in the
/// reference occupation, both spins).
std::size_t excitation_level(const Determinant& ref, const Determinant& det);

/// All determinants of the (nalpha, nbeta, target irrep) sector within
/// `max_level` excitations of the reference (the aufbau determinant unless
/// given).  Level >= nalpha + nbeta reproduces the FCI space.
std::vector<Determinant> truncated_space(
    const integrals::IntegralTables& ints, std::size_t nalpha,
    std::size_t nbeta, std::size_t target_irrep, std::size_t max_level);

/// Sparse symmetric Hamiltonian over an explicit determinant list.
class SparseHamiltonian {
 public:
  /// Builds the nonzero elements <i|H|j> (i <= j) above `threshold`.
  SparseHamiltonian(const integrals::IntegralTables& ints,
                    const std::vector<Determinant>& dets,
                    double threshold = 1e-14);

  std::size_t dimension() const { return diag_.size(); }
  const std::vector<double>& diagonal() const { return diag_; }

  /// y = H x.
  void apply(std::span<const double> x, std::span<double> y) const;

 private:
  std::vector<double> diag_;
  // Strictly-upper nonzeros in CSR-like arrays.
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

struct SelectedCiResult {
  bool converged = false;
  double energy = 0.0;        ///< incl. core energy
  std::size_t dimension = 0;
  std::size_t iterations = 0;
};

/// Solves the truncated CI problem: CIS (level 1), CISD (2), CISDT (3)...
/// `max_level >= nalpha + nbeta` gives FCI (matching run_fci energies).
SelectedCiResult run_truncated_ci(const integrals::IntegralTables& ints,
                                  std::size_t nalpha, std::size_t nbeta,
                                  std::size_t target_irrep,
                                  std::size_t max_level,
                                  double residual_tolerance = 1e-6,
                                  std::size_t max_iterations = 200);

}  // namespace xfci::fci
