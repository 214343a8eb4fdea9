#pragma once
// Test-only dense references: random symmetry-blocked integral tables and
// the sigma of the explicit Slater-Condon Hamiltonian, for checking the
// library's sigma operators on spaces small enough to store H.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "integrals/tables.hpp"
#include "linalg/gemm.hpp"

namespace xfci::oracle {

// Random integral tables respecting the orbital irrep structure: h is
// irrep-blocked, (pq|rs) vanishes unless the four irreps multiply to the
// totally symmetric irrep.
inline integrals::IntegralTables random_tables(
    std::size_t norb, const std::string& group,
    std::vector<std::size_t> irreps, std::uint64_t seed) {
  Rng rng(seed);
  integrals::IntegralTables t = integrals::IntegralTables::empty(norb);
  t.group = chem::PointGroup::make(group);
  t.orbital_irreps = std::move(irreps);
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      const double v = (t.orbital_irreps[p] == t.orbital_irreps[q])
                           ? rng.uniform(-1, 1)
                           : 0.0;
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const std::size_t h4 = t.group.product(
              t.group.product(t.orbital_irreps[p], t.orbital_irreps[q]),
              t.group.product(t.orbital_irreps[r], t.orbital_irreps[s]));
          t.eri.set(p, q, r, s, h4 == 0 ? rng.uniform(-1, 1) : 0.0);
        }
  return t;
}

// sigma = H c with H built once by build_dense_hamiltonian.
class SigmaDense : public fci::SigmaOperator {
 public:
  SigmaDense(const fci::CiSpace& space, const integrals::IntegralTables& ints)
      : space_(space), h_(fci::build_dense_hamiltonian(space, ints)) {}

  void apply(std::span<const double> c, std::span<double> sigma) override {
    linalg::gemm(false, false, h_.rows(), 1, h_.cols(), 1.0, h_.data(),
                 h_.cols(), c.data(), 1, 0.0, sigma.data(), 1);
  }
  const fci::CiSpace& space() const override { return space_; }

 private:
  const fci::CiSpace& space_;
  linalg::Matrix h_;
};

}  // namespace xfci::oracle
