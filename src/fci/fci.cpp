#include "fci/fci.hpp"

#include <cmath>

#include "fci/solve_session.hpp"
#include "fci_parallel/parallel_sigma.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {

std::unique_ptr<SigmaOperator> make_sigma(Algorithm algorithm,
                                          const SigmaContext& context) {
  fcp::ParallelOptions options;
  options.num_ranks = 1;
  options.algorithm = algorithm;
  options.execution = fcp::ExecutionMode::kThreads;
  options.num_threads = 1;
  return std::make_unique<fcp::ParallelSigma>(context, options);
}

FciResult run_fci(const integrals::IntegralTables& ints, std::size_t nalpha,
                  std::size_t nbeta, std::size_t target_irrep,
                  const FciOptions& options) {
  SolveSession session(SolveSetup::create(ints, nalpha, nbeta, target_irrep,
                                          options.algorithm));
  return session.solve(options.solver);
}

integrals::IntegralTables truncate_orbitals(
    const integrals::IntegralTables& full, std::size_t norb) {
  XFCI_REQUIRE(norb <= full.norb, "truncate_orbitals: too many orbitals");
  integrals::IntegralTables t = integrals::IntegralTables::empty(norb);
  t.core_energy = full.core_energy;
  t.group = full.group;
  t.orbital_irreps.resize(norb);
  for (std::size_t p = 0; p < norb; ++p) {
    t.orbital_irreps[p] =
        full.orbital_irreps.empty() ? 0 : full.orbital_irreps[p];
    for (std::size_t q = 0; q <= p; ++q) t.h(p, q) = t.h(q, p) = full.h(p, q);
  }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          t.eri.set(p, q, r, s, full.eri(p, q, r, s));
        }
  return t;
}

void apply_s_squared(const CiSpace& space, std::span<const double> c,
                     std::span<double> out) {
  XFCI_REQUIRE(c.size() == space.dimension() && out.size() == c.size(),
               "apply_s_squared size mismatch");
  const double sz = 0.5 * (static_cast<double>(space.nalpha()) -
                           static_cast<double>(space.nbeta()));
  const double diag = sz * sz + sz;
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = diag * c[i];

  // S-S+ term: out[J] += sign * c[I] over the determinant pairs connected
  // by moving a beta electron to the alpha set at orbital p and back from
  // alpha to beta at orbital q.  With alpha operators ordered before beta
  // operators, the two spin-crossing parities cancel, leaving pure string
  // signs.
  const StringSpace& sa = space.alpha();
  const StringSpace& sb = space.beta();
  for (const CiBlock& blk : space.blocks()) {
    for (std::size_t ia = 0; ia < blk.na; ++ia) {
      const StringMask a = sa.mask(blk.halpha, ia);
      for (std::size_t ib = 0; ib < blk.nb; ++ib) {
        const StringMask b = sb.mask(blk.hbeta, ib);
        const double c1 = c[blk.offset + ia * blk.nb + ib];
        if (c1 == 0.0) continue;
        // S+: move beta electron p (in b, not in a) to alpha.
        StringMask movable = b & ~a;
        while (movable) {
          const int p = __builtin_ctzll(movable);
          movable &= movable - 1;
          const int s1 = annihilate_sign(b, p) * create_sign(a, p);
          const StringMask a1 = a | (StringMask{1} << p);
          const StringMask b1 = b & ~(StringMask{1} << p);
          // S-: move alpha electron q (in a1, not in b1) back to beta.
          StringMask back = a1 & ~b1;
          while (back) {
            const int q = __builtin_ctzll(back);
            back &= back - 1;
            const int s2 = annihilate_sign(a1, q) * create_sign(b1, q);
            const StringMask a2 = a1 & ~(StringMask{1} << q);
            const StringMask b2 = b1 | (StringMask{1} << q);
            const std::size_t ha2 = sa.irrep_of(a2);
            const CiBlock* blk2 = space.block_for_alpha(ha2);
            XFCI_ASSERT(blk2 != nullptr, "S^2 left the CI space");
            out[blk2->offset + sa.address(a2) * blk2->nb +
                sb.address(b2)] += s1 * s2 * c1;
          }
        }
      }
    }
  }
}

double spin_project(const CiSpace& space, double s, std::span<double> c) {
  const double sz = 0.5 * (static_cast<double>(space.nalpha()) -
                           static_cast<double>(space.nbeta()));
  const double smax = 0.5 * (static_cast<double>(space.nalpha()) +
                             static_cast<double>(space.nbeta()));
  XFCI_REQUIRE(s + 1e-9 >= std::abs(sz) && s <= smax + 1e-9,
               "target spin unreachable from the electron counts");
  const double target = s * (s + 1.0);
  std::vector<double> tmp(c.size());
  for (double sp = std::abs(sz); sp <= smax + 1e-9; sp += 1.0) {
    if (std::abs(sp - s) < 1e-9) continue;
    const double other = sp * (sp + 1.0);
    apply_s_squared(space, c, tmp);
    const double denom = target - other;
    for (std::size_t i = 0; i < c.size(); ++i)
      c[i] = (tmp[i] - other * c[i]) / denom;
  }
  double n = 0.0;
  for (double x : c) n += x * x;
  return std::sqrt(n);
}

double s_squared_expectation(const CiSpace& space,
                             std::span<const double> c) {
  XFCI_REQUIRE(c.size() == space.dimension(), "s_squared size mismatch");
  std::vector<double> s2c(c.size());
  apply_s_squared(space, c, s2c);
  return linalg::dot(c, s2c);
}

}  // namespace xfci::fci
