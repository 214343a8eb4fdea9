#include "fci/rdm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {
namespace {

// gamma_pq = <bra| E_pq |ket> for the COLUMN (alpha) strings of the space.
linalg::Matrix column_rdm(const CiSpace& space, std::span<const double> bra,
                          std::span<const double> ket) {
  const std::size_t n = space.norb();
  linalg::Matrix g(n, n);
  if (space.nalpha() == 0) return g;
  const StringSpace m1(n, space.nalpha() - 1, space.group(),
                       space.orbital_irreps());
  const CreationTable table(m1, space.alpha(), space.orbital_irreps());

  for (std::size_t hk = 0; hk < m1.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m1.count(hk); ++ik) {
      const auto& list = table.list(hk, ik);
      for (const Creation& cq : list) {
        const CiBlock* bj = space.block_for_alpha(cq.irrep);
        if (bj == nullptr) continue;
        const double* jcol = ket.data() + bj->offset + cq.address * bj->nb;
        for (const Creation& cp : list) {
          // <I|..|J> needs matching beta row spaces: equal alpha irreps.
          if (cp.irrep != cq.irrep) continue;
          const double* icol = bra.data() + bj->offset + cp.address * bj->nb;
          double dot = 0.0;
          for (std::size_t b = 0; b < bj->nb; ++b) dot += icol[b] * jcol[b];
          g(cp.orbital, cq.orbital) += cp.sign * cq.sign * dot;
        }
      }
    }
  }
  return g;
}

// t = E_pq |c> restricted to one spin acting on the column index.
void apply_epq_columns(const CiSpace& space, std::size_t p, std::size_t q,
                       std::span<const double> c, std::span<double> t) {
  if (space.nalpha() == 0) return;
  const std::size_t n = space.norb();
  const StringSpace m1(n, space.nalpha() - 1, space.group(),
                       space.orbital_irreps());
  const CreationTable table(m1, space.alpha(), space.orbital_irreps());
  for (std::size_t hk = 0; hk < m1.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m1.count(hk); ++ik) {
      const auto& list = table.list(hk, ik);
      const Creation* cq = nullptr;
      const Creation* cp = nullptr;
      for (const Creation& cr : list) {
        if (cr.orbital == q) cq = &cr;
        if (cr.orbital == p) cp = &cr;
      }
      if (cq == nullptr || cp == nullptr) continue;
      const CiBlock* bj = space.block_for_alpha(cq->irrep);
      const CiBlock* bi = space.block_for_alpha(cp->irrep);
      if (bj == nullptr || bi == nullptr) continue;
      XFCI_ASSERT(bi->nb == bj->nb || bi->hbeta != bj->hbeta,
                  "row space mismatch");
      if (bi->hbeta != bj->hbeta) continue;  // operator leaves the space
      const double* jcol = c.data() + bj->offset + cq->address * bj->nb;
      double* icol = t.data() + bi->offset + cp->address * bi->nb;
      linalg::daxpy_n(bj->nb, cp->sign * cq->sign, jcol, icol);
    }
  }
}

// Spin-summed t = E_pq |c> (both spins).
std::vector<double> apply_epq(const CiSpace& space, std::size_t p,
                              std::size_t q, std::span<const double> c) {
  std::vector<double> t(space.dimension(), 0.0);
  apply_epq_columns(space, p, q, c, t);
  // Beta part via the transposed orientation.
  if (space.nbeta() > 0) {
    std::vector<double> ct, tt, back;
    space.transpose_vector(c, ct);
    tt.assign(ct.size(), 0.0);
    apply_epq_columns(space.transposed(), p, q, ct, tt);
    space.transposed().transpose_vector(tt, back);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] += back[i];
  }
  return t;
}

}  // namespace

linalg::Matrix SpinRdm::total() const {
  linalg::Matrix g = alpha;
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] += beta.data()[i];
  return g;
}

SpinRdm one_rdm(const CiSpace& space, std::span<const double> c) {
  XFCI_REQUIRE(c.size() == space.dimension(), "one_rdm size mismatch");
  SpinRdm rdm;
  rdm.alpha = column_rdm(space, c, c);
  if (space.nbeta() > 0) {
    std::vector<double> ct;
    space.transpose_vector(c, ct);
    rdm.beta = column_rdm(space.transposed(), ct, ct);
  } else {
    rdm.beta = linalg::Matrix(space.norb(), space.norb());
  }
  return rdm;
}

NaturalOrbitals natural_orbitals(const linalg::Matrix& gamma) {
  XFCI_REQUIRE(gamma.rows() == gamma.cols(),
               "natural orbitals need a square density matrix");
  const auto eig = linalg::eigh(gamma);
  // eigh returns ascending; natural occupations are reported descending.
  const std::size_t n = gamma.rows();
  NaturalOrbitals nat;
  nat.occupations.resize(n);
  nat.orbitals.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    nat.occupations[j] = eig.values[n - 1 - j];
    for (std::size_t i = 0; i < n; ++i)
      nat.orbitals(i, j) = eig.vectors(i, n - 1 - j);
  }
  return nat;
}

integrals::EriTensor two_rdm(const CiSpace& space,
                             const integrals::IntegralTables& ints,
                             std::span<const double> c) {
  XFCI_REQUIRE(c.size() == space.dimension(), "two_rdm size mismatch");
  (void)ints;
  const std::size_t n = space.norb();
  XFCI_REQUIRE(n <= 24, "two_rdm intended for small orbital counts");

  // E_rs with r, s in different irreps leaves the symmetry sector, so the
  // intermediate vectors need the unblocked space: expand the coefficients
  // into C1 and work there (the determinants and the MO basis are
  // unchanged).
  if (space.group().num_irreps() > 1) {
    const chem::PointGroup c1 = chem::PointGroup::make("C1");
    const std::vector<std::size_t> irreps0(n, 0);
    const CiSpace full(n, space.nalpha(), space.nbeta(), c1, irreps0, 0);
    std::vector<double> cf(full.dimension(), 0.0);
    for (const CiBlock& blk : space.blocks()) {
      for (std::size_t ia = 0; ia < blk.na; ++ia) {
        const StringMask ma = space.alpha().mask(blk.halpha, ia);
        const std::size_t ia_f = full.alpha().address(ma);
        for (std::size_t ib = 0; ib < blk.nb; ++ib) {
          const StringMask mb = space.beta().mask(blk.hbeta, ib);
          cf[full.index(0, ia_f, full.beta().address(mb))] =
              c[blk.offset + ia * blk.nb + ib];
        }
      }
    }
    return two_rdm(full, ints, cf);
  }

  const SpinRdm g1 = one_rdm(space, c);
  const linalg::Matrix gamma = g1.total();

  // Dense Gamma_pqrs = <C| E_pq E_rs |C> - delta_qr gamma_ps.
  std::vector<double> dense(n * n * n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t s = 0; s < n; ++s) {
      const auto t = apply_epq(space, r, s, c);
      const linalg::Matrix trans =
          [&] {
            // <C| E_pq |t> spin-summed.
            linalg::Matrix m = column_rdm(space, c, t);
            std::vector<double> ct, tt;
            space.transpose_vector(c, ct);
            space.transpose_vector(t, tt);
            const linalg::Matrix mb =
                column_rdm(space.transposed(), ct, tt);
            for (std::size_t i = 0; i < m.size(); ++i)
              m.data()[i] += mb.data()[i];
            return m;
          }();
      for (std::size_t p = 0; p < n; ++p)
        for (std::size_t q = 0; q < n; ++q) {
          double v = trans(p, q);
          if (q == r) v -= gamma(p, s);
          dense[((p * n + q) * n + r) * n + s] = v;
        }
    }
  }

  // Pack, averaging over the 8 integral-type permutations (the physical
  // 2-RDM has 4-fold symmetry; the symmetrization leaves contractions with
  // the 8-fold-symmetric integrals unchanged).
  integrals::EriTensor packed(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          auto at = [&](std::size_t a, std::size_t b, std::size_t cc,
                        std::size_t d) {
            return dense[((a * n + b) * n + cc) * n + d];
          };
          const double v = (at(p, q, r, s) + at(q, p, r, s) +
                            at(p, q, s, r) + at(q, p, s, r) +
                            at(r, s, p, q) + at(s, r, p, q) +
                            at(r, s, q, p) + at(s, r, q, p)) /
                           8.0;
          packed.set(p, q, r, s, v);
        }
  return packed;
}

double energy_from_rdms(const integrals::IntegralTables& ints,
                        const linalg::Matrix& gamma,
                        const integrals::EriTensor& gamma2) {
  const std::size_t n = ints.norb;
  XFCI_REQUIRE(gamma.rows() == n && gamma.cols() == n,
               "1-RDM shape must match the orbital count");
  double e = ints.core_energy;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) e += ints.h(p, q) * gamma(p, q);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s)
          e += 0.5 * ints.eri(p, q, r, s) * gamma2(p, q, r, s);
  return e;
}

std::array<double, 3> dipole_moment(
    const linalg::Matrix& gamma,
    const std::array<linalg::Matrix, 3>& dipole_mo,
    const std::array<double, 3>& nuclear_dipole) {
  XFCI_REQUIRE(gamma.rows() == gamma.cols(),
               "dipole moment needs a square 1-RDM");
  std::array<double, 3> mu = nuclear_dipole;
  for (int d = 0; d < 3; ++d) {
    double el = 0.0;
    for (std::size_t p = 0; p < gamma.rows(); ++p)
      for (std::size_t q = 0; q < gamma.cols(); ++q)
        el += gamma(p, q) * dipole_mo[d](p, q);
    mu[d] -= el;  // electrons carry charge -1
  }
  return mu;
}

}  // namespace xfci::fci
