#include "fci/sigma.hpp"

namespace xfci::fci {
namespace {

// Builds a plan in exactly sized storage: visit(emit) runs twice, first to
// count each bucket's entries, then to place them.  emit(bucket, entry)
// keeps the visiting order within every bucket.
template <class Entry, class Visit>
IndexPlan<Entry> build_plan(std::size_t num_buckets, const Visit& visit) {
  IndexPlan<Entry> plan;
  plan.offsets.assign(num_buckets + 1, 0);
  visit([&](std::size_t b, const Entry&) { ++plan.offsets[b + 1]; });
  for (std::size_t b = 0; b < num_buckets; ++b)
    plan.offsets[b + 1] += plan.offsets[b];
  plan.entries.resize(plan.offsets.back());
  std::vector<std::size_t> next(plan.offsets.begin(), plan.offsets.end() - 1);
  visit([&](std::size_t b, const Entry& e) { plan.entries[next[b]++] = e; });
  return plan;
}

}  // namespace

SigmaContext::SigmaContext(const CiSpace& space,
                           const integrals::IntegralTables& ints)
    : space_(space), ints_(ints) {
  const std::size_t n = space.norb();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  XFCI_REQUIRE(ints.norb == n, "integral tables orbital count mismatch");

  // Orbital lists per irrep.
  std::vector<std::vector<std::uint16_t>> orbs_of_irrep(nh);
  orb_pos_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t h = orbital_irrep(p);
    orb_pos_[p] = orbs_of_irrep[h].size();
    orbs_of_irrep[h].push_back(static_cast<std::uint16_t>(p));
  }

  // Mixed-spin column lists and integral blocks.  For cross irrep hX the
  // columns are (s, q) with irrep(s) = hX x irrep(q), q-major:
  //   INT_hX[(s,q), (r,p)] = (pq|rs).
  ab_cols_.assign(nh, 0);
  ab_col_base_.assign(nh * n, 0);
  ab_int_.resize(nh);
  for (std::size_t hx = 0; hx < nh; ++hx) {
    std::size_t ncols = 0;
    for (std::size_t q = 0; q < n; ++q) {
      ab_col_base_[hx * n + q] = ncols;
      ncols += orbs_of_irrep[group.product(hx, orbital_irrep(q))].size();
    }
    ab_cols_[hx] = ncols;
    linalg::Matrix m(ncols, ncols);
    for (std::size_t q = 0; q < n; ++q) {
      const auto& s_list = orbs_of_irrep[group.product(hx, orbital_irrep(q))];
      for (std::size_t si = 0; si < s_list.size(); ++si) {
        const std::size_t row = ab_col_base_[hx * n + q] + si;
        const std::size_t s = s_list[si];
        for (std::size_t p = 0; p < n; ++p) {
          const auto& r_list =
              orbs_of_irrep[group.product(hx, orbital_irrep(p))];
          for (std::size_t ri = 0; ri < r_list.size(); ++ri) {
            const std::size_t col = ab_col_base_[hx * n + p] + ri;
            const std::size_t r = r_list[ri];
            m(row, col) = ints.eri(p, q, r, s);
          }
        }
      }
    }
    ab_int_[hx] = std::move(m);
  }

  // Same-spin pair lists and antisymmetrized integral blocks:
  //   G_hP[(p>r), (q>s)] = (pq|rs) - (ps|rq).
  ss_pairs_.resize(nh);
  ss_pair_pos_.assign(n * n, 0);
  for (std::size_t lo = 0; lo < n; ++lo) {
    for (std::size_t hi = lo + 1; hi < n; ++hi) {
      const std::size_t hp =
          group.product(orbital_irrep(hi), orbital_irrep(lo));
      ss_pair_pos_[hi * n + lo] = ss_pairs_[hp].size();
      ss_pairs_[hp].push_back(
          Pair{static_cast<std::uint16_t>(hi), static_cast<std::uint16_t>(lo)});
    }
  }
  ss_g_.resize(nh);
  for (std::size_t hp = 0; hp < nh; ++hp) {
    const auto& pairs = ss_pairs_[hp];
    linalg::Matrix g(pairs.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::size_t p = pairs[i].hi, r = pairs[i].lo;
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        const std::size_t q = pairs[j].hi, s = pairs[j].lo;
        g(i, j) = ints.eri(p, q, r, s) - ints.eri(p, s, r, q);
      }
    }
    ss_g_[hp] = std::move(g);
  }

  // Intermediate string spaces and coupling tables.
  const auto& oi = space.orbital_irreps();
  if (space.nalpha() >= 1) {
    alpha_m1_ = std::make_unique<StringSpace>(n, space.nalpha() - 1, group, oi);
    alpha_create_ =
        std::make_unique<CreationTable>(*alpha_m1_, space.alpha(), oi);
  }
  if (space.nbeta() >= 1) {
    beta_m1_ = std::make_unique<StringSpace>(n, space.nbeta() - 1, group, oi);
    beta_create_ = std::make_unique<CreationTable>(*beta_m1_, space.beta(), oi);
  }
  if (space.nalpha() >= 2) {
    alpha_m2_ = std::make_unique<StringSpace>(n, space.nalpha() - 2, group, oi);
    alpha_pair_ =
        std::make_unique<PairCreationTable>(*alpha_m2_, space.alpha(), oi);
  }

  // Index plans: each kernel's creation-table walk with the irrep filter
  // applied once here, in the kernel's own loop order.
  //
  // Mixed spin (Eqs. 4/6): beta creations bucketed by (K'beta irrep, irrep
  // of the created orbital).
  mixed_plan_ = build_plan<MixedPlanEntry>(nh * nh, [&](const auto& emit) {
    if (!beta_create_) return;
    for (std::size_t hkb = 0; hkb < nh; ++hkb)
      for (std::size_t ikb = 0; ikb < beta_m1_->count(hkb); ++ikb)
        for (const Creation& cs : beta_create_->list(hkb, ikb))
          emit(hkb * nh + orbital_irrep(cs.orbital),
               MixedPlanEntry{static_cast<std::uint32_t>(ikb),
                              static_cast<std::uint32_t>(orb_pos_[cs.orbital]),
                              cs.address, cs.sign});
  });

  // Same spin (Eqs. 7/9): pair creations bucketed by ((N-2) string K,
  // target irrep).
  std::size_t m2_strings = 0;
  ss_string_base_.assign(nh, 0);
  if (alpha_m2_) {
    for (std::size_t hk = 0; hk < nh; ++hk) {
      ss_string_base_[hk] = m2_strings;
      m2_strings += alpha_m2_->count(hk);
    }
  }
  same_spin_plan_ =
      build_plan<PairPlanEntry>(m2_strings * nh, [&](const auto& emit) {
        if (!alpha_pair_) return;
        for (std::size_t hk = 0; hk < nh; ++hk)
          for (std::size_t ik = 0; ik < alpha_m2_->count(hk); ++ik)
            for (const PairCreation& pc : alpha_pair_->list(hk, ik))
              emit((ss_string_base_[hk] + ik) * nh + pc.irrep,
                   PairPlanEntry{static_cast<std::uint32_t>(
                                     ss_pair_position(pc.hi, pc.lo)),
                                 pc.address, pc.sign});
      });

  // One electron: (q, p) pairs of one (N-1) string with h_pq != 0 (h_pq
  // vanishes between different orbital irreps), so source and target lie
  // in one irrep block.
  one_electron_plan_ =
      build_plan<OneElectronPlanEntry>(1, [&](const auto& emit) {
        if (!alpha_create_) return;
        for (std::size_t hk = 0; hk < nh; ++hk)
          for (std::size_t ik = 0; ik < alpha_m1_->count(hk); ++ik) {
            const auto& list = alpha_create_->list(hk, ik);
            for (const Creation& cq : list)
              for (const Creation& cp : list) {
                if (orbital_irrep(cp.orbital) != orbital_irrep(cq.orbital))
                  continue;
                const double hpq = ints.h(cp.orbital, cq.orbital);
                if (hpq == 0.0) continue;
                emit(0, OneElectronPlanEntry{cp.sign * cq.sign * hpq,
                                             cq.irrep, cq.address,
                                             cp.address});
              }
          }
      });
}

const SigmaContext& SigmaContext::transposed() const {
  if (!transposed_) {
    transposed_ =
        std::unique_ptr<SigmaContext>(new SigmaContext(space_.transposed(),
                                                       ints_));
  }
  return *transposed_;
}

}  // namespace xfci::fci
