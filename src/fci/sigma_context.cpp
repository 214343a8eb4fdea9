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

  // One set of string tables and plans per spin, from the same loops over
  // each spin's strings.
  tables_ = {build_tables(space.alpha()), build_tables(space.beta())};

  // Index plans: each kernel's creation-table walk with the irrep filter
  // applied once, in the kernel's own loop order.
  //
  // Mixed spin (Eqs. 4/6): beta creations bucketed by (K'beta irrep, irrep
  // of the created orbital).
  const SpinTables& beta = tables(Spin::kBeta);
  mixed_plan_ = build_plan<MixedPlanEntry>(nh * nh, [&](const auto& emit) {
    if (!beta.create) return;
    for (std::size_t hkb = 0; hkb < nh; ++hkb)
      for (std::size_t ikb = 0; ikb < beta.m1->count(hkb); ++ikb)
        for (const Creation& cs : beta.create->list(hkb, ikb))
          emit(hkb * nh + orbital_irrep(cs.orbital),
               MixedPlanEntry{static_cast<std::uint32_t>(ikb),
                              static_cast<std::uint32_t>(orb_pos_[cs.orbital]),
                              cs.address, cs.sign});
  });
}

SpinTables SigmaContext::build_tables(const StringSpace& strings) const {
  const std::size_t n = space_.norb();
  const auto& group = space_.group();
  const std::size_t nh = group.num_irreps();
  const auto& oi = space_.orbital_irreps();
  SpinTables t;

  // Intermediate string spaces and coupling tables.
  if (strings.nelec() >= 1) {
    t.m1 = std::make_unique<StringSpace>(n, strings.nelec() - 1, group, oi);
    t.create = std::make_unique<CreationTable>(*t.m1, strings, oi);
  }
  if (strings.nelec() >= 2) {
    t.m2 = std::make_unique<StringSpace>(n, strings.nelec() - 2, group, oi);
    t.pair = std::make_unique<PairCreationTable>(*t.m2, strings, oi);
  }

  // Same spin (Eqs. 7/9): pair creations bucketed by ((N-2) string K,
  // target irrep).
  std::size_t m2_strings = 0;
  t.ss_string_base.assign(nh, 0);
  if (t.m2) {
    for (std::size_t hk = 0; hk < nh; ++hk) {
      t.ss_string_base[hk] = m2_strings;
      m2_strings += t.m2->count(hk);
    }
  }
  t.same_spin_plan =
      build_plan<PairPlanEntry>(m2_strings * nh, [&](const auto& emit) {
        if (!t.pair) return;
        for (std::size_t hk = 0; hk < nh; ++hk)
          for (std::size_t ik = 0; ik < t.m2->count(hk); ++ik)
            for (const PairCreation& pc : t.pair->list(hk, ik))
              emit((t.ss_string_base[hk] + ik) * nh + pc.irrep,
                   PairPlanEntry{static_cast<std::uint32_t>(
                                     ss_pair_position(pc.hi, pc.lo)),
                                 pc.address, pc.sign});
      });

  // One electron: (q, p) pairs of one (N-1) string with h_pq != 0 (h_pq
  // vanishes between different orbital irreps), so source and target lie
  // in one irrep block.
  t.one_electron_plan =
      build_plan<OneElectronPlanEntry>(1, [&](const auto& emit) {
        if (!t.create) return;
        for (std::size_t hk = 0; hk < nh; ++hk)
          for (std::size_t ik = 0; ik < t.m1->count(hk); ++ik) {
            const auto& list = t.create->list(hk, ik);
            for (const Creation& cq : list)
              for (const Creation& cp : list) {
                if (orbital_irrep(cp.orbital) != orbital_irrep(cq.orbital))
                  continue;
                const double hpq = ints_.h(cp.orbital, cq.orbital);
                if (hpq == 0.0) continue;
                emit(0, OneElectronPlanEntry{cp.sign * cq.sign * hpq,
                                             cq.irrep, cq.address,
                                             cp.address});
              }
          }
      });
  return t;
}

}  // namespace xfci::fci
