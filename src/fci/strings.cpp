#include "fci/strings.hpp"

#include <algorithm>

namespace xfci::fci {
namespace {

std::vector<std::vector<std::size_t>> binomial_table(std::size_t n) {
  std::vector<std::vector<std::size_t>> b(n + 1,
                                          std::vector<std::size_t>(n + 1, 0));
  for (std::size_t i = 0; i <= n; ++i) {
    b[i][0] = 1;
    for (std::size_t j = 1; j <= i; ++j)
      b[i][j] = b[i - 1][j - 1] + (j <= i - 1 ? b[i - 1][j] : 0);
  }
  return b;
}

// Enumerates all k-subsets of n orbitals in lexical (ascending mask) order.
std::vector<StringMask> all_masks(std::size_t n, std::size_t k) {
  std::vector<StringMask> out;
  if (k > n) return out;
  if (k == 0) {
    out.push_back(0);
    return out;
  }
  StringMask m = (StringMask{1} << k) - 1;  // lowest k bits
  const StringMask limit = StringMask{1} << n;
  while (m < limit) {
    out.push_back(m);
    // Gosper's hack: next subset of the same popcount.
    const StringMask c = m & (~m + 1);
    const StringMask r = m + c;
    m = (((r ^ m) >> 2) / c) | r;
  }
  return out;
}

}  // namespace

std::size_t string_irrep(StringMask mask, const chem::PointGroup& group,
                         const std::vector<std::size_t>& orbital_irreps) {
  XFCI_DCHECK(orbital_irreps.size() >= 64 ||
                  (mask >> orbital_irreps.size()) == 0,
              "string mask uses orbitals without an irrep entry");
  std::size_t h = 0;  // totally symmetric
  StringMask m = mask;
  while (m) {
    const int p = __builtin_ctzll(m);
    h = group.product(h, orbital_irreps[static_cast<std::size_t>(p)]);
    m &= m - 1;
  }
  return h;
}

StringSpace::StringSpace(std::size_t norb, std::size_t nelec,
                         const chem::PointGroup& group,
                         const std::vector<std::size_t>& orbital_irreps)
    : norb_(norb), nelec_(nelec) {
  XFCI_REQUIRE(norb <= 63, "at most 63 orbitals supported");
  XFCI_REQUIRE(nelec <= norb, "more electrons than orbitals");
  XFCI_REQUIRE(orbital_irreps.size() == norb,
               "orbital irrep count must equal orbital count");
  binom_ = binomial_table(norb);

  const auto lex = all_masks(norb, nelec);
  const std::size_t nh = group.num_irreps();
  counts_.assign(nh, 0);
  irrep_.resize(lex.size());
  local_.resize(lex.size());

  for (std::size_t i = 0; i < lex.size(); ++i) {
    const std::size_t h = string_irrep(lex[i], group, orbital_irreps);
    irrep_[i] = static_cast<std::uint8_t>(h);
    local_[i] = static_cast<std::uint32_t>(counts_[h]++);
  }
  offsets_.assign(nh, 0);
  for (std::size_t h = 1; h < nh; ++h)
    offsets_[h] = offsets_[h - 1] + counts_[h - 1];

  masks_.resize(lex.size());
  std::vector<std::size_t> fill = offsets_;
  for (std::size_t i = 0; i < lex.size(); ++i)
    masks_[fill[irrep_[i]]++] = lex[i];
}

std::size_t StringSpace::global_index(StringMask m) const {
  // Hot-path addressing invariants: a mask of the wrong electron count or
  // with bits beyond norb would produce a silently wrong (in-range) rank.
  XFCI_DCHECK(static_cast<std::size_t>(__builtin_popcountll(m)) == nelec_,
              "mask has wrong electron count for this string space");
  XFCI_DCHECK((m >> norb_) == 0, "mask uses orbitals outside the space");
  // Lexical rank of the combination: sum over occupied orbitals p (in
  // ascending order, as the j-th electron) of C(p, j).
  std::size_t rank = 0;
  std::size_t j = 1;
  StringMask rest = m;
  while (rest) {
    const std::size_t p = static_cast<std::size_t>(__builtin_ctzll(rest));
    rank += binom_[p][j];
    ++j;
    rest &= rest - 1;
  }
  XFCI_ASSERT(rank < local_.size(), "mask outside string space");
  return rank;
}

CreationTable::CreationTable(const StringSpace& minus_one,
                             const StringSpace& full,
                             const std::vector<std::size_t>& orbital_irreps) {
  XFCI_REQUIRE(minus_one.nelec() + 1 == full.nelec(),
               "creation table spaces must differ by one electron");
  XFCI_REQUIRE(minus_one.norb() == full.norb(),
               "creation table orbital count mismatch");
  (void)orbital_irreps;
  const std::size_t nh = minus_one.num_irreps();
  offset_.assign(nh, 0);
  for (std::size_t h = 1; h < nh; ++h)
    offset_[h] = offset_[h - 1] + minus_one.count(h - 1);
  lists_.resize(minus_one.total());

  const std::size_t n = full.norb();
  for (std::size_t h = 0; h < nh; ++h) {
    for (std::size_t i = 0; i < minus_one.count(h); ++i) {
      const StringMask k_mask = minus_one.mask(h, i);
      auto& out = lists_[offset_[h] + i];
      out.reserve(n - minus_one.nelec());
      for (std::size_t r = 0; r < n; ++r) {
        if (k_mask & (StringMask{1} << r)) continue;
        const int s = create_sign(k_mask, static_cast<int>(r));
        const StringMask j_mask = k_mask | (StringMask{1} << r);
        XFCI_DCHECK(full.address(j_mask) <
                        full.count(full.irrep_of(j_mask)),
                    "creation target address outside its irrep block");
        out.push_back(Creation{
            static_cast<std::uint16_t>(r),
            static_cast<std::uint32_t>(full.irrep_of(j_mask)),
            static_cast<std::uint32_t>(full.address(j_mask)),
            static_cast<float>(s)});
      }
    }
  }
}

PairCreationTable::PairCreationTable(
    const StringSpace& minus_two, const StringSpace& full,
    const std::vector<std::size_t>& orbital_irreps) {
  XFCI_REQUIRE(minus_two.nelec() + 2 == full.nelec(),
               "pair creation table spaces must differ by two electrons");
  XFCI_REQUIRE(minus_two.norb() == full.norb(),
               "pair creation table orbital count mismatch");
  (void)orbital_irreps;
  const std::size_t nh = minus_two.num_irreps();
  offset_.assign(nh, 0);
  for (std::size_t h = 1; h < nh; ++h)
    offset_[h] = offset_[h - 1] + minus_two.count(h - 1);
  lists_.resize(minus_two.total());

  const std::size_t n = full.norb();
  for (std::size_t h = 0; h < nh; ++h) {
    for (std::size_t i = 0; i < minus_two.count(h); ++i) {
      const StringMask k_mask = minus_two.mask(h, i);
      auto& out = lists_[offset_[h] + i];
      for (std::size_t lo = 0; lo < n; ++lo) {
        if (k_mask & (StringMask{1} << lo)) continue;
        const int s_lo = create_sign(k_mask, static_cast<int>(lo));
        const StringMask mid = k_mask | (StringMask{1} << lo);
        for (std::size_t hi = lo + 1; hi < n; ++hi) {
          if (mid & (StringMask{1} << hi)) continue;
          const int s_hi = create_sign(mid, static_cast<int>(hi));
          const StringMask j_mask = mid | (StringMask{1} << hi);
          XFCI_DCHECK(s_lo * s_hi == 1 || s_lo * s_hi == -1,
                      "pair creation sign must be +-1");
          XFCI_DCHECK(full.address(j_mask) <
                          full.count(full.irrep_of(j_mask)),
                      "pair creation target address outside its irrep block");
          out.push_back(PairCreation{
              static_cast<std::uint16_t>(hi), static_cast<std::uint16_t>(lo),
              static_cast<std::uint32_t>(full.irrep_of(j_mask)),
              static_cast<std::uint32_t>(full.address(j_mask)),
              static_cast<float>(s_lo * s_hi)});
        }
      }
    }
  }
}

}  // namespace xfci::fci
