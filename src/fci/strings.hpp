#pragma once
// Occupation strings and string spaces.
//
// A string is an occupation pattern of N same-spin electrons in n orbitals,
// stored as a 64-bit mask.  The FCI vector is indexed by (alpha string,
// beta string) pairs; the DGEMM sigma algorithm works through (N-1)- and
// (N-2)-electron intermediate string spaces (paper section 2.1, after
// Harrison & Zarrabian).
//
// Conventions:
//  * a^+_p |K>  =  (-1)^(number of occupied orbitals below p in K) |K + p>
//  * pair_create(K, hi, lo) applies a^+_hi a^+_lo (hi > lo), i.e. lo first.
//  * Strings of a space are sorted by (irrep, mask); `address` maps a mask
//    to its index inside its irrep block.

#include <cstdint>
#include <vector>

#include "chem/pointgroup.hpp"
#include "common/error.hpp"

namespace xfci::fci {

using StringMask = std::uint64_t;

/// Sign of applying a^+_p to mask (must not already contain p): parity of
/// occupied orbitals below p.
inline int create_sign(StringMask mask, int p) {
  XFCI_DCHECK((mask & (StringMask{1} << p)) == 0, "orbital already occupied");
  const StringMask below = mask & ((StringMask{1} << p) - 1);
  return (__builtin_popcountll(below) % 2 == 0) ? 1 : -1;
}

/// Sign of applying a_p to mask (must contain p).
inline int annihilate_sign(StringMask mask, int p) {
  XFCI_DCHECK((mask & (StringMask{1} << p)) != 0, "orbital not occupied");
  const StringMask below = mask & ((StringMask{1} << p) - 1);
  return (__builtin_popcountll(below) % 2 == 0) ? 1 : -1;
}

/// Irrep of a string: XOR-product of the irreps of its occupied orbitals.
std::size_t string_irrep(StringMask mask, const chem::PointGroup& group,
                         const std::vector<std::size_t>& orbital_irreps);

/// All C(n, k) occupation strings of k electrons in n orbitals, grouped by
/// irrep, with constant-time mask -> (irrep, local index) addressing.
class StringSpace {
 public:
  /// Builds the space.  `orbital_irreps` has one entry per orbital; pass a
  /// C1 group for no symmetry.
  StringSpace(std::size_t norb, std::size_t nelec,
              const chem::PointGroup& group,
              const std::vector<std::size_t>& orbital_irreps);

  std::size_t norb() const { return norb_; }
  std::size_t nelec() const { return nelec_; }
  std::size_t num_irreps() const { return counts_.size(); }

  /// Total number of strings.
  std::size_t total() const { return masks_.size(); }

  /// Number of strings in irrep h.
  std::size_t count(std::size_t h) const { return counts_[h]; }

  /// Mask of the i-th string of irrep h.
  StringMask mask(std::size_t h, std::size_t i) const {
    return masks_[offsets_[h] + i];
  }

  /// Irrep of a mask.
  std::size_t irrep_of(StringMask m) const { return irrep_[global_index(m)]; }

  /// Local index (within its irrep block) of a mask.
  std::size_t address(StringMask m) const { return local_[global_index(m)]; }

  /// Lexical rank of a mask among all C(n,k) masks (used internally and by
  /// tests).
  std::size_t global_index(StringMask m) const;

 private:
  std::size_t norb_;
  std::size_t nelec_;
  std::vector<std::size_t> counts_;   // per irrep
  std::vector<std::size_t> offsets_;  // per irrep, into masks_
  std::vector<StringMask> masks_;     // sorted by (irrep, mask)
  std::vector<std::uint32_t> local_;  // lexical rank -> local index
  std::vector<std::uint8_t> irrep_;   // lexical rank -> irrep
  std::vector<std::vector<std::size_t>> binom_;  // binomial table
};

/// Creation table from an (N-1)-electron space K' into the N-electron
/// space: for each K', the list of (orbital r, target irrep, target
/// address, sign) with |J> = sign * a^+_r |K'>.
struct Creation {
  std::uint16_t orbital;
  std::uint32_t irrep;    ///< irrep of the N-electron target
  std::uint32_t address;  ///< local index of the target
  float sign;
};

class CreationTable {
 public:
  /// `minus_one`: the (N-1)-electron space; `full`: the N-electron space.
  CreationTable(const StringSpace& minus_one, const StringSpace& full,
                const std::vector<std::size_t>& orbital_irreps);

  const std::vector<Creation>& list(std::size_t h, std::size_t i) const {
    return lists_[offset_[h] + i];
  }

 private:
  std::vector<std::size_t> offset_;
  std::vector<std::vector<Creation>> lists_;
};

/// Pair-creation table from an (N-2)-electron space K into the N-electron
/// space: for each K, the list of (hi, lo, target irrep, target address,
/// sign) with |J> = sign * a^+_hi a^+_lo |K>, hi > lo.
struct PairCreation {
  std::uint16_t hi, lo;
  std::uint32_t irrep;
  std::uint32_t address;
  float sign;
};

class PairCreationTable {
 public:
  PairCreationTable(const StringSpace& minus_two, const StringSpace& full,
                    const std::vector<std::size_t>& orbital_irreps);

  const std::vector<PairCreation>& list(std::size_t h, std::size_t i) const {
    return lists_[offset_[h] + i];
  }

 private:
  std::vector<std::size_t> offset_;
  std::vector<std::vector<PairCreation>> lists_;
};

}  // namespace xfci::fci
