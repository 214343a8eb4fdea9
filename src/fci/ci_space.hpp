#pragma once
// The symmetry-blocked FCI vector space.
//
// The CI coefficient "matrix" has rows indexed by beta strings and columns
// by alpha strings (paper Fig. 1).  With spatial symmetry the matrix is
// block diagonal: an alpha string of irrep h_a pairs only with beta strings
// of irrep h_b = h_target x h_a.  Each block is stored column-contiguously
// (one alpha column = one contiguous run of beta coefficients), matching
// the column distribution of the parallel layer.

#include <memory>
#include <span>
#include <vector>

#include "chem/pointgroup.hpp"
#include "fci/strings.hpp"

namespace xfci::fci {

/// One (alpha-irrep, beta-irrep) block of the CI vector.
struct CiBlock {
  std::size_t halpha = 0;   ///< alpha-string irrep
  std::size_t hbeta = 0;    ///< beta-string irrep (= target x halpha)
  std::size_t offset = 0;   ///< start of this block in the flat vector
  std::size_t na = 0;       ///< number of alpha strings (columns)
  std::size_t nb = 0;       ///< number of beta strings (rows)
};

class CiSpace {
 public:
  /// Builds the blocked space for the given orbital count, electron counts,
  /// point group / orbital irreps and target (wavefunction) irrep.
  CiSpace(std::size_t norb, std::size_t nalpha, std::size_t nbeta,
          const chem::PointGroup& group,
          const std::vector<std::size_t>& orbital_irreps,
          std::size_t target_irrep = 0);

  std::size_t norb() const { return norb_; }
  std::size_t nalpha() const { return nalpha_; }
  std::size_t nbeta() const { return nbeta_; }
  std::size_t target_irrep() const { return target_; }
  const chem::PointGroup& group() const { return group_; }
  const std::vector<std::size_t>& orbital_irreps() const {
    return orbital_irreps_;
  }

  const StringSpace& alpha() const { return alpha_; }
  const StringSpace& beta() const { return beta_; }

  /// Total number of determinants.
  std::size_t dimension() const { return dimension_; }

  const std::vector<CiBlock>& blocks() const { return blocks_; }

  /// Block whose alpha irrep is h (nullptr if empty / absent).
  const CiBlock* block_for_alpha(std::size_t h) const {
    const std::size_t b = block_of_halpha_[h];
    return b == kNone ? nullptr : &blocks_[b];
  }

  /// Flat index of the determinant (alpha irrep h, alpha address ia, beta
  /// address ib).
  std::size_t index(std::size_t halpha, std::size_t ia,
                    std::size_t ib) const {
    const CiBlock* blk = block_for_alpha(halpha);
    XFCI_ASSERT(blk != nullptr, "empty CI block");
    XFCI_ASSERT(ia < blk->na && ib < blk->nb, "CI index out of range");
    return blk->offset + ia * blk->nb + ib;
  }

  /// The space with alpha and beta roles swapped (same target irrep); used
  /// by the transposed alpha-alpha same-spin routine.  Built lazily.
  const CiSpace& transposed() const;

  /// Copies `src` (over this space) into `dst` (over transposed()):
  /// dst(beta column, alpha row) = src(alpha column, beta row).
  void transpose_vector(std::span<const double> src,
                        std::vector<double>& dst) const;

  /// The transpose parity of `c` (P exchanges the alpha and beta string of
  /// every determinant): +1 when P c == c and -1 when P c == -c, element
  /// for element and exactly, else 0 -- always 0 unless nalpha == nbeta
  /// >= 1.  Reads each pair of c once, in place, and stops at the first
  /// pair that fits neither sign.
  int transpose_parity(std::span<const double> c) const;

  /// Walks the transpose pairs of an nalpha == nbeta space, each pair once,
  /// in rows: row(len, i, j, stride) gets the pairs (i + k, j + k * stride),
  /// k < len, and returns false to stop the walk.  A block with halpha <
  /// hbeta pairs whole with the block whose alpha irrep is its hbeta; one
  /// with halpha == hbeta pairs on and above its diagonal, where the first
  /// pair of each row is one element (i == j).
  template <class Row>
  void for_each_transpose_pair_row(Row&& row) const {
    XFCI_DCHECK(nalpha_ == nbeta_, "transpose pairs need nalpha == nbeta");
    for (const CiBlock& blk : blocks_) {
      if (blk.halpha > blk.hbeta) continue;
      const CiBlock& partner = *block_for_alpha(blk.hbeta);
      const bool diagonal = blk.halpha == blk.hbeta;
      for (std::size_t ia = 0; ia < blk.na; ++ia) {
        const std::size_t ib = diagonal ? ia : 0;
        if (!row(blk.nb - ib, blk.offset + ia * blk.nb + ib,
                 partner.offset + ib * partner.nb + ia, partner.nb))
          return;
      }
    }
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t norb_;
  std::size_t nalpha_;
  std::size_t nbeta_;
  std::size_t target_;
  chem::PointGroup group_;
  std::vector<std::size_t> orbital_irreps_;
  StringSpace alpha_;
  StringSpace beta_;
  std::vector<CiBlock> blocks_;
  std::vector<std::size_t> block_of_halpha_;
  std::size_t dimension_ = 0;
  mutable std::shared_ptr<CiSpace> transposed_;
};

}  // namespace xfci::fci
