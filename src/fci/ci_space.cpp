#include "fci/ci_space.hpp"

namespace xfci::fci {

CiSpace::CiSpace(std::size_t norb, std::size_t nalpha, std::size_t nbeta,
                 const chem::PointGroup& group,
                 const std::vector<std::size_t>& orbital_irreps,
                 std::size_t target_irrep)
    : norb_(norb),
      nalpha_(nalpha),
      nbeta_(nbeta),
      target_(target_irrep),
      group_(group),
      orbital_irreps_(orbital_irreps),
      alpha_(norb, nalpha, group, orbital_irreps),
      beta_(norb, nbeta, group, orbital_irreps) {
  XFCI_REQUIRE(target_irrep < group.num_irreps(), "target irrep out of range");
  const std::size_t nh = group.num_irreps();
  block_of_halpha_.assign(nh, kNone);
  for (std::size_t ha = 0; ha < nh; ++ha) {
    const std::size_t hb = group.product(target_, ha);
    const std::size_t na = alpha_.count(ha);
    const std::size_t nb = beta_.count(hb);
    if (na == 0 || nb == 0) continue;
    block_of_halpha_[ha] = blocks_.size();
    blocks_.push_back(CiBlock{ha, hb, dimension_, na, nb});
    dimension_ += na * nb;
  }
}

const CiSpace& CiSpace::transposed() const {
  if (!transposed_) {
    transposed_ = std::make_shared<CiSpace>(norb_, nbeta_, nalpha_, group_,
                                            orbital_irreps_, target_);
  }
  return *transposed_;
}

void CiSpace::transpose_vector(std::span<const double> src,
                               std::vector<double>& dst) const {
  const CiSpace& t = transposed();
  XFCI_REQUIRE(src.size() == dimension_, "transpose_vector source size");
  dst.assign(t.dimension(), 0.0);
  for (const CiBlock& blk : blocks_) {
    // Target block: alpha irrep = our beta irrep.
    const CiBlock* tb = t.block_for_alpha(blk.hbeta);
    XFCI_ASSERT(tb != nullptr && tb->na == blk.nb && tb->nb == blk.na,
                "transposed block mismatch");
    const double* s = src.data() + blk.offset;
    double* d = dst.data() + tb->offset;
    for (std::size_t ia = 0; ia < blk.na; ++ia)
      for (std::size_t ib = 0; ib < blk.nb; ++ib)
        d[ib * blk.na + ia] = s[ia * blk.nb + ib];
  }
}

int CiSpace::transpose_parity(std::span<const double> c) const {
  XFCI_REQUIRE(c.size() == dimension_, "transpose_parity: c size mismatch");
  if (nalpha_ != nbeta_ || nbeta_ == 0) return 0;
  // Each pair is read once, and the walk stops at the first pair that fits
  // neither sign.
  bool even = true, odd = true;
  for_each_transpose_pair_row([&](std::size_t len, std::size_t i,
                                  std::size_t j, std::size_t stride) {
    for (std::size_t k = 0; k < len && (even || odd); ++k) {
      const double x = c[i + k], y = c[j + k * stride];
      even = even && x == y;
      odd = odd && x == -y;
    }
    return even || odd;
  });
  if (!even && !odd) return 0;
  return even ? 1 : -1;
}

}  // namespace xfci::fci
