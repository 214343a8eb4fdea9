#pragma once
// Sigma kernels: the matrix-vector product sigma = H * C evaluated without
// ever forming H.
//
// The kernels come in two families, mirroring the paper's comparison:
//  * DGEMM - the paper's contribution: the sparse product is reorganized
//    into dense matrix-matrix multiplications through (N-1)- and
//    (N-2)-electron intermediate string spaces (Eqs. 4-9).
//  * MOC   - the classical "minimum operation count" baseline: excitation
//    lists driving indexed multiply-add updates.
//
// Both decompose H as
//   H = H1(alpha) + H1(beta) + Hss(alpha) + Hss(beta) + Hab
// with
//   Hss(s) = sum_{p>r, q>s} [(pq|rs) - (ps|rq)] a+p a+r a_s a_q   (spin s)
//   Hab    = sum_{pqrs} (pq|rs) E^alpha_pq E^beta_rs.
//
// One orchestration drives them: fcp::ParallelSigma
// (fci_parallel/parallel_sigma.hpp).  make_sigma() (fci.hpp) and
// SolveSetup::make_sigma() build it on one rank of the threads backend,
// so a serial sigma is the distributed one at P = 1 and bitwise equal to
// it at every rank count and on every backend.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fci/ci_space.hpp"
#include "fci/strings.hpp"
#include "integrals/tables.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace xfci::fci {

/// Counters describing the work of sigma kernel calls; the X1 cost model
/// and the Table-1 benchmark consume these.  A kernel adds its own calls'
/// work; SigmaOperator::stats() holds the counters summed since the last
/// reset and the shapes of the last apply() only, so it stays bounded over
/// a long solve.
struct SigmaStats {
  double dgemm_flops = 0.0;      ///< flops spent in dense DGEMMs
  double indexed_ops = 0.0;      ///< indexed multiply-add operations
  double gather_words = 0.0;     ///< words gathered from C columns
  double scatter_words = 0.0;    ///< words accumulated into sigma columns
  double element_count = 0.0;    ///< Hamiltonian elements generated (MOC)
  /// Shapes (m, n, k) of the algorithm's DGEMMs, in the algorithm's order
  /// (same spin: one per (K, hP), in (hK, K, hP) order), not the GEMMs
  /// the kernels call: the same-spin kernel stacks runs of K into one
  /// wider GEMM.
  /// The X1 cost model charges by shape (small/skinny multiplies starve
  /// the vector pipes).
  std::vector<std::array<std::size_t, 3>> dgemm_shapes;
  void reset() { *this = SigmaStats{}; }
  /// Adds `o`'s counters and appends its shapes.
  SigmaStats& operator+=(const SigmaStats& o) {
    dgemm_flops += o.dgemm_flops;
    indexed_ops += o.indexed_ops;
    gather_words += o.gather_words;
    scatter_words += o.scatter_words;
    element_count += o.element_count;
    dgemm_shapes.insert(dgemm_shapes.end(), o.dgemm_shapes.begin(),
                        o.dgemm_shapes.end());
    return *this;
  }
};

/// Entries grouped into buckets: one exactly sized entry array plus an
/// offset table (bucket b is entries[offsets[b], offsets[b+1])).
template <class Entry>
struct IndexPlan {
  std::vector<Entry> entries;
  std::vector<std::size_t> offsets;
  std::span<const Entry> bucket(std::size_t b) const {
    return {entries.data() + offsets[b], offsets[b + 1] - offsets[b]};
  }
};

/// Mixed-spin plan entry (Eqs. 4 and 6): sign * a+_s |K'beta_ikb> is the
/// beta string `address`; s is orbital `pos` of its irrep.
struct MixedPlanEntry {
  std::uint32_t ikb, pos, address;
  float sign;
};

/// Same-spin plan entry (Eqs. 7 and 9): sign * a+_hi a+_lo |K> is the
/// string `address`; (hi, lo) is row `row` of its pair-irrep block.
struct PairPlanEntry {
  std::uint32_t row, address;
  float sign;
};

/// One-electron plan entry: column `source` of the irrep-`irrep` block
/// feeds column `target` with coefficient sign_p * sign_q * h_pq.
struct OneElectronPlanEntry {
  double coef;
  std::uint32_t irrep, source, target;
};

/// The spin whose strings a same-spin or one-electron kernel excites: the
/// column strings of its views.
enum class Spin { kAlpha, kBeta };

/// One spin's string tables over the space's strings of that spin, and the
/// plans the same-spin and one-electron kernels walk in place of them.  The
/// (N-1) tables are null below one electron and the (N-2) tables below
/// two; the plans are then empty.
struct SpinTables {
  std::unique_ptr<StringSpace> m1, m2;  ///< the (N-1) and (N-2) strings
  std::unique_ptr<CreationTable> create;
  std::unique_ptr<PairCreationTable> pair;
  std::vector<std::size_t> ss_string_base;  ///< first (N-2) string of irrep
  IndexPlan<PairPlanEntry> same_spin_plan;  ///< bucket (K string) * nh + hj
  IndexPlan<OneElectronPlanEntry> one_electron_plan;  ///< one bucket
};

/// Shared precomputed data for the sigma routines over one CI space: the
/// symmetry-blocked integral matrices used as DGEMM operands, each spin's
/// intermediate string spaces and creation tables, and the index plans the
/// kernels walk in place of the creation tables.  Immutable once built, so
/// any number of threads may read it.
class SigmaContext {
 public:
  SigmaContext(const CiSpace& space, const integrals::IntegralTables& ints);

  const CiSpace& space() const { return space_; }
  const integrals::IntegralTables& ints() const { return ints_; }

  // --- orbital symmetry helpers -------------------------------------------
  std::size_t orbital_irrep(std::size_t p) const {
    return space_.orbital_irreps()[p];
  }
  /// Position of orbital p within the ascending list of its irrep's
  /// orbitals.
  std::size_t orbital_position(std::size_t p) const { return orb_pos_[p]; }

  // --- mixed-spin (alpha-beta) DGEMM operands ------------------------------
  // For each "cross irrep" hX the column list enumerates pairs (s, q) with
  // irrep(s) = hX x irrep(q), q-major; INT_hX[(s,q), (r,p)] = (pq|rs).
  std::size_t ab_num_cols(std::size_t hx) const { return ab_cols_[hx]; }
  /// Column base of orbital q within the hX list.
  std::size_t ab_col_base(std::size_t hx, std::size_t q) const {
    return ab_col_base_[hx * space_.norb() + q];
  }
  const linalg::Matrix& ab_integrals(std::size_t hx) const {
    return ab_int_[hx];
  }

  // --- same-spin DGEMM operands --------------------------------------------
  // Ordered pairs (hi > lo) grouped by pair irrep hP;
  // G_hP[(p,r),(q,s)] = (pq|rs) - (ps|rq).  Both spins share them.
  std::size_t ss_num_pairs(std::size_t hp) const {
    return ss_pairs_[hp].size();
  }
  /// Index of the pair (hi, lo) within its irrep block.
  std::size_t ss_pair_position(std::size_t hi, std::size_t lo) const {
    return ss_pair_pos_[hi * space_.norb() + lo];
  }
  const linalg::Matrix& ss_integrals(std::size_t hp) const {
    return ss_g_[hp];
  }

  // --- string tables --------------------------------------------------------
  const SpinTables& tables(Spin s) const {
    return tables_[static_cast<std::size_t>(s)];
  }

  // --- index plans ----------------------------------------------------------
  // The creation-table entries each kernel uses, filtered by irrep once at
  // construction and stored in the order the kernels visit them.
  /// Beta creations out of the (N-1) strings of irrep hkb whose created
  /// orbital has irrep hs, in (ikb, list) order.
  std::span<const MixedPlanEntry> mixed_plan(std::size_t hkb,
                                             std::size_t hs) const {
    return mixed_plan_.bucket(hkb * space_.group().num_irreps() + hs);
  }
  /// Pair creations of spin s out of the (N-2) string (hk, ik) whose
  /// target has irrep hj, in list order.
  std::span<const PairPlanEntry> same_spin_plan(Spin s, std::size_t hk,
                                                std::size_t ik,
                                                std::size_t hj) const {
    const SpinTables& t = tables(s);
    return t.same_spin_plan.bucket(
        (t.ss_string_base[hk] + ik) * space_.group().num_irreps() + hj);
  }
  /// Every one-electron coupling with h_pq != 0 between a spin-s (N-1)
  /// string K' and its N-electron targets, in (K', q, p) order.
  std::span<const OneElectronPlanEntry> one_electron_plan(Spin s) const {
    return tables(s).one_electron_plan.bucket(0);
  }

 private:
  /// The tables and plans over `strings`, one spin's N-electron strings.
  SpinTables build_tables(const StringSpace& strings) const;

  const CiSpace& space_;
  const integrals::IntegralTables& ints_;

  std::vector<std::size_t> orb_pos_;

  std::vector<std::size_t> ab_cols_;
  std::vector<std::size_t> ab_col_base_;
  std::vector<linalg::Matrix> ab_int_;

  struct Pair {
    std::uint16_t hi, lo;
  };
  std::vector<std::vector<Pair>> ss_pairs_;
  std::vector<std::size_t> ss_pair_pos_;
  std::vector<linalg::Matrix> ss_g_;

  std::array<SpinTables, 2> tables_;      // indexed by Spin
  IndexPlan<MixedPlanEntry> mixed_plan_;  // bucket hkb * nh + hs
};

/// Abstract sigma = H c (core energy excluded).
class SigmaOperator {
 public:
  virtual ~SigmaOperator() = default;

  /// sigma = H c; both vectors are flat blocked CI vectors of
  /// space().dimension() elements.  sigma is overwritten.
  virtual void apply(std::span<const double> c, std::span<double> sigma) = 0;

  virtual const CiSpace& space() const = 0;

  /// Work counters summed since the last reset, with the last apply()'s
  /// DGEMM shapes (SigmaStats).
  const SigmaStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 protected:
  SigmaStats stats_;
};

// --- the kernels ParallelSigma drives ---------------------------------------

/// A view of the CI block whose columns are the strings of irrep h (one
/// entry per irrep): column j lives at c + j*nrows.  The rows are the
/// rank's share of the spectator index (paper Fig. 2a), copied into
/// compact local matrices on both sides (at P = 1, whole blocks); the MOC
/// alpha side passes full blocks with a write range.
struct ColumnView {
  const double* c = nullptr;  ///< input block (null if the block is absent)
  double* sigma = nullptr;    ///< output block
  std::size_t nrows = 0;
  /// Writable column range (alpha addresses); the MOC kernels honour this
  /// so the replicated parallel variant can read every column of a
  /// replicated C while updating only the rank's own sigma columns.
  std::size_t write_begin = 0;
  std::size_t write_end = static_cast<std::size_t>(-1);
};

/// Column-oriented one-electron sigma over views whose column strings are
/// the spin-`spin` strings of ctx.space(): excitations act on the column
/// string index.  sigma += H1(spin) c.
void sigma_one_electron_columns(const SigmaContext& ctx, Spin spin,
                                std::span<const ColumnView> views,
                                SigmaStats& stats);

/// Column-oriented same-spin sigma over views of spin `spin` (Eqs. 7-9).
void sigma_same_spin_columns(const SigmaContext& ctx, Spin spin,
                             std::span<const ColumnView> views,
                             SigmaStats& stats);

/// The mixed-spin DGEMM's B operands: INT_hX (ctx.ab_integrals(hx)) for
/// every cross irrep hX, packed for the kernel gemm() dispatches to now.
/// The caller owns them (ParallelSigma packs once per operator) and packs
/// again when the dispatched kernel changes (GemmPackedB::current()).
std::vector<linalg::GemmPackedB> pack_ab_integrals(const SigmaContext& ctx);

/// Mixed-spin sigma core (Eqs. 4-6) for one alpha (N-1)-string task
/// K' = (irrep hk, index ik).  `ints` is pack_ab_integrals(ctx).  `ccols`
/// and `scols` hold one pointer per entry of
/// tables(Spin::kAlpha).create->list(hk, ik): the gathered C column for
/// that orbital and the local accumulation buffer for the sigma column
/// (null when the corresponding block is absent).  Column lengths are the
/// beta row counts of the target blocks.  The caller owns gathering and
/// accumulating (ParallelSigma's DDI_GET / staged DDI_ACC).
void sigma_mixed_spin_core(const SigmaContext& ctx,
                           std::span<const linalg::GemmPackedB> ints,
                           std::size_t hk, std::size_t ik,
                           std::span<const double* const> ccols,
                           std::span<double* const> scols, SigmaStats& stats);

/// MOC variants of the same decomposition (same operator, indexed kernels).
void moc_same_spin_columns(const SigmaContext& ctx, Spin spin,
                           std::span<const ColumnView> views,
                           SigmaStats& stats);
/// The whole-vector MOC alpha-beta kernel: bench_table1_model counts its
/// indexed operations for Table 1.  ParallelSigma's MOC phase is its
/// per-rank twin, ParallelSigma::mixed_moc, which sums in another order.
void moc_mixed_spin(const SigmaContext& ctx, std::span<const double> c,
                    std::span<double> sigma, SigmaStats& stats);

}  // namespace xfci::fci
