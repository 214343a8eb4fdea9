#pragma once
// Blocked double-precision general matrix multiply (row-major).
//
// xfci implements its own DGEMM so that (a) the library is self-contained
// (no vendor BLAS available on the target host), and (b) the Cray-X1 cost
// model can charge the exact (m, n, k) shapes the FCI sigma routines
// produce.  The implementation is a classic three-level blocked GEMM with
// A/B panel packing driving a runtime-dispatched register-tiled
// micro-kernel (portable scalar / AVX2 / AVX-512 -- see
// linalg/gemm_kernels.hpp for dispatch rules, pinning and the per-ISA
// determinism contract).
//
// All matrices are row-major.  `ld*` are leading dimensions (row strides).
// Every product runs on the calling thread: as on the paper's MSPs, each
// rank body or pool stage of the sigma runs its own GEMMs, so the
// parallelism lives in the DDI layer and linalg needs only xfci_common.
//
// A product that repeats one B over many A can skip gemm()'s per-call
// packing, in the spirit of MKL's cblas_dgemm_pack / cblas_dgemm_compute:
// GemmPackedB packs B once in the micro-kernel's strip layout, the caller
// writes A straight into the kernel's row panels (GemmPanelsA), and
// gemm_prelaid() multiplies them, bitwise as gemm() would.

#include <cstddef>
#include <vector>

namespace xfci::linalg {

struct GemmMicroKernel;  // linalg/gemm_kernels.hpp
class GemmPanelsA;

/// C = alpha * op(A) * op(B) + beta * C, row-major.
///
/// op(A) is m x k, op(B) is k x n, C is m x n.  `transa`/`transb` select
/// op(X) = X or X^T; the leading dimension always refers to the stored
/// (untransposed) matrix.
void gemm(bool transa, bool transb, std::size_t m, std::size_t n,
          std::size_t k, double alpha, const double* a, std::size_t lda,
          const double* b, std::size_t ldb, double beta, double* c,
          std::size_t ldc);

/// Blocking parameters of the current configuration: cache blocks (mc, kc,
/// nc) and the dispatched kernel's register tile (mr, nr).  Tests use these
/// to build shape sweeps that straddle every block boundary.
struct GemmBlocking {
  std::size_t mc, kc, nc;  ///< L2 / panel / L3 cache blocks
  std::size_t mr, nr;      ///< register tile of the active micro-kernel
};
GemmBlocking gemm_blocking();

/// A k x n row-major B packed once for many products: the nr-column strips
/// of the micro-kernel gemm() dispatched to at construction, each strip k
/// rows deep and zero-padded to nr.  A k-panel of a strip is exactly what
/// gemm() packs that panel into, so products with it keep gemm()'s bits.
/// The pack remembers its kernel: gemm_prelaid() runs that kernel, and
/// current() says whether gemm() still dispatches to it.
class GemmPackedB {
 public:
  /// Packs B (row stride ldb >= n) for the kernel gemm() dispatches to now.
  GemmPackedB(std::size_t k, std::size_t n, const double* b, std::size_t ldb);

  std::size_t rows() const { return k_; }
  std::size_t cols() const { return n_; }
  /// True while gemm() dispatches to the kernel this B was packed for.
  bool current() const;

 private:
  friend class GemmPanelsA;
  friend void gemm_prelaid(const GemmPanelsA& a_layout, const double* a,
                           const GemmPackedB& b, double* c, std::size_t ldc);
  const GemmMicroKernel* kern_;
  std::size_t k_, n_;
  std::size_t mr_shift_ = 0;  // log2 of the kernel's mr (a power of two)
  std::vector<double> data_;
};

/// Where an m x k A lies when the caller writes it straight into the row
/// panels of `b`'s micro-kernel, the layout gemm() packs A into: mr-row
/// strips, each k deep, element (i, p) of strip i / mr at p * mr + i % mr.
/// The caller takes size() zeroed doubles (zeroed()), then writes A(i, p)
/// at at(i, p); an element it never writes is zero.
class GemmPanelsA {
 public:
  GemmPanelsA(std::size_t m, const GemmPackedB& b)
      : m_(m),
        shift_(b.mr_shift_),
        strip_(b.k_ << b.mr_shift_),
        size_(((m + (std::size_t{1} << shift_) - 1) >> shift_) * strip_) {}

  std::size_t rows() const { return m_; }
  /// Doubles of the laid-out A, row padding included.
  std::size_t size() const { return size_; }
  /// The first size() doubles of `scratch`, zeroed; grows `scratch` when
  /// it is too short and never shrinks it.
  double* zeroed(std::vector<double>& scratch) const;
  /// Offset of A(i, p) (no division: mr is a power of two).
  std::size_t at(std::size_t i, std::size_t p) const {
    const std::size_t mask = (std::size_t{1} << shift_) - 1;
    return (i >> shift_) * strip_ + (i & mask) + (p << shift_);
  }

 private:
  std::size_t m_, shift_, strip_, size_;
};

/// C = A * B with A laid out by `a_layout` in `a` and B packed in `b`: the
/// m x n product into C (row stride ldc), bitwise
/// gemm(false, false, m, n, k, 1.0, A, k, B, n, 0.0, C, ldc) under b's
/// kernel.  It drives gemm()'s macro-kernel loop over the same k-panels
/// (kc) in the same order and records gemm()'s telemetry; it packs nothing.
void gemm_prelaid(const GemmPanelsA& a_layout, const double* a,
                  const GemmPackedB& b, double* c, std::size_t ldc);

/// Reference triple-loop GEMM used to validate the blocked kernel in tests.
/// Shares gemm()'s degenerate-shape contract: ldc is only validated when
/// m > 0, and lda/ldb only when the product term actually reads A and B
/// (m, n, k all nonzero and alpha != 0).
void gemm_reference(bool transa, bool transb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    double beta, double* c, std::size_t ldc);

/// Flop count of a gemm call (2*m*n*k), used by the X1 cost model.
inline double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace xfci::linalg
