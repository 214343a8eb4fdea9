#pragma once
// Dense row-major matrix of doubles.
//
// This is the storage type used throughout xfci for integral tables,
// coefficient blocks and the D/E intermediates of the DGEMM-based sigma
// routines.  It is intentionally minimal: contiguous row-major storage,
// bounds-checked element access through operator(), and span views for the
// compute kernels in gemm.hpp / kernels.hpp.

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace xfci::linalg {

/// rows * cols with a wrap check: the product of two large extents can
/// overflow std::size_t *before* the allocation, silently producing a
/// tiny matrix instead of failing.
inline std::size_t checked_extent(std::size_t rows, std::size_t cols) {
  std::size_t n = 0;
  XFCI_REQUIRE(!__builtin_mul_overflow(rows, cols, &n),
               "matrix extent rows * cols overflows std::size_t");
  return n;
}

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(checked_extent(rows, cols), 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(checked_extent(rows, cols), fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t i, std::size_t j) {
    XFCI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    XFCI_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<double> span() { return {data_.data(), data_.size()}; }
  std::span<const double> span() const { return {data_.data(), data_.size()}; }

  /// Mutable view of row i.
  std::span<double> row(std::size_t i) {
    XFCI_ASSERT(i < rows_, "row index out of range");
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const {
    XFCI_ASSERT(i < rows_, "row index out of range");
    return {data_.data() + i * cols_, cols_};
  }

  /// Reshape to rows x cols, zeroing contents; reuses capacity when possible.
  /// The extent check runs first, so a rejected resize leaves the matrix
  /// unchanged.
  void resize(std::size_t rows, std::size_t cols) {
    const std::size_t n = checked_extent(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(n, 0.0);
  }

  /// Identity matrix of dimension n.
  static Matrix identity(std::size_t n);

  /// Returns the transpose as a new matrix.
  Matrix transposed() const;

  /// Maximum absolute element difference to `other` (must match shape).
  double max_abs_diff(const Matrix& other) const;

  /// True when |a(i,j) - a(j,i)| <= tol for all i, j (square only).
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C(m,n) = A(m,k) * B(k,n); shapes validated.
Matrix operator*(const Matrix& a, const Matrix& b);

}  // namespace xfci::linalg
