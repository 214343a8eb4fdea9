#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/gemm.hpp"

namespace xfci::linalg {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Simple blocked transpose for cache friendliness.
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = 0; ib < rows_; ib += kBlock) {
    const std::size_t imax = std::min(ib + kBlock, rows_);
    for (std::size_t jb = 0; jb < cols_; jb += kBlock) {
      const std::size_t jmax = std::min(jb + kBlock, cols_);
      for (std::size_t i = ib; i < imax; ++i)
        for (std::size_t j = jb; j < jmax; ++j)
          t.data_[j * rows_ + i] = data_[i * cols_ + j];
    }
  }
  return t;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  XFCI_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "max_abs_diff shape mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    d = std::max(d, std::abs(data_[i] - other.data_[i]));
  return d;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
  return true;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  XFCI_REQUIRE(a.cols() == b.rows(), "operator* shape mismatch");
  Matrix c(a.rows(), b.cols());
  gemm(false, false, a.rows(), b.cols(), a.cols(), 1.0, a.data(), a.cols(),
       b.data(), b.cols(), 0.0, c.data(), c.cols());
  return c;
}

}  // namespace xfci::linalg
