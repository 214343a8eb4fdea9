#pragma once
// Level-1 vector kernels and the indexed scatter-add primitive.
//
// The MOC (minimum-operation-count) FCI baseline is built on exactly these
// kernels — DAXPY and indexed multiply-add — which is why it performs the
// way it does on vector machines (paper, section 2.1 and Fig. 4).

#include <cstddef>
#include <cstdint>
#include <span>

namespace xfci::linalg {

/// y += alpha * x.
void daxpy(double alpha, std::span<const double> x, std::span<double> y);

/// Euclidean dot product.
double dot(std::span<const double> x, std::span<const double> y);

/// Indexed scatter-add: out[idx[i]] += alpha[i] * in[i].
/// This is the "indexed multiply and add" kernel of the MOC algorithm.
void scatter_axpy(std::span<const double> in,
                  std::span<const std::uint32_t> idx,
                  std::span<const double> alpha, std::span<double> out);

/// out[i] += s * in[i] for i in [0, n); raw-pointer form used in the hot
/// string loops where span construction would dominate.
void daxpy_n(std::size_t n, double s, const double* x, double* y);

}  // namespace xfci::linalg
