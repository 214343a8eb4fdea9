#include "linalg/kernels.hpp"

#include "common/error.hpp"

namespace xfci::linalg {

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  XFCI_REQUIRE(x.size() == y.size(), "daxpy size mismatch");
  daxpy_n(x.size(), alpha, x.data(), y.data());
}

double dot(std::span<const double> x, std::span<const double> y) {
  XFCI_REQUIRE(x.size() == y.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void scatter_axpy(std::span<const double> in,
                  std::span<const std::uint32_t> idx,
                  std::span<const double> alpha, std::span<double> out) {
  XFCI_REQUIRE(in.size() == idx.size() && in.size() == alpha.size(),
               "scatter_axpy size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i) out[idx[i]] += alpha[i] * in[i];
}

void daxpy_n(std::size_t n, double s, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

}  // namespace xfci::linalg
