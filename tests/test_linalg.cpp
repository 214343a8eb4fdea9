// Tests for the dense linear algebra substrate: blocked GEMM against the
// reference kernel, level-1 kernels, eigensolvers and linear solvers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_kernels.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XFCI_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XFCI_SANITIZED 1
#endif
#endif
#ifndef XFCI_SANITIZED
#define XFCI_SANITIZED 0
#endif

namespace xl = xfci::linalg;

namespace {

/// The process's resident set in kB (/proc/self/statm), or -1 where it
/// cannot be read.
long resident_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return -1;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

xl::Matrix random_matrix(std::size_t r, std::size_t c, xfci::Rng& rng) {
  xl::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1, 1);
  return m;
}

xl::Matrix random_symmetric(std::size_t n, xfci::Rng& rng) {
  xl::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

}  // namespace

// ---------------------------------------------------------------- GEMM ----

struct GemmShape {
  std::size_t m, n, k;
  bool ta, tb;
};

// The ctest name: m x n x k and N or T for each operand, e.g. 3x5x7NN.
void PrintTo(const GemmShape& s, std::ostream* os) {
  *os << s.m << 'x' << s.n << 'x' << s.k << (s.ta ? 'T' : 'N')
      << (s.tb ? 'T' : 'N');
}

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  xfci::Rng rng(7 + p.m * 131 + p.n * 17 + p.k);
  // Stored shapes depend on transposition flags.
  const std::size_t ar = p.ta ? p.k : p.m, ac = p.ta ? p.m : p.k;
  const std::size_t br = p.tb ? p.n : p.k, bc = p.tb ? p.k : p.n;
  const xl::Matrix a = random_matrix(ar, ac, rng);
  const xl::Matrix b = random_matrix(br, bc, rng);
  xl::Matrix c1 = random_matrix(p.m, p.n, rng);
  xl::Matrix c2 = c1;

  const double alpha = 1.37, beta = -0.25;
  xl::gemm(p.ta, p.tb, p.m, p.n, p.k, alpha, a.data(), a.cols(), b.data(),
           b.cols(), beta, c1.data(), c1.cols());
  xl::gemm_reference(p.ta, p.tb, p.m, p.n, p.k, alpha, a.data(), a.cols(),
                     b.data(), b.cols(), beta, c2.data(), c2.cols());
  EXPECT_LT(c1.max_abs_diff(c2), 1e-11 * (1.0 + static_cast<double>(p.k)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(
        GemmShape{1, 1, 1, false, false}, GemmShape{3, 5, 7, false, false},
        GemmShape{4, 8, 16, false, false}, GemmShape{5, 9, 3, true, false},
        GemmShape{6, 2, 11, false, true}, GemmShape{7, 7, 7, true, true},
        GemmShape{64, 64, 64, false, false},
        GemmShape{129, 65, 257, false, false},
        GemmShape{130, 140, 150, true, false},
        GemmShape{33, 200, 12, false, true},
        GemmShape{200, 1, 300, false, false},
        GemmShape{1, 300, 200, false, false},
        GemmShape{255, 255, 5, true, true}));

TEST(Gemm, BetaZeroOverwritesNaNFree) {
  // beta = 0 must overwrite C even if C holds garbage.
  xl::Matrix a(2, 2), b(2, 2), c(2, 2, std::nan(""));
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 2, b.data(), 2, 0.0,
           c.data(), 2);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

TEST(Gemm, KZeroScalesOnly) {
  xl::Matrix c(2, 3, 2.0);
  xl::gemm(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5, c.data(),
           3);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_DOUBLE_EQ(c.data()[i], 1.0);
}

TEST(Gemm, StridedOutputLeavesGapsUntouched) {
  // C has ldc > n; the gap column must not be written.
  std::vector<double> c(2 * 4, 9.0);
  xl::Matrix a(2, 2, 1.0), b(2, 3, 1.0);
  xl::gemm(false, false, 2, 3, 2, 1.0, a.data(), 2, b.data(), 3, 0.0,
           c.data(), 4);
  EXPECT_DOUBLE_EQ(c[0 * 4 + 0], 2.0);
  EXPECT_DOUBLE_EQ(c[0 * 4 + 3], 9.0);
  EXPECT_DOUBLE_EQ(c[1 * 4 + 3], 9.0);
}

// ------------------------------------------------- dispatched kernels -----

namespace {

/// Restores the cpuid-dispatched default kernel when a test scope ends.
struct KernelGuard {
  ~KernelGuard() { xl::set_gemm_kernel(""); }
};

std::vector<double> random_buffer(std::size_t n, xfci::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

}  // namespace

TEST(Gemm, SmallProductOnAFreshThreadKeepsItsPackBuffersSmall) {
  if (XFCI_SANITIZED)
    GTEST_SKIP() << "sanitizer runtimes move the resident set themselves";
  if (resident_kb() < 0) GTEST_SKIP() << "/proc/self/statm is unreadable";
  // A thread's first gemm sizes its pack buffers to the call's panels; the
  // blocking's largest panels would zero-fill about 4.5 MB.
  long before = 0, after = 0;
  double c[4] = {};
  std::thread([&] {
    const double a[4] = {1, 2, 3, 4}, b[4] = {5, 6, 7, 8};
    before = resident_kb();
    xl::gemm(false, false, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 2);
    after = resident_kb();
  }).join();
  EXPECT_EQ(c[0], 19.0);
  EXPECT_EQ(c[3], 50.0);
  EXPECT_LT(after - before, 1024) << "kB added by one 2x2x2 gemm";
}

TEST(GemmKernels, RegistryListsPortableFirst) {
  const auto names = xl::gemm_kernel_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "portable");
  EXPECT_FALSE(xl::set_gemm_kernel("no-such-kernel"));
  KernelGuard guard;
  for (const auto& name : names) {
    EXPECT_TRUE(xl::set_gemm_kernel(name)) << name;
    EXPECT_STREQ(xl::gemm_kernel_name(), name.c_str());
    const auto blk = xl::gemm_blocking();
    EXPECT_GE(blk.mc, blk.mr);
    EXPECT_GE(blk.nc, blk.nr);
  }
}

// Every compiled-and-supported kernel must agree with gemm_reference over
// shapes that straddle the register tile and cache-block boundaries, all
// four transpose combinations, and leading dimensions larger than minimal.
TEST(GemmKernels, ConformanceSweep) {
  KernelGuard guard;
  for (const auto& name : xl::gemm_kernel_names()) {
    ASSERT_TRUE(xl::set_gemm_kernel(name));
    const auto blk = xl::gemm_blocking();
    const std::size_t shapes[][3] = {
        {blk.mr - 1, blk.nr - 1, 3},      {blk.mr, blk.nr, 8},
        {blk.mr + 1, blk.nr + 1, 9},      {2 * blk.mr + 3, 3 * blk.nr - 1, 17},
        {blk.mc - 1, blk.nr + 2, 31},     {blk.mc + 1, 2 * blk.nr + 5, 33},
        {blk.mr + 2, blk.nr, blk.kc + 1},
    };
    xfci::Rng rng(101);
    for (const auto& s : shapes) {
      const std::size_t m = s[0], n = s[1], k = s[2];
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const std::size_t ar = ta ? k : m, ac = ta ? m : k;
          const std::size_t br = tb ? n : k, bc = tb ? k : n;
          const std::size_t lda = ac + 3, ldb = bc + 2, ldc = n + 5;
          const auto a = random_buffer(ar * lda, rng);
          const auto b = random_buffer(br * ldb, rng);
          auto c1 = random_buffer(m * ldc, rng);
          auto c2 = c1;
          xl::gemm(ta, tb, m, n, k, 1.2, a.data(), lda, b.data(), ldb, -0.3,
                   c1.data(), ldc);
          xl::gemm_reference(ta, tb, m, n, k, 1.2, a.data(), lda, b.data(),
                             ldb, -0.3, c2.data(), ldc);
          double max_diff = 0.0;
          for (std::size_t i = 0; i < c1.size(); ++i)
            max_diff = std::max(max_diff, std::abs(c1[i] - c2[i]));
          EXPECT_LT(max_diff, 1e-11 * (1.0 + static_cast<double>(k)))
              << name << " m=" << m << " n=" << n << " k=" << k
              << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

// The property the stacked same-spin GEMM rests on: E = G * [B1 | ... | Bb]
// is, block by block, bitwise G * Bi alone under every kernel.  Each C(i, j)
// sums its k-panels in one order wherever column j sits, and with alpha = 1
// and beta = 0 edge and full tiles commit alike.  Block widths straddle
// each kernel's nr, k straddles kc, and one stacked n passes nc.
TEST(GemmKernels, StackedColumnBlocksAreBitwise) {
  struct Stack {
    std::size_t width, k, blocks;
  };
  std::vector<Stack> stacks;
  for (const std::size_t width : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u})
    for (const std::size_t k : {11u, 255u, 256u, 257u})
      stacks.push_back({width, k, 5});
  const std::size_t nc = xl::gemm_blocking().nc;
  stacks.push_back({17, 257, nc / 17 + 2});  // n = 17 * 122 > nc

  KernelGuard guard;
  for (const auto& name : xl::gemm_kernel_names()) {
    ASSERT_TRUE(xl::set_gemm_kernel(name));
    xfci::Rng rng(31);
    for (const Stack& st : stacks) {
      const std::size_t k = st.k, w = st.width, n = w * st.blocks;
      const auto g = random_buffer(k * k, rng);
      const auto b = random_buffer(k * n, rng);
      std::vector<double> e(k * n);
      xl::gemm(false, false, k, n, k, 1.0, g.data(), k, b.data(), n, 0.0,
               e.data(), n);
      std::vector<double> bi(k * w), ei(k * w);
      for (std::size_t blk = 0; blk < st.blocks; ++blk) {
        for (std::size_t row = 0; row < k; ++row)
          std::copy_n(b.data() + row * n + blk * w, w, bi.data() + row * w);
        xl::gemm(false, false, k, w, k, 1.0, g.data(), k, bi.data(), w, 0.0,
                 ei.data(), w);
        std::size_t mismatched_rows = 0;
        for (std::size_t row = 0; row < k; ++row)
          if (std::memcmp(e.data() + row * n + blk * w, ei.data() + row * w,
                          w * sizeof(double)) != 0)
            ++mismatched_rows;
        EXPECT_EQ(mismatched_rows, 0u)
            << name << " width=" << w << " k=" << k << " n=" << n
            << " block=" << blk;
      }
    }
  }
}

// The pre-laid product: B packed once, A written straight into the
// kernel's row panels, and C bitwise gemm(..., 1.0, ..., 0.0, ...) under
// every kernel.  m straddles the register tile and mc, n the tile and the
// mixed-spin widths, k the mixed-spin depths and kc; k = 769 sums three
// k-panels, where their order first shows in the bits (C starts at zero,
// so two panels commute).  C starts as junk with a row gap, so the product
// must overwrite C and leave the gaps alone.
TEST(GemmKernels, PrelaidProductIsBitwiseGemm) {
  KernelGuard guard;
  for (const auto& name : xl::gemm_kernel_names()) {
    ASSERT_TRUE(xl::set_gemm_kernel(name));
    const auto blk = xl::gemm_blocking();
    xfci::Rng rng(47);
    std::vector<double> scratch;  // reused dirty, as the sigma reuses it
    for (const std::size_t m : {std::size_t{1}, blk.mr - 1, blk.mr,
                                blk.mr + 1, std::size_t{127},
                                std::size_t{128}, std::size_t{129},
                                std::size_t{364}})
      for (const std::size_t n : {std::size_t{1}, blk.nr - 1, blk.nr,
                                  blk.nr + 1, std::size_t{34},
                                  std::size_t{196}})
        for (const std::size_t k :
             {1u, 16u, 34u, 255u, 256u, 257u, 289u, 769u}) {
          const auto a = random_buffer(m * k, rng);
          const auto b = random_buffer(k * n, rng);
          const std::size_t ldc = n + 3;
          auto want = random_buffer(m * ldc, rng);
          auto got = want;
          xl::gemm(false, false, m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
                   want.data(), ldc);

          const xl::GemmPackedB packed(k, n, b.data(), n);
          const xl::GemmPanelsA panels(m, packed);
          double* laid = panels.zeroed(scratch);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t p = 0; p < k; ++p)
              laid[panels.at(i, p)] = a[i * k + p];
          xl::gemm_prelaid(panels, laid, packed, got.data(), ldc);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0)
              << name << " m=" << m << " n=" << n << " k=" << k;
        }
  }
}

// A pack remembers its kernel: current() turns false when another kernel
// is pinned, and products with the stale pack still run the kernel it was
// packed for, so they keep that kernel's gemm() bits.
TEST(GemmKernels, PackedBKeepsTheKernelItWasPackedFor) {
  const auto names = xl::gemm_kernel_names();
  const std::size_t m = 45, n = 34, k = 34;
  xfci::Rng rng(53);
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  KernelGuard guard;
  for (const auto& packed_for : names) {
    ASSERT_TRUE(xl::set_gemm_kernel(packed_for));
    std::vector<double> want(m * n);
    xl::gemm(false, false, m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
             want.data(), n);
    const xl::GemmPackedB packed(k, n, b.data(), n);
    EXPECT_TRUE(packed.current()) << packed_for;
    const xl::GemmPanelsA panels(m, packed);
    std::vector<double> scratch;
    double* laid = panels.zeroed(scratch);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) laid[panels.at(i, p)] = a[i * k + p];
    for (const auto& pinned : names) {
      ASSERT_TRUE(xl::set_gemm_kernel(pinned));
      EXPECT_EQ(packed.current(), pinned == packed_for)
          << packed_for << " pack, " << pinned << " pinned";
      std::vector<double> got(m * n);
      xl::gemm_prelaid(panels, laid, packed, got.data(), n);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
          0)
          << packed_for << " pack, " << pinned << " pinned";
    }
  }
}

// ------------------------------------------------- degenerate contract ----

TEST(GemmContract, LdcTooSmallThrowsInBoth) {
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 0.0);
  EXPECT_THROW(xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 2, b.data(), 2,
                        0.0, c.data(), 1),
               xfci::Error);
  EXPECT_THROW(xl::gemm_reference(false, false, 2, 2, 2, 1.0, a.data(), 2,
                                  b.data(), 2, 0.0, c.data(), 1),
               xfci::Error);
}

TEST(GemmContract, LdaTooSmallThrowsOnlyWhenRead) {
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 2.0);
  // lda = 1 < k = 2 is malformed when the product term reads A...
  EXPECT_THROW(xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 1, b.data(), 2,
                        0.0, c.data(), 2),
               xfci::Error);
  EXPECT_THROW(xl::gemm_reference(false, false, 2, 2, 2, 1.0, a.data(), 1,
                                  b.data(), 2, 0.0, c.data(), 2),
               xfci::Error);
  // ...but alpha = 0 never reads A or B, so the same call scales C only.
  xl::gemm(false, false, 2, 2, 2, 0.0, a.data(), 1, b.data(), 2, 0.5,
           c.data(), 2);
  for (const double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(GemmContract, AlphaZeroNeverReadsAB) {
  // nullptr A/B with alpha = 0 must be legal in both implementations.
  std::vector<double> c1(6, 4.0), c2(6, 4.0);
  xl::gemm(false, false, 2, 3, 5, 0.0, nullptr, 5, nullptr, 3, 0.25,
           c1.data(), 3);
  xl::gemm_reference(false, false, 2, 3, 5, 0.0, nullptr, 5, nullptr, 3,
                     0.25, c2.data(), 3);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_DOUBLE_EQ(c1[i], 1.0);
    EXPECT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

TEST(GemmContract, EmptyOutputIsNoop) {
  // m == 0 / n == 0: no C element exists, nothing may be touched and the
  // (irrelevant) ldc must not be validated against n.
  std::vector<double> b(4, 1.0);
  xl::gemm(false, false, 0, 2, 2, 1.0, nullptr, 2, b.data(), 2, 0.0, nullptr,
           0);
  xl::gemm_reference(false, false, 0, 2, 2, 1.0, nullptr, 2, b.data(), 2,
                     0.0, nullptr, 0);
  std::vector<double> a(4, 1.0), c(2, 7.0);
  xl::gemm(false, false, 2, 0, 2, 1.0, a.data(), 2, nullptr, 0, 0.0,
           c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 7.0);  // no row has any column to scale
  EXPECT_DOUBLE_EQ(c[1], 7.0);
}

TEST(GemmContract, KZeroAgreesWithReference) {
  std::vector<double> c1(6, 2.0), c2(6, 2.0);
  xl::gemm(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5,
           c1.data(), 3);
  xl::gemm_reference(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5,
                     c2.data(), 3);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_DOUBLE_EQ(c1[i], 1.0);
    EXPECT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

// ------------------------------------------------------------- Matrix -----

TEST(Matrix, TransposeRoundTrip) {
  xfci::Rng rng(3);
  const xl::Matrix a = random_matrix(37, 53, rng);
  EXPECT_EQ(a.transposed().transposed().max_abs_diff(a), 0.0);
}

TEST(Matrix, IdentityMultiplication) {
  xfci::Rng rng(4);
  const xl::Matrix a = random_matrix(20, 20, rng);
  const xl::Matrix i = xl::Matrix::identity(20);
  EXPECT_LT((a * i).max_abs_diff(a), 1e-14);
  EXPECT_LT((i * a).max_abs_diff(a), 1e-14);
}

TEST(Matrix, OutOfRangeThrows) {
  xl::Matrix a(2, 3);
  EXPECT_THROW(a(2, 0), xfci::Error);
  EXPECT_THROW(a(0, 3), xfci::Error);
  EXPECT_THROW(a * a, xfci::Error);  // 2x3 * 2x3 shape mismatch
}

// ------------------------------------------------------------- kernels ----

TEST(Kernels, DaxpyDot) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  xl::daxpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(xl::dot(x, x), 14.0);
}

TEST(Kernels, ScatterAxpy) {
  std::vector<double> in = {40, 20};
  std::vector<std::uint32_t> idx = {3, 1};
  std::vector<double> acc(4, 0.0);
  std::vector<double> alpha = {2.0, -1.0};
  xl::scatter_axpy(in, idx, alpha, acc);
  EXPECT_DOUBLE_EQ(acc[3], 80.0);
  EXPECT_DOUBLE_EQ(acc[1], -20.0);
  EXPECT_DOUBLE_EQ(acc[0], 0.0);
}

// --------------------------------------------------------------- eigh -----

class EighTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EighTest, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  xfci::Rng rng(n);
  const xl::Matrix a = random_symmetric(n, rng);
  const auto eig = xl::eigh(a);

  // Eigenvalues ascending.
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(eig.values[i - 1], eig.values[i] + 1e-14);

  // A V = V diag(w).
  const xl::Matrix av = a * eig.vectors;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), eig.values[j] * eig.vectors(i, j), 1e-10);

  // V orthonormal.
  const xl::Matrix vtv = eig.vectors.transposed() * eig.vectors;
  EXPECT_LT(vtv.max_abs_diff(xl::Matrix::identity(n)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(Eigh, DiagonalMatrix) {
  xl::Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const auto eig = xl::eigh(a);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-14);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-14);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-14);
}

// ------------------------------------------------------ 2x2 generalized ---

TEST(Gen2x2, ReducesToStandardWithIdentityMetric) {
  const auto r = xl::lowest_gen_eig_2x2(2.0, 1.0, 4.0, 1.0, 0.0, 1.0);
  // Eigenvalues of [[2,1],[1,4]] are 3 -+ sqrt(2).
  EXPECT_NEAR(r.eigenvalue, 3.0 - std::sqrt(2.0), 1e-12);
  // Residual check (H - E) x = 0.
  EXPECT_NEAR((2.0 - r.eigenvalue) * r.x0 + 1.0 * r.x1, 0.0, 1e-10);
}

TEST(Gen2x2, GeneralMetricSatisfiesResidual) {
  xfci::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const double h00 = rng.uniform(-2, 2);
    const double h01 = rng.uniform(-2, 2);
    const double h11 = rng.uniform(-2, 2);
    const double s01 = rng.uniform(-0.5, 0.5);
    const double s00 = 1.0 + rng.uniform(0, 1);
    const double s11 = 1.0 + rng.uniform(0, 1);
    const auto r = xl::lowest_gen_eig_2x2(h00, h01, h11, s00, s01, s11);
    const double r0 =
        (h00 - r.eigenvalue * s00) * r.x0 + (h01 - r.eigenvalue * s01) * r.x1;
    const double r1 =
        (h01 - r.eigenvalue * s01) * r.x0 + (h11 - r.eigenvalue * s11) * r.x1;
    EXPECT_NEAR(r0, 0.0, 1e-8);
    EXPECT_NEAR(r1, 0.0, 1e-8);
    // Rayleigh quotient of the eigenvector equals the eigenvalue.
    const double num = h00 * r.x0 * r.x0 + 2 * h01 * r.x0 * r.x1 +
                       h11 * r.x1 * r.x1;
    const double den = s00 * r.x0 * r.x0 + 2 * s01 * r.x0 * r.x1 +
                       s11 * r.x1 * r.x1;
    EXPECT_NEAR(num / den, r.eigenvalue, 1e-8);
  }
}

// -------------------------------------------------------------- solvers ---

TEST(SymSolvePinv, DropsNullspace) {
  // Singular symmetric system: solve in the range, ignore the nullspace.
  xl::Matrix a(2, 2);
  a(0, 0) = 2.0;  // rank-1
  const std::vector<double> b = {4.0, 0.0};
  const auto x = xl::sym_solve_pinv(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}
