// Counts the CI-length allocations of the single-vector solver: the paper's
// auto-adjusted method needs one CI vector plus one sigma vector, so after
// the warm start an iteration allocates no vector of the CI dimension.
// Its own binary, because it replaces the global operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "fci/fci.hpp"
#include "fci/solvers.hpp"
#include "systems/standard_systems.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_min_bytes{0};
std::atomic<std::size_t> g_count{0};

void* counted_alloc(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed) &&
      bytes >= g_min_bytes.load(std::memory_order_relaxed))
    g_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xf = xfci::fci;
namespace xs = xfci::systems;

namespace {

// sigma with the count paused inside apply; notes the count at each call,
// so the allocations between two calls are one iteration's.
class PausingSigma final : public xf::SigmaOperator {
 public:
  explicit PausingSigma(xf::SigmaOperator& inner) : inner_(inner) {}
  void apply(std::span<const double> c, std::span<double> sigma) override {
    g_counting = false;
    marks_.push_back(g_count.load());
    inner_.apply(c, sigma);
    g_counting = true;
  }
  const xf::CiSpace& space() const override { return inner_.space(); }
  const std::vector<std::size_t>& marks() const { return marks_; }

 private:
  xf::SigmaOperator& inner_;
  std::vector<std::size_t> marks_;
};

}  // namespace

TEST(SolverAllocations, SingleVectorIterationsAllocateNoCiLengthVector) {
  xs::SpaceOptions dz;
  dz.basis = "x-dz";
  dz.freeze_core = 1;
  dz.max_orbitals = 8;
  const xs::PreparedSystem systems[] = {xs::water({}),
                                        xs::oxygen_atom(dz)};
  for (const xs::PreparedSystem& sys : systems) {
    const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                            sys.tables.group, sys.tables.orbital_irreps,
                            sys.ground_irrep);
    const xf::SigmaContext ctx(space, sys.tables);
    const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
    for (const auto method : {xf::Method::kOlsen, xf::Method::kModifiedOlsen,
                              xf::Method::kAutoAdjusted}) {
      SCOPED_TRACE(sys.name + (sys.nalpha == sys.nbeta ? " (Ms = 0), "
                                                       : " (open shell), ") +
                   xf::method_name(method));
      xf::SolverOptions opt;
      opt.method = method;
      opt.model_space = 20;
      opt.max_iterations = 6;
      opt.residual_tolerance = 1e-14;  // run every iteration
      const xf::ModelSpacePreconditioner precond(space, sys.tables,
                                                 opt.model_space);
      PausingSigma counted(*op);
      g_min_bytes = space.dimension() * sizeof(double);
      g_count = 0;
      g_counting = true;
      const auto res = xf::solve_lowest(counted, sys.tables, opt, &precond);
      g_counting = false;

      const std::vector<std::size_t>& marks = counted.marks();
      ASSERT_EQ(marks.size(), opt.max_iterations);
      ASSERT_EQ(res.iterations, opt.max_iterations);
      // Between consecutive sigma calls: one iteration after the warm start.
      for (std::size_t k = 1; k < marks.size(); ++k)
        EXPECT_EQ(marks[k] - marks[k - 1], 0u)
            << "CI-length allocations in iteration " << k;
    }
  }
}
