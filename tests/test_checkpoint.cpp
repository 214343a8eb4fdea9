// Checkpoint/restart tests: byte-exact round trips, corruption detection
// (truncation, bit flips, wrong magic/version), the kill-then-restart
// bitwise-trajectory guarantee of the single-vector solvers, and warm
// starts for every method.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fci/checkpoint.hpp"
#include "fci/fci.hpp"
#include "fci/solvers.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;

namespace {

// Same random-but-physical model Hamiltonian as test_solvers.cpp.
xi::IntegralTables model_tables(std::size_t norb, std::uint64_t seed) {
  xfci::Rng rng(seed);
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  for (std::size_t p = 0; p < norb; ++p) {
    t.h(p, p) = -2.0 + 0.7 * static_cast<double>(p);
    for (std::size_t q = 0; q < p; ++q) {
      const double v = 0.05 * rng.uniform(-1, 1);
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const double scale = (p == q && r == s) ? 0.3 : 0.05;
          t.eri.set(p, q, r, s, scale * rng.uniform(0, 1));
        }
  t.core_energy = 1.25;
  return t;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

xf::Checkpoint sample_checkpoint() {
  xf::Checkpoint ck;
  ck.iteration = 11;
  ck.method = 4;
  ck.have_prev = true;
  ck.lambda = 0.8125;
  ck.e_prev = -14.61803398874989;
  ck.b_prev = 3.5e-4;
  ck.tt_prev = 1.25e-7;
  ck.s2_prev = 0.99999991;
  ck.lambda_prev = 0.75;
  ck.last_e = -14.618033989;
  xfci::Rng rng(5);
  ck.c = rng.signed_vector(97);
  ck.energy_history = {-14.1, -14.5, -14.61};
  ck.residual_history = {1e-1, 1e-3, 1e-5};
  return ck;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    buf.insert(buf.end(), chunk, chunk + n);
  std::fclose(f);
  return buf;
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& buf) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
}

}  // namespace

TEST(Checkpoint, RoundTripIsByteExact) {
  const auto path = tmp_path("ck_roundtrip.bin");
  const xf::Checkpoint ck = sample_checkpoint();
  xf::save_checkpoint(path, ck);
  const xf::Checkpoint r = xf::load_checkpoint(path);

  EXPECT_EQ(r.iteration, ck.iteration);
  EXPECT_EQ(r.method, ck.method);
  EXPECT_EQ(r.have_prev, ck.have_prev);
  EXPECT_EQ(r.lambda, ck.lambda);
  EXPECT_EQ(r.e_prev, ck.e_prev);
  EXPECT_EQ(r.b_prev, ck.b_prev);
  EXPECT_EQ(r.tt_prev, ck.tt_prev);
  EXPECT_EQ(r.s2_prev, ck.s2_prev);
  EXPECT_EQ(r.lambda_prev, ck.lambda_prev);
  EXPECT_EQ(r.last_e, ck.last_e);
  ASSERT_EQ(r.c.size(), ck.c.size());
  for (std::size_t i = 0; i < ck.c.size(); ++i) EXPECT_EQ(r.c[i], ck.c[i]);
  EXPECT_EQ(r.energy_history, ck.energy_history);
  EXPECT_EQ(r.residual_history, ck.residual_history);
  // No stale ".tmp" file is left behind by the atomic publish.
  std::FILE* leftover = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(leftover, nullptr);
  if (leftover) std::fclose(leftover);
}

TEST(Checkpoint, TruncatedFileFailsCleanly) {
  const auto path = tmp_path("ck_trunc.bin");
  xf::save_checkpoint(path, sample_checkpoint());
  const auto buf = read_file(path);
  ASSERT_GT(buf.size(), 64u);
  // Chop at several depths: mid-header, mid-array, mid-checksum.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, buf.size() / 2, buf.size() - 3}) {
    write_file(path, {buf.begin(), buf.begin() + keep});
    EXPECT_THROW(xf::load_checkpoint(path), xfci::Error) << keep;
  }
}

TEST(Checkpoint, BitFlipFailsChecksum) {
  const auto path = tmp_path("ck_flip.bin");
  xf::save_checkpoint(path, sample_checkpoint());
  auto buf = read_file(path);
  buf[buf.size() / 2] ^= 0x10;
  write_file(path, buf);
  EXPECT_THROW(xf::load_checkpoint(path), xfci::Error);
}

TEST(Checkpoint, WrongMagicVersionOrTrailingBytesFail) {
  const auto path = tmp_path("ck_bad.bin");
  xf::save_checkpoint(path, sample_checkpoint());
  auto good = read_file(path);

  auto bad = good;
  bad[0] = 'Y';
  write_file(path, bad);
  EXPECT_THROW(xf::load_checkpoint(path), xfci::Error);

  bad = good;
  bad[8] += 1;  // version word (checksum catches it first; still an error)
  write_file(path, bad);
  EXPECT_THROW(xf::load_checkpoint(path), xfci::Error);

  bad = good;
  bad.push_back(0);
  write_file(path, bad);
  EXPECT_THROW(xf::load_checkpoint(path), xfci::Error);

  EXPECT_THROW(xf::load_checkpoint(tmp_path("ck_missing.bin")), xfci::Error);
}

TEST(Checkpoint, KillThenRestartReproducesTrajectoryBitwise) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto path = tmp_path("ck_restart.bin");

  xf::SolverOptions opt;
  opt.method = xf::Method::kAutoAdjusted;
  opt.model_space = 12;
  opt.max_iterations = 200;

  // The uninterrupted reference run.
  const auto op_ref = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto ref = xf::solve_lowest(*op_ref, tables, opt);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 6u);

  // "Kill" the run after 4 iterations, checkpointing every iteration.
  xf::SolverOptions first = opt;
  first.max_iterations = 4;
  first.checkpoint_path = path;
  const auto op1 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto partial = xf::solve_lowest(*op1, tables, first);
  ASSERT_FALSE(partial.converged);

  // Restart from the checkpoint and run to convergence.
  xf::SolverOptions second = opt;
  second.restart_path = path;
  const auto op2 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto resumed = xf::solve_lowest(*op2, tables, second);
  ASSERT_TRUE(resumed.converged);

  // The resumed trajectory -- including the restored prefix -- must equal
  // the uninterrupted one bit for bit, iteration for iteration.
  EXPECT_EQ(resumed.iterations, ref.iterations);
  ASSERT_EQ(resumed.energy_history.size(), ref.energy_history.size());
  for (std::size_t i = 0; i < ref.energy_history.size(); ++i)
    EXPECT_EQ(resumed.energy_history[i], ref.energy_history[i]) << i;
  ASSERT_EQ(resumed.residual_history.size(), ref.residual_history.size());
  for (std::size_t i = 0; i < ref.residual_history.size(); ++i)
    EXPECT_EQ(resumed.residual_history[i], ref.residual_history[i]) << i;
  EXPECT_EQ(resumed.energy, ref.energy);
  ASSERT_EQ(resumed.vector.size(), ref.vector.size());
  for (std::size_t i = 0; i < ref.vector.size(); ++i)
    EXPECT_EQ(resumed.vector[i], ref.vector[i]);
}

TEST(Checkpoint, RestartRejectsMethodMismatch) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto path = tmp_path("ck_method.bin");

  xf::SolverOptions writer;
  writer.method = xf::Method::kAutoAdjusted;
  writer.model_space = 12;
  writer.max_iterations = 3;
  writer.checkpoint_path = path;
  const auto op1 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  xf::solve_lowest(*op1, tables, writer);

  xf::SolverOptions reader = writer;
  reader.checkpoint_path.clear();
  reader.restart_path = path;
  reader.method = xf::Method::kModifiedOlsen;
  const auto op2 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  EXPECT_THROW(xf::solve_lowest(*op2, tables, reader), xfci::Error);
}

TEST(WarmStart, AutoAdjustedMatchesColdRunTail) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);

  xf::SolverOptions opt;
  opt.method = xf::Method::kAutoAdjusted;
  opt.model_space = 12;
  opt.max_iterations = 200;
  const auto op1 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto cold = xf::solve_lowest(*op1, tables, opt);
  ASSERT_TRUE(cold.converged);

  // Warm-started from the converged vector, the first iterate must already
  // sit on the tail of the cold run's energy history and converge at once.
  xf::SolverOptions warm = opt;
  warm.initial_vector = cold.vector;
  const auto op2 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto res = xf::solve_lowest(*op2, tables, warm);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 3u);
  EXPECT_NEAR(res.energy_history.front(), cold.energy_history.back(), 1e-10);
  EXPECT_NEAR(res.energy, cold.energy, 1e-10);
}

TEST(WarmStart, EveryMethodAcceptsInitialVector) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);

  xf::SolverOptions base;
  base.method = xf::Method::kAutoAdjusted;
  base.model_space = 12;
  base.max_iterations = 200;
  const auto op0 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto cold = xf::solve_lowest(*op0, tables, base);
  ASSERT_TRUE(cold.converged);

  for (const auto m :
       {xf::Method::kDavidson, xf::Method::kSubspace2, xf::Method::kOlsen,
        xf::Method::kModifiedOlsen, xf::Method::kAutoAdjusted}) {
    xf::SolverOptions opt = base;
    opt.method = m;
    opt.initial_vector = cold.vector;
    const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
    const auto res = xf::solve_lowest(*op, tables, opt);
    EXPECT_TRUE(res.converged) << xf::method_name(m);
    EXPECT_NEAR(res.energy, cold.energy, 1e-9) << xf::method_name(m);
    EXPECT_LE(res.iterations, 6u) << xf::method_name(m);
  }
}

TEST(WarmStart, SubspaceMethodsRestartFromCheckpointAsWarmStart) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto path = tmp_path("ck_warm.bin");

  xf::SolverOptions writer;
  writer.method = xf::Method::kSubspace2;
  writer.model_space = 12;
  writer.max_iterations = 6;
  writer.checkpoint_path = path;
  const auto op1 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  xf::solve_lowest(*op1, tables, writer);

  xf::SolverOptions reader;
  reader.method = xf::Method::kSubspace2;
  reader.model_space = 12;
  reader.max_iterations = 200;
  reader.restart_path = path;
  const auto op2 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto res = xf::solve_lowest(*op2, tables, reader);
  EXPECT_TRUE(res.converged);

  xf::SolverOptions davidson = reader;
  davidson.method = xf::Method::kDavidson;
  const auto op3 = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  const auto dres = xf::solve_lowest(*op3, tables, davidson);
  EXPECT_TRUE(dres.converged);
  EXPECT_NEAR(dres.energy, res.energy, 1e-8);
}

TEST(WarmStart, RejectsWrongDimension) {
  const auto tables = model_tables(6, 42);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xf::SolverOptions opt;
  opt.initial_vector.assign(7, 0.5);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  EXPECT_THROW(xf::solve_lowest(*op, tables, opt), xfci::Error);
}
