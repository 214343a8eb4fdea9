// Tests for the shared driver command line (fci_parallel/driver_cli.hpp):
// valid parses, and the exit-code-2 contract for malformed input.  atoi
// used to coerce "12abc" to 12 and "-2" to a 1.8e19 thread count; these
// death tests pin the strict behaviour.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fci_parallel/driver_cli.hpp"
#include "linalg/gemm_kernels.hpp"
#include "parallel/shm_ipc.hpp"

namespace xfcp = xfci::fcp;

namespace {

/// Runs DriverCli::parse on a writable copy of the given arguments.
xfcp::DriverCli parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "test_driver";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return xfcp::DriverCli::parse(static_cast<int>(argv.size()), argv.data());
}

/// The parse must terminate with the usage exit code (2).
void expect_usage_exit(std::vector<std::string> args) {
  EXPECT_EXIT(parse(std::move(args)), ::testing::ExitedWithCode(2),
              "malformed");
}

}  // namespace

TEST(DriverCli, ParsesValidArguments) {
  const auto cli = parse({"8", "--backend", "threads", "--threads", "4",
                          "--max-iters", "12", "--trace", "t.json",
                          "--metrics=m.json", "--faults"});
  EXPECT_EQ(cli.num_ranks, 8u);
  EXPECT_EQ(cli.backend, xfcp::ExecutionMode::kThreads);
  EXPECT_EQ(cli.num_threads, 4u);
  EXPECT_EQ(cli.max_iters, 12u);
  EXPECT_EQ(cli.trace, "t.json");
  EXPECT_EQ(cli.metrics, "m.json");
  EXPECT_TRUE(cli.faults);
}

TEST(DriverCli, ParsesProcessBackendAndRanksFlag) {
  if (!xfci::pv::process_backend_supported())
    GTEST_SKIP() << "process backend unsupported on this platform";
  const auto cli = parse({"--backend", "process", "--ranks", "3"});
  EXPECT_EQ(cli.backend, xfcp::ExecutionMode::kProcess);
  EXPECT_EQ(cli.num_ranks, 3u);
  EXPECT_STREQ(cli.backend_name(), "process");
  EXPECT_EQ(cli.parallel_options().execution, xfcp::ExecutionMode::kProcess);
}

TEST(DriverCli, DefaultsApply) {
  const auto cli = parse({});
  EXPECT_EQ(cli.num_ranks, 16u);
  EXPECT_EQ(cli.backend, xfcp::ExecutionMode::kSimulate);
  EXPECT_EQ(cli.num_threads, 0u);
  EXPECT_FALSE(cli.faults);
}

TEST(DriverCliDeath, RejectsMalformedThreadCounts) {
  expect_usage_exit({"--threads", "abc"});
  expect_usage_exit({"--threads", "-2"});    // atoi would wrap to huge
  expect_usage_exit({"--threads", "4x"});    // atoi would coerce to 4
  expect_usage_exit({"--threads", "1e3"});
  expect_usage_exit({"--threads", ""});
}

TEST(DriverCli, ParsesServeFlags) {
  const auto cli = parse({"--jobs", "6", "--priority", "interactive"});
  EXPECT_EQ(cli.jobs, 6u);
  EXPECT_EQ(cli.priority, "interactive");
}

TEST(DriverCli, ServeFlagDefaultsAndEqualsForm) {
  const auto defaults = parse({});
  EXPECT_EQ(defaults.jobs, 0u);
  EXPECT_EQ(defaults.priority, "batch");
  const auto eq = parse({"--priority=batch"});
  EXPECT_EQ(eq.priority, "batch");
}

TEST(DriverCliDeath, RejectsMalformedJobs) {
  expect_usage_exit({"--jobs", "six"});
  expect_usage_exit({"--jobs", "-1"});    // atoi would wrap to huge
  expect_usage_exit({"--jobs", "4x"});    // atoi would coerce to 4
}

TEST(DriverCliDeath, RejectsUnknownPriority) {
  expect_usage_exit({"--priority", "urgent"});
  expect_usage_exit({"--priority="});
}

TEST(DriverCliDeath, RejectsMalformedMaxIters) {
  expect_usage_exit({"--max-iters", "ten"});
  expect_usage_exit({"--max-iters", "7.5"});
}

TEST(DriverCliDeath, RejectsMalformedRankCounts) {
  expect_usage_exit({"12abc"});  // atoi would coerce to 12
  expect_usage_exit({"99999999999999999999999999"});  // overflows size_t
  expect_usage_exit({"--ranks", "four"});
  expect_usage_exit({"--ranks", "-3"});
}

TEST(DriverCliDeath, RejectsEmptyStringFlagValues) {
  expect_usage_exit({"--trace="});
  expect_usage_exit({"--metrics", ""});
  expect_usage_exit({"--checkpoint="});
}

TEST(DriverCliDeath, RejectsUnknownFlagsAndBackends) {
  expect_usage_exit({"--no-such-flag"});
  expect_usage_exit({"--backend", "mpi"});
}

TEST(DriverCliDeath, RejectsUnavailableGemmKernel) {
  expect_usage_exit({"--gemm-kernel", "vector-x1"});
  expect_usage_exit({"--gemm-kernel="});
}

TEST(DriverCli, GemmKernelFlagPinsKernel) {
  // "portable" is compiled unconditionally, so pinning it always works.
  const auto cli = parse({"--gemm-kernel", "portable"});
  EXPECT_EQ(cli.gemm_kernel, "portable");
  EXPECT_STREQ(xfci::linalg::gemm_kernel_name(), "portable");
  xfci::linalg::set_gemm_kernel("");  // restore the dispatched default
}

TEST(ParseCount, AcceptsOnlyPlainDecimalCounts) {
  std::size_t n = 7;
  for (const char* bad : {"-1", "abc", "", "+", " 1", "18446744073709551616"}) {
    EXPECT_FALSE(xfcp::parse_count(bad, n)) << "'" << bad << "'";
    EXPECT_EQ(n, 7u) << "a rejected value must leave the output untouched";
  }
  EXPECT_FALSE(xfcp::parse_count(nullptr, n));
  ASSERT_TRUE(xfcp::parse_count("0", n));
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(xfcp::parse_count("18446744073709551615", n));
  EXPECT_EQ(n, static_cast<std::size_t>(-1));
}
