#include "fci_parallel/driver_cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "linalg/gemm_kernels.hpp"
#include "parallel/shm_ipc.hpp"

namespace xfci::fcp {

bool parse_count(const char* text, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p)
    if (*p < '0' || *p > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' ||
      v > static_cast<unsigned long long>(static_cast<std::size_t>(-1)))
    return false;
  out = static_cast<std::size_t>(v);
  return true;
}

namespace {

[[noreturn]] void usage_error(const char* prog, const char* bad) {
  std::fprintf(stderr,
               "%s: unknown, incomplete or malformed argument '%s'\n"
               "usage: %s [num_ranks] [--backend sim|threads|process]\n"
               "          [--threads N] [--ranks N] [--faults]\n"
               "          [--checkpoint PATH] [--restart PATH]\n"
               "          [--max-iters N] [--trace PATH] [--metrics PATH]\n"
               "          [--gemm-kernel portable|avx2|avx512]\n"
               "          [--jobs N] [--priority interactive|batch]\n"
               "          [--telemetry-port N] [--telemetry PATH]\n"
               "          [--linger N]\n",
               prog, bad, prog);
  std::exit(2);
}

/// Matches "--name VALUE" and "--name=VALUE"; advances i past a separate
/// VALUE argument.  An empty value ("--name=" or "--name ''") is malformed:
/// every string flag here names a file path or kernel, never "".
bool string_flag(const char* prog, const char* name, int argc, char** argv,
                 int& i, std::string& out) {
  const char* arg = argv[i];
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '=') {
    if (arg[n + 1] == '\0') usage_error(prog, arg);
    out = arg + n + 1;
    return true;
  }
  if (arg[n] == '\0' && i + 1 < argc) {
    out = argv[++i];
    if (out.empty()) usage_error(prog, arg);
    return true;
  }
  return false;
}

}  // namespace

DriverCli DriverCli::parse(int argc, char** argv,
                           std::size_t default_ranks) {
  DriverCli cli;
  cli.num_ranks = default_ranks;
  const char* prog = (argc > 0) ? argv[0] : "driver";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--faults") == 0) {
      cli.faults = true;
    } else if (std::strcmp(arg, "--backend") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "sim") == 0)
        cli.backend = ExecutionMode::kSimulate;
      else if (std::strcmp(name, "threads") == 0)
        cli.backend = ExecutionMode::kThreads;
      else if (std::strcmp(name, "process") == 0) {
        if (!pv::process_backend_supported()) {
          std::fprintf(stderr,
                       "%s: --backend process needs POSIX shm_open/fork "
                       "(Linux); this platform cannot host it\n",
                       prog);
          std::exit(2);
        }
        cli.backend = ExecutionMode::kProcess;
      } else
        usage_error(prog, name);
    } else if (std::strcmp(arg, "--ranks") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.num_ranks))
        usage_error(prog, argv[i]);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.num_threads))
        usage_error(prog, argv[i]);
    } else if (string_flag(prog, "--checkpoint", argc, argv, i,
                           cli.checkpoint)) {
    } else if (string_flag(prog, "--restart", argc, argv, i, cli.restart)) {
    } else if (string_flag(prog, "--trace", argc, argv, i, cli.trace)) {
    } else if (string_flag(prog, "--metrics", argc, argv, i, cli.metrics)) {
    } else if (string_flag(prog, "--gemm-kernel", argc, argv, i,
                           cli.gemm_kernel)) {
      if (!linalg::set_gemm_kernel(cli.gemm_kernel))
        usage_error(prog, cli.gemm_kernel.c_str());
    } else if (std::strcmp(arg, "--max-iters") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.max_iters)) usage_error(prog, argv[i]);
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.jobs)) usage_error(prog, argv[i]);
    } else if (string_flag(prog, "--priority", argc, argv, i,
                           cli.priority)) {
      if (cli.priority != "interactive" && cli.priority != "batch")
        usage_error(prog, cli.priority.c_str());
    } else if (std::strcmp(arg, "--telemetry-port") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.telemetry_port) ||
          cli.telemetry_port > 65535)
        usage_error(prog, argv[i]);
      cli.telemetry_wanted = true;
    } else if (string_flag(prog, "--telemetry", argc, argv, i,
                           cli.telemetry)) {
      cli.telemetry_wanted = true;
    } else if (std::strcmp(arg, "--linger") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], cli.linger)) usage_error(prog, argv[i]);
    } else if (arg[0] >= '0' && arg[0] <= '9') {
      if (!parse_count(arg, cli.num_ranks)) usage_error(prog, arg);
    } else {
      usage_error(prog, arg);
    }
  }
  return cli;
}

ParallelOptions DriverCli::parallel_options() const {
  ParallelOptions popt;
  popt.num_ranks = num_ranks;
  popt.cost = popt.cost.with_overhead_scale(kDriverOverheadScale);
  popt.execution = backend;
  popt.num_threads = num_threads;
  return popt;
}

const char* DriverCli::backend_name() const {
  switch (backend) {
    case ExecutionMode::kThreads:
      return "threads";
    case ExecutionMode::kProcess:
      return "process";
    default:
      return "sim";
  }
}

}  // namespace xfci::fcp
