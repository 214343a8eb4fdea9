#pragma once
// Shared command-line plumbing for the executables that drive the parallel
// FCI stack (examples/c2_on_simulated_x1 and the bench_fig* drivers): rank
// count, execution backend, fault/checkpoint options, and the common
// ParallelOptions defaults, so every driver accepts the same flags instead
// of growing its own copy of the parsing loop.

#include <cstddef>
#include <string>

#include "fci_parallel/options.hpp"

namespace xfci::fcp {

/// Parses a non-negative decimal count for every driver's numeric flags.
/// Unlike atoi/atol it rejects empty strings, signs (so "-1" cannot wrap
/// to a huge size_t), whitespace, non-digit and trailing-junk input, and
/// values that overflow size_t; `out` is written only on success.
bool parse_count(const char* text, std::size_t& out);

/// Parsed driver options.  Flags (all optional):
///   [N]                  bare integer: number of ranks / simulated MSPs
///   --backend sim|threads|process  execution backend (default: sim).
///                        "process" forks one OS process per rank over a
///                        POSIX shm arena (Linux only; on platforms that
///                        cannot host it the parser exits with code 2 and
///                        a platform message before any work starts)
///   --ranks N            rank count (equivalent to the bare integer form)
///   --threads N          worker threads for --backend threads (0 = auto)
///   --faults             enable the driver's seeded fault demo
///   --checkpoint PATH    write solver state to PATH every iteration
///   --restart PATH       resume from a checkpoint
///   --max-iters N        stop after N iterations
///   --trace PATH         write a Chrome-trace-event JSON span trace
///                        (load in Perfetto / chrome://tracing)
///   --metrics PATH       write the machine-readable run report JSON
///   --gemm-kernel NAME   pin the GEMM micro-kernel (portable|avx2|avx512)
///                        instead of the cpuid-dispatched default; applied
///                        immediately via linalg::set_gemm_kernel
///   --jobs N             serve-layer drivers: engine worker count
///                        (0 = hardware concurrency)
///   --priority P         serve-layer drivers: default priority class for
///                        submitted jobs, "interactive" or "batch"
///   --telemetry-port N   enable live telemetry and serve /metrics
///                        (Prometheus text) + /healthz + /snapshot.json on
///                        127.0.0.1:N (0 picks an ephemeral port)
///   --telemetry PATH     enable live telemetry and write a periodic
///                        xfci-telemetry-v1 snapshot to PATH
///   --linger N           serve-layer drivers: stay alive N extra seconds
///                        after the drain so scrapers can hit /metrics
/// String-valued flags also accept the --flag=VALUE form.  Unknown flags,
/// malformed or negative numeric values, empty string-flag values and
/// unavailable kernel names abort with a usage message on stderr and exit
/// code 2 (nothing is silently coerced).
struct DriverCli {
  std::size_t num_ranks = 16;
  ExecutionMode backend = ExecutionMode::kSimulate;
  std::size_t num_threads = 0;
  bool faults = false;
  std::string checkpoint;
  std::string restart;
  std::size_t max_iters = 0;
  std::string trace;    ///< Chrome trace output path ("" = tracing off)
  std::string metrics;  ///< run-report JSON output path ("" = off)
  std::string gemm_kernel;  ///< pinned micro-kernel name ("" = dispatch)
  std::size_t jobs = 0;     ///< serve-engine workers (0 = hardware)
  std::string priority = "batch";  ///< serve default priority class
  /// /metrics exporter port (only meaningful when telemetry_wanted).
  std::size_t telemetry_port = 0;
  std::string telemetry;  ///< periodic snapshot path ("" = no file)
  /// True once --telemetry-port or --telemetry was seen; the default-off
  /// state keeps no-flag runs bitwise identical (registry stays disabled).
  bool telemetry_wanted = false;
  std::size_t linger = 0;  ///< post-drain scrape window, seconds

  static DriverCli parse(int argc, char** argv,
                         std::size_t default_ranks = 16);

  /// ParallelOptions with the shared defaults applied: the chosen backend,
  /// thread count, and the cost model scaled by kDriverOverheadScale.
  ParallelOptions parallel_options() const;

  /// Human-readable backend name ("sim" / "threads" / "process").
  const char* backend_name() const;
};

}  // namespace xfci::fcp
