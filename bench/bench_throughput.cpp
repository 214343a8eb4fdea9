// Throughput of the serve::Engine over a many-small-jobs workload: the
// multi-tenant scenario the setup cache exists for (DESIGN.md §15).
//
// Workload: M distinct synthetic Hamiltonians (norb ~ 24, one electron —
// a tiny CI space under a fat integral file, so parsing + setup dominate
// a cold solve), written as FCIDUMP files and submitted N times in
// round-robin.  Two configurations run the identical job list:
//
//   cold:  setup cache disabled — every job parses its file and rebuilds
//          the SolveSetup, the pre-serve one-shot behaviour
//   warm:  cache enabled and pre-warmed with the M distinct systems —
//          every job hashes its file bytes and reuses the shared setup
//
// Reported per row: jobs/sec, p50/p99 job latency, cache hit rate, and
// the warm/cold speedup (the PR's acceptance floor is 5x on the 50-job
// workload).  BENCH_throughput.json follows the xfci-bench-v1 schema
// (tools/check_trace.py --bench).
//
//   bench_throughput [--smoke] [--jobs N] [--json PATH] [--telemetry]
//
// --smoke shrinks the workload for CI wall-clock budgets.  --telemetry
// enables the live metrics registry for the whole run (no exporter):
// compare warm jobs/s against a plain run to measure instrumentation
// overhead — the acceptance budget is <2% on the warm drain.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "fci_parallel/driver_cli.hpp"
#include "integrals/fcidump.hpp"
#include "integrals/tables.hpp"
#include "serve/engine.hpp"

namespace xb = xfci::bench;
namespace xi = xfci::integrals;
namespace xv = xfci::serve;

namespace {

/// Deterministic dense synthetic Hamiltonian: diagonal-dominant h, fully
/// populated ERI tensor (every unique quadruple nonzero, so the FCIDUMP
/// carries the full O(norb^4 / 8) record count a real dump would).
xi::IntegralTables make_system(std::size_t norb, std::size_t seed) {
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  t.core_energy = 1.0 + 0.25 * static_cast<double>(seed);
  for (std::size_t p = 0; p < norb; ++p) {
    t.h(p, p) = -2.0 + 0.15 * static_cast<double>(p) +
                0.01 * static_cast<double>(seed);
    for (std::size_t q = 0; q < p; ++q) {
      const double v = 0.02 / static_cast<double>(1 + p - q);
      t.h(p, q) = t.h(q, p) = v;
    }
  }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const double v =
              0.05 / static_cast<double>(1 + p + q + r + s + seed % 3);
          t.eri.set(p, q, r, s, v);
        }
  return t;
}

struct RunStats {
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  std::size_t done = 0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

RunStats run_workload(const std::vector<std::string>& job_files,
                      std::size_t workers, bool cache_enabled,
                      const std::vector<std::string>& warmup_files) {
  xv::EngineOptions eopt;
  eopt.num_workers = workers;
  eopt.cache_enabled = cache_enabled;
  eopt.run_label = cache_enabled ? "throughput-warm" : "throughput-cold";
  xv::Engine engine(eopt);

  for (const std::string& path : warmup_files) {
    xv::JobSpec spec;
    spec.fcidump_path = path;
    engine.submit(std::move(spec));
  }
  if (!warmup_files.empty()) engine.drain();
  const std::size_t first = engine.jobs_submitted();

  xfci::Timer t;
  for (const std::string& path : job_files) {
    xv::JobSpec spec;
    spec.fcidump_path = path;
    engine.submit(std::move(spec));
  }
  engine.drain();

  RunStats s;
  s.seconds = t.seconds();
  std::vector<double> latencies;
  std::size_t hits = 0;
  const auto results = engine.results();
  for (std::size_t i = first; i < results.size(); ++i) {
    const xv::JobResult& r = results[i];
    XFCI_REQUIRE(r.state == xv::JobState::kDone,
                 "throughput job failed: " + r.error);
    XFCI_REQUIRE(r.converged, "throughput job did not converge");
    ++s.done;
    if (r.cache_hit) ++hits;
    latencies.push_back(r.total_seconds * 1e3);
  }
  s.jobs_per_sec = static_cast<double>(s.done) / std::max(s.seconds, 1e-12);
  s.p50_ms = percentile(latencies, 0.50);
  s.p99_ms = percentile(latencies, 0.99);
  s.hit_rate = s.done == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(s.done);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool with_telemetry = false;
  std::size_t workers = 0;
  std::string json_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      with_telemetry = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc &&
               xfci::fcp::parse_count(argv[i + 1], workers)) {
      ++i;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--smoke] [--jobs N] "
                   "[--json PATH] [--telemetry]\n");
      return 2;
    }
  }
  if (with_telemetry) xfci::obs::telemetry().set_enabled(true);

  const std::size_t norb = smoke ? 16 : 24;
  const std::size_t num_systems = smoke ? 3 : 6;
  const std::size_t num_jobs = smoke ? 12 : 50;

  const auto dir = std::filesystem::temp_directory_path() /
                   ("xfci_throughput_" + std::to_string(norb));
  std::filesystem::create_directories(dir);
  std::vector<std::string> systems;
  for (std::size_t m = 0; m < num_systems; ++m) {
    const xi::IntegralTables t = make_system(norb, m);
    const std::string path =
        (dir / ("sys" + std::to_string(m) + ".fcidump")).string();
    xi::write_fcidump(path, t, 1, 0);
    systems.push_back(path);
  }
  std::vector<std::string> job_files;
  for (std::size_t j = 0; j < num_jobs; ++j)
    job_files.push_back(systems[j % systems.size()]);

  std::printf("serve::Engine throughput: %zu jobs over %zu systems "
              "(norb=%zu, dim=%zu)\n\n",
              num_jobs, num_systems, norb, norb);
  xb::print_row({"mode", "jobs/s", "p50 ms", "p99 ms", "hit rate"});
  xb::print_rule(5);

  xfci::Timer wall;
  const RunStats cold = run_workload(job_files, workers, false, {});
  xb::print_row({"cold", xb::fmt(cold.jobs_per_sec),
                 xb::fmt(cold.p50_ms), xb::fmt(cold.p99_ms),
                 xb::fmt(cold.hit_rate, "%.2f")});
  const RunStats warm = run_workload(job_files, workers, true, systems);
  xb::print_row({"warm", xb::fmt(warm.jobs_per_sec),
                 xb::fmt(warm.p50_ms), xb::fmt(warm.p99_ms),
                 xb::fmt(warm.hit_rate, "%.2f")});

  const double speedup =
      warm.jobs_per_sec / std::max(cold.jobs_per_sec, 1e-12);
  std::printf("\nwarm/cold speedup: %.2fx (acceptance floor 5x on the "
              "full workload)\n",
              speedup);

  xb::BenchReport report("throughput");
  report.config_num("norb", static_cast<double>(norb));
  report.config_num("num_systems", static_cast<double>(num_systems));
  report.config_num("num_jobs", static_cast<double>(num_jobs));
  report.config_num("smoke", smoke ? 1.0 : 0.0);
  report.config_num("telemetry", with_telemetry ? 1.0 : 0.0);
  for (const auto& [mode, s] :
       {std::pair<const char*, const RunStats&>{"cold", cold},
        std::pair<const char*, const RunStats&>{"warm", warm}}) {
    report.begin_row();
    report.col_str("mode", mode);
    report.col("jobs_per_sec", s.jobs_per_sec);
    report.col("p50_ms", s.p50_ms);
    report.col("p99_ms", s.p99_ms);
    report.col("hit_rate", s.hit_rate);
    report.col("seconds", s.seconds);
    report.col("speedup", mode == std::string("warm") ? speedup : 1.0);
  }
  report.write(json_path, wall.seconds());
  return 0;
}
