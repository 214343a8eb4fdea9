// The DDI ledger contract (DESIGN.md §16): every flop, one-sided op, word
// and retransmission is recorded once, in the backend's per-slot
// CommCounters rows, and the run report, the /metrics scrape and the sigma
// trace spans are read-only views of that record.  A traced solve with the
// global registry enabled must therefore show exact agreement for every
// quantity two views share, on the simulated, threads (more workers than
// ranks) and process backends, with and without injected faults; each
// phase row's seconds equal the summed durations of its control-track
// spans.  Each backend's word rule is pinned op by op, get and acc alike,
// and its flop rule record by record.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "common/metric_names.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "fci/sigma.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "fci_parallel/parallel_sigma.hpp"
#include "integrals/basis.hpp"
#include "parallel/ddi.hpp"
#include "parallel/process_ddi.hpp"
#include "parallel/shm_ipc.hpp"
#include "scf/scf.hpp"

#if defined(__SANITIZE_THREAD__)
#define XFCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XFCI_TSAN 1
#endif
#endif
#ifndef XFCI_TSAN
#define XFCI_TSAN 0
#endif

namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
namespace obs = xfci::obs;
namespace pv = xfci::pv;
namespace m = xfci::obs::metric;

namespace {

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

constexpr const char* kOps[2] = {"get", "acc"};

/// The xfci_ddi_* series of one backend label in the global registry.
struct Scrape {
  std::uint64_t ops[2] = {}, words[2] = {};
  std::uint64_t retransmits = 0, reassigned = 0, ranks_lost = 0;
};

std::uint64_t series(const obs::Snapshot& snap, const m::MetricSpec& spec,
                     const std::vector<obs::Label>& labels = {}) {
  const obs::SnapshotMetric* s = snap.find(spec.name, labels);
  return s == nullptr ? 0 : s->value;
}

Scrape scrape(const std::string& backend) {
  const obs::Snapshot snap = obs::telemetry().snapshot();
  Scrape s;
  for (int i = 0; i < 2; ++i) {
    const std::vector<obs::Label> labels{{m::kLabelOp, kOps[i]},
                                         {m::kLabelBackend, backend}};
    s.ops[i] = series(snap, m::kDdiOps, labels);
    s.words[i] = series(snap, m::kDdiWords, labels);
  }
  s.retransmits = series(snap, m::kDdiRetransmits);
  s.reassigned =
      series(snap, m::kDdiTasksReassigned, {{m::kLabelBackend, backend}});
  s.ranks_lost = series(snap, m::kDdiRanksLost);
  return s;
}

/// The report's per-slot rows, summed in slot order.
struct Rows {
  std::size_t calls[2] = {};
  double words[2] = {};
  double comm_words = 0.0;
  double flops = 0.0;
};

Rows sum_rows(const fcp::RunMetrics& r) {
  Rows s;
  for (const pv::CommCounters& cc : r.rank_counters) {
    s.calls[0] += cc.get_calls;
    s.calls[1] += cc.acc_calls;
    s.words[0] += cc.get_words;
    s.words[1] += cc.acc_words;
    s.flops += cc.flops;
  }
  s.comm_words = s.words[0] + 2.0 * s.words[1];
  return s;
}

/// The `sigma` span args summed in emission order, plus instant counts.
struct TraceSums {
  std::size_t sigmas = 0;
  double comm_words = 0.0;
  double flops = 0.0;
  std::map<std::string, std::size_t> instants;
};

TraceSums sum_trace(const obs::Tracer& tracer) {
  TraceSums t;
  for (std::size_t track = 0; track < tracer.num_tracks(); ++track) {
    for (const obs::TraceEvent& e : tracer.events(track)) {
      if (e.phase == obs::TraceEvent::Phase::kInstant) {
        ++t.instants[e.name];
      } else if (e.name == "sigma") {
        const obs::json::Value args = obs::json::Value::parse(e.args);
        t.sigmas += 1;
        t.comm_words += args.req("comm_words").as_double();
        t.flops += args.req("flops").as_double();
      }
    }
  }
  return t;
}

/// The control track's spans as PhaseBreakdown rows: each span's t1 - t0
/// added, in emission order, to the row its window feeds.
std::map<std::string, double> sum_windows(const obs::Tracer& tracer) {
  const std::map<std::string, std::string> row_of = {
      {"transpose_in", "transpose"},  {"transpose_out", "transpose"},
      {"transpose_fwd", "transpose"}, {"transpose_back", "transpose"},
      {"parity_fold", "transpose"},   {"moc_gather", "transpose"},
      {"sigma", "total"}};
  std::map<std::string, double> rows;
  for (const obs::TraceEvent& e : tracer.events(tracer.control_track())) {
    if (e.phase != obs::TraceEvent::Phase::kSpan) continue;
    const auto it = row_of.find(e.name);
    rows[it == row_of.end() ? e.name : it->second] += e.t1 - e.t0;
  }
  return rows;
}

/// Runs one traced Be solve with the global registry on and checks the
/// three views against each other; the report totals land in `*totals`.
/// `reassign_instant` names the trace instant the backend emits once per
/// reassigned task; `traced_retransmits` is false where retransmitting
/// ranks are forked processes without a trace sink.
void expect_one_ledger(fcp::ParallelOptions popt,
                       const std::string& reassign_instant,
                       bool traced_retransmits,
                       fcp::PhaseBreakdown* totals = nullptr) {
  obs::Tracer tracer;
  tracer.enable(0);
  popt.tracer = &tracer;
  popt.cost = popt.cost.with_overhead_scale(fcp::kDriverOverheadScale);
  popt.process.task_deadline = 10.0;
  popt.process.heartbeat_deadline = 10.0;
  popt.process.poll_micros = 100;
  xf::SolverOptions sopt;
  sopt.residual_tolerance = 1e-6;

  obs::Registry& reg = obs::telemetry();
  reg.set_enabled(true);
  const std::string backend = popt.execution == fcp::ExecutionMode::kThreads
                                  ? "threads"
                              : popt.execution == fcp::ExecutionMode::kProcess
                                  ? "process"
                                  : "sim";
  const Scrape before = scrape(backend);
  const fcp::ParallelFciResult res =
      fcp::run_parallel_fci(be_tables(), 2, 2, 0, popt, sopt);
  const Scrape after = scrape(backend);
  reg.set_enabled(false);

  const fcp::RunMetrics& report = res.metrics;
  if (totals != nullptr) *totals = report.totals;
  ASSERT_TRUE(res.solve.converged);
  ASSERT_EQ(report.backend, backend);
  // One row per charge slot: ranks, or workers when there are more.
  ASSERT_EQ(report.rank_counters.size(),
            std::max(report.num_ranks, report.num_workers));

  const Rows rows = sum_rows(report);
  TraceSums trace = sum_trace(tracer);
  std::map<std::string, double> windows = sum_windows(tracer);
  const fcp::PhaseBreakdown& tot = report.totals;
  EXPECT_GT(rows.calls[0] + rows.calls[1], 0u);

  // Ops and words: report rows == scrape delta (whole words).
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(after.ops[i] - before.ops[i], rows.calls[i]) << kOps[i];
    EXPECT_EQ(after.words[i] - before.words[i],
              static_cast<std::uint64_t>(rows.words[i]))
        << kOps[i];
  }
  // comm_words: report rows == report totals == summed sigma args.  The
  // per-sigma args sum without rounding here: every word count is an
  // integer or, on 4 simulated ranks, a multiple of 1/4.
  EXPECT_EQ(rows.comm_words, tot.comm_words);
  EXPECT_EQ(trace.comm_words, tot.comm_words);
  // Flops: report rows == report totals == summed sigma args.
  EXPECT_EQ(rows.flops, report.total_flops);
  EXPECT_EQ(tot.flops, report.total_flops);
  EXPECT_EQ(trace.flops, tot.flops);
  EXPECT_EQ(trace.sigmas, tot.count);

  // Seconds: each phase row == the summed durations of its control-track
  // spans, bitwise (one record per window).
  EXPECT_EQ(windows["beta_side"], tot.beta_side);
  EXPECT_EQ(windows["alpha_side"], tot.alpha_side);
  EXPECT_EQ(windows["mixed"], tot.mixed);
  EXPECT_EQ(windows["transpose"], tot.transpose);
  EXPECT_EQ(windows["vector_ops"], tot.vector_ops);
  EXPECT_EQ(windows["total"], tot.total);

  // Recovery events: report == scrape delta == trace instants.
  EXPECT_EQ(after.retransmits - before.retransmits, tot.ops_retried);
  EXPECT_EQ(after.reassigned - before.reassigned, tot.tasks_reassigned);
  EXPECT_EQ(after.ranks_lost - before.ranks_lost, tot.ranks_lost);
  EXPECT_EQ(trace.instants["rank_lost"], tot.ranks_lost);
  EXPECT_EQ(trace.instants[reassign_instant], tot.tasks_reassigned);
  if (traced_retransmits) {
    EXPECT_EQ(trace.instants["retransmit"], tot.ops_retried);
  }
}

bool process_host() {
  return !XFCI_TSAN && pv::process_backend_supported();
}

fcp::ParallelOptions sim_options() {
  fcp::ParallelOptions popt;
  popt.num_ranks = 4;
  return popt;
}

fcp::ParallelOptions threads_options() {
  fcp::ParallelOptions popt;
  popt.execution = fcp::ExecutionMode::kThreads;
  popt.num_ranks = 2;
  popt.num_threads = 4;
  return popt;
}

fcp::ParallelOptions process_options() {
  fcp::ParallelOptions popt;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.num_ranks = 3;
  return popt;
}

/// Every field of a ledger row must match.
void expect_row(const pv::CommCounters& got, const pv::CommCounters& want) {
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.get_calls, want.get_calls);
  EXPECT_EQ(got.acc_calls, want.acc_calls);
  EXPECT_EQ(got.get_words, want.get_words);
  EXPECT_EQ(got.acc_words, want.acc_words);
  EXPECT_EQ(got.dlb_calls, want.dlb_calls);
  EXPECT_EQ(got.ops_dropped, want.ops_dropped);
  EXPECT_EQ(got.ops_delayed, want.ops_delayed);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.spawns, want.spawns);
}

}  // namespace

TEST(DdiLedger, SimulatedViewsAgree) {
  expect_one_ledger(sim_options(), "task_reassigned", true);
}

TEST(DdiLedger, ThreadedViewsAgreeWithMoreWorkersThanRanks) {
  expect_one_ledger(threads_options(), "worker_death", true);
}

TEST(DdiLedger, ProcessViewsAgree) {
  if (!process_host()) GTEST_SKIP() << "needs the fork/shm process backend";
  expect_one_ledger(process_options(), "task_reassigned", false);
}

TEST(DdiLedger, SimulatedViewsAgreeUnderFaults) {
  fcp::ParallelOptions popt = sim_options();
  // A rank death mid mixed phase and a dropped remote gather: rank loss,
  // task reassignment and a retransmission all land in one solve.
  popt.faults.kill_rank_at_op(1, 30).drop_op(0, 9);
  fcp::PhaseBreakdown totals;
  expect_one_ledger(popt, "task_reassigned", true, &totals);
  EXPECT_EQ(totals.ranks_lost, 1u);
  EXPECT_GE(totals.tasks_reassigned, 1u);
  EXPECT_GE(totals.ops_retried, 1u);
}

TEST(DdiLedger, ThreadedViewsAgreeUnderFaults) {
  fcp::ParallelOptions popt = threads_options();
  popt.faults.kill_worker_at_claim(1, 2);
  expect_one_ledger(popt, "worker_death", true);
}

TEST(DdiLedger, ProcessViewsAgreeUnderFaults) {
  if (!process_host()) GTEST_SKIP() << "needs the fork/shm process backend";
  fcp::ParallelOptions popt = process_options();
  // A watchdog SIGKILL, a torn-publish SIGKILL and a dropped op issued
  // inside a forked rank: its retransmission must reach the driver.
  popt.faults.kill_rank_at_time(2, 0.02)
      .kill_worker_at_claim(1, 3)
      .drop_op(0, 7);
  fcp::PhaseBreakdown totals;
  expect_one_ledger(popt, "task_reassigned", false, &totals);
  EXPECT_GE(totals.ranks_lost, 1u);
  EXPECT_GE(totals.ops_retried, 1u);
}

TEST(DdiLedger, WordRulePerOpKind) {
  // DESIGN.md §16's word rule, one op at a time: the driver issues a get
  // and an acc of kWords words as rank 0, to itself and to rank 1.
  // Rank 0's row gains exactly one call and the words its backend counts;
  // every other field and row stays as it was.  The flop rule, one Work
  // record at a time: a record adds flops() (2mnk per DGEMM shape plus its
  // DAXPY flops) and its retransmits to the charged slot's row alone, on
  // every backend; the simulator also counts an all-to-all share as one
  // get per peer and its words.
  constexpr double kWords = 12.0;
  struct Op {
    const char* name;
    pv::OneSided kind;
    std::size_t pv::CommCounters::*calls;
    double pv::CommCounters::*words;
  };
  const Op ops[] = {
      {"get", pv::OneSided::kGet, &pv::CommCounters::get_calls,
       &pv::CommCounters::get_words},
      {"acc", pv::OneSided::kAcc, &pv::CommCounters::acc_calls,
       &pv::CommCounters::acc_words},
  };
  static constexpr std::array<std::size_t, 3> kShapes[] = {{3, 4, 5},
                                                           {2, 1, 6}};
  struct Charge {
    const char* name;
    pv::Work work;
    double flops;  ///< what the record adds to the slot's row
  };
  const Charge charges[] = {
      {"dgemm", {.dgemm = {kShapes, 1}}, 2.0 * 3 * 4 * 5},
      {"daxpy", {.daxpy_flops = 7}, 7.0},
      {"every field",
       {.alltoall_peers = 1,
        .alltoall_words = 10.5,
        .dgemm = kShapes,
        .indexed_words = 9,
        .daxpy_flops = 7,
        .seconds = 1e-3,
        .retransmits = 2},
       2.0 * 3 * 4 * 5 + 2.0 * 2 * 1 * 6 + 7.0},
  };
  struct Backend {
    const char* name;
    std::unique_ptr<pv::Ddi> (*make)(const pv::FaultPlan&);
    double local_words;   ///< words a delivered local op counts
    double remote_words;  ///< words a delivered remote op counts
    bool drops;           ///< honours FaultPlan::drop_op
    std::size_t dropped_calls;  ///< calls a dropped remote get counts
    double dropped_words;       ///< words a dropped remote get counts
    /// A rank killed by its kill_rank_at_op trigger charges nothing more.
    bool freezes_dead_rows;
    /// An all-to-all share counts one get per peer and its words.
    bool counts_alltoall;
  };
  const Backend backends[] = {
      // Words only when issuer != owner; an op is counted once its issuer
      // survives it, delivered or not.
      {"sim",
       [](const pv::FaultPlan& f) {
         return pv::make_simulated_ddi(2, xfci::x1::CostModel{}, f);
       },
       0.0, kWords, true, 1, kWords, true, true},
      // Every delivered op, and only a delivered one.
      {"process",
       [](const pv::FaultPlan& f) { return pv::make_process_ddi(2, f); },
       kWords, kWords, true, 0, 0.0, false, false},
      // One address space: calls, never words.
      {"threads",
       [](const pv::FaultPlan& f) { return pv::make_threads_ddi(2, 2, f); },
       0.0, 0.0, false, 0, 0.0, false, false},
  };
  bool skipped_process = false;
  for (const Backend& b : backends) {
    if (std::string(b.name) == "process" && !process_host()) {
      skipped_process = true;
      continue;
    }
    const auto ddi = b.make(pv::FaultPlan{});
    for (const Op& op : ops) {
      for (const std::size_t owner : {std::size_t{0}, std::size_t{1}}) {
        SCOPED_TRACE(std::string(b.name) + " " + op.name +
                     (owner == 0 ? " local" : " remote"));
        std::vector<pv::CommCounters> want(ddi->num_slots());
        for (std::size_t s = 0; s < want.size(); ++s)
          want[s] = ddi->counters(s);
        ++(want[0].*op.calls);
        want[0].*op.words += owner == 0 ? b.local_words : b.remote_words;
        EXPECT_EQ(ddi->one_sided(op.kind, 0, owner, kWords),
                  pv::OpOutcome::kDelivered);
        for (std::size_t s = 0; s < want.size(); ++s)
          expect_row(ddi->counters(s), want[s]);
      }
    }
    for (const Charge& ch : charges) {
      for (const std::size_t slot : {std::size_t{0}, std::size_t{1}}) {
        SCOPED_TRACE(std::string(b.name) + " " + ch.name + " on slot " +
                     std::to_string(slot));
        EXPECT_EQ(ch.work.flops(), ch.flops);
        std::vector<pv::CommCounters> want(ddi->num_slots());
        for (std::size_t s = 0; s < want.size(); ++s)
          want[s] = ddi->counters(s);
        want[slot].flops += ch.flops;
        want[slot].retransmits += ch.work.retransmits;
        if (b.counts_alltoall) {
          want[slot].get_calls += ch.work.alltoall_peers;
          want[slot].get_words += ch.work.alltoall_words;
        }
        ddi->charge(slot, ch.work);
        for (std::size_t s = 0; s < want.size(); ++s)
          expect_row(ddi->counters(s), want[s]);
      }
    }
    if (b.freezes_dead_rows) {
      SCOPED_TRACE(std::string(b.name) + " charges to a dead rank");
      pv::FaultPlan plan;
      plan.kill_rank_at_op(1, 1);
      const auto dying = b.make(plan);
      EXPECT_EQ(dying->one_sided(pv::OneSided::kGet, 1, 0, kWords),
                pv::OpOutcome::kDropped);
      ASSERT_FALSE(dying->alive(1));
      for (const Charge& ch : charges) dying->charge(1, ch.work);
      expect_row(dying->counters(1), pv::CommCounters{});
    }
    if (!b.drops) continue;
    SCOPED_TRACE(std::string(b.name) + " dropped remote get");
    pv::FaultPlan plan;
    plan.drop_op(0, 1);
    const auto lossy = b.make(plan);
    EXPECT_EQ(lossy->one_sided(pv::OneSided::kGet, 0, 1, kWords),
              pv::OpOutcome::kDropped);
    pv::CommCounters want;
    want.get_calls = b.dropped_calls;
    want.get_words = b.dropped_words;
    want.ops_dropped = 1;
    expect_row(lossy->counters(0), want);
    expect_row(lossy->counters(1), pv::CommCounters{});
  }
  if (skipped_process)
    GTEST_SKIP() << "process rows need the fork/shm process backend";
}

TEST(DdiLedger, FlopRecordsAgreeAcrossBackends) {
  // One fault-free Be sigma at 4 ranks charges the same records on every
  // backend, so the real backends' ledgers hold the same flops bitwise.
  // The simulator's exceed them by exactly the solver-vector record, which
  // only a cost-modeling backend charges: 18 flops per CI coefficient.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const std::vector<double> random = rng.signed_vector(space.dimension());
  std::vector<double> even;
  space.transpose_vector(random, even);
  for (std::size_t i = 0; i < even.size(); ++i) even[i] += random[i];
  ASSERT_EQ(space.transpose_parity(random), 0);
  ASSERT_EQ(space.transpose_parity(even), 1);

  const auto flops_of = [&ctx](fcp::ParallelOptions popt,
                               const std::vector<double>& c) {
    popt.num_ranks = 4;
    popt.process.task_deadline = 10.0;
    popt.process.heartbeat_deadline = 10.0;
    fcp::ParallelSigma op(ctx, popt);
    std::vector<double> sigma(c.size());
    op.apply(c, sigma);
    return op.ddi().totals().flops;
  };
  fcp::ParallelOptions threads;
  threads.execution = fcp::ExecutionMode::kThreads;
  threads.num_threads = 2;
  fcp::ParallelOptions process;
  process.execution = fcp::ExecutionMode::kProcess;
  const double solver_vector =
      18.0 * static_cast<double>(space.dimension());
  const std::vector<double>* const inputs[] = {&random, &even};
  for (const std::vector<double>* c : inputs) {
    SCOPED_TRACE(c == &random ? "random vector" : "parity-pure vector");
    const double real = flops_of(threads, *c);
    EXPECT_GT(real, 0.0);
    EXPECT_EQ(flops_of(fcp::ParallelOptions{}, *c), real + solver_vector);
    if (process_host()) {
      EXPECT_EQ(flops_of(process, *c), real);
    }
  }
  if (!process_host())
    GTEST_SKIP() << "the process leg needs the fork/shm process backend";
}

TEST(DdiLedger, ProcessForksEachRankOncePerSolve) {
  if (!process_host()) GTEST_SKIP() << "needs the fork/shm process backend";
  // The ledger counts forks: a multi-sigma solve on N process ranks forks
  // each rank once, a rank that dies is not forked again, and the scrape
  // carries the same count.  The in-process backends fork nothing.
  const auto spawns = [](const fcp::RunMetrics& report) {
    std::size_t n = 0;
    for (const pv::CommCounters& cc : report.rank_counters) n += cc.spawns;
    return n;
  };
  const auto scraped = [] {
    return series(obs::telemetry().snapshot(), m::kDdiSpawns,
                  {{m::kLabelBackend, "process"}});
  };
  xf::SolverOptions sopt;
  sopt.residual_tolerance = 1e-6;
  fcp::ParallelOptions popt = process_options();
  popt.process.task_deadline = 10.0;
  popt.process.heartbeat_deadline = 10.0;
  popt.process.poll_micros = 100;

  obs::Registry& reg = obs::telemetry();
  reg.set_enabled(true);
  const std::uint64_t before = scraped();
  const fcp::ParallelFciResult clean =
      fcp::run_parallel_fci(be_tables(), 2, 2, 0, popt, sopt);
  const std::uint64_t after = scraped();
  reg.set_enabled(false);
  ASSERT_TRUE(clean.solve.converged);
  EXPECT_GT(clean.solve.iterations, 1u);
  EXPECT_EQ(spawns(clean.metrics), popt.num_ranks);
  EXPECT_EQ(after - before, popt.num_ranks);

  popt.faults.kill_worker_at_claim(1, 3);
  const fcp::ParallelFciResult faulted =
      fcp::run_parallel_fci(be_tables(), 2, 2, 0, popt, sopt);
  ASSERT_TRUE(faulted.solve.converged);
  EXPECT_GE(faulted.metrics.totals.ranks_lost, 1u);
  EXPECT_EQ(spawns(faulted.metrics), popt.num_ranks);

  const fcp::ParallelFciResult sim =
      fcp::run_parallel_fci(be_tables(), 2, 2, 0, sim_options(), sopt);
  const fcp::ParallelFciResult threads =
      fcp::run_parallel_fci(be_tables(), 2, 2, 0, threads_options(), sopt);
  EXPECT_EQ(spawns(sim.metrics), 0u);
  EXPECT_EQ(spawns(threads.metrics), 0u);
}
