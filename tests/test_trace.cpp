// Observability-layer tests: deterministic JSON number rendering, the
// json::Value round trip, Chrome-trace structure (valid JSON, per-track
// monotone and properly nested spans), bitwise determinism of simulated
// traces, rank-count-independent span structure, the --metrics run
// report, and the guarantee that attaching a tracer does not perturb the
// computation.  The threads-backend stress test doubles as the tsan
// surface for concurrent lane appends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "scf/scf.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;
namespace obs = xfci::obs;
namespace pv = xfci::pv;

namespace {

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

fcp::ParallelFciResult run_be(std::size_t ranks, obs::Tracer* tracer,
                              fcp::ExecutionMode mode =
                                  fcp::ExecutionMode::kSimulate,
                              pv::FaultPlan faults = {}) {
  const auto& tables = be_tables();
  fcp::ParallelOptions popt;
  popt.num_ranks = ranks;
  popt.cost = popt.cost.with_overhead_scale(fcp::kDriverOverheadScale);
  popt.execution = mode;
  popt.num_threads = 2;
  popt.faults = faults;
  popt.tracer = tracer;
  xf::SolverOptions sopt;
  sopt.residual_tolerance = 1e-6;
  return fcp::run_parallel_fci(tables, 2, 2, 0, popt, sopt);
}

// Spans of one Chrome (pid, tid) pair, sorted for the nesting check.
struct Span {
  double t0, t1;
  std::string name;
};

// Validates the trace document shape and per-track span discipline;
// returns span names per tid of pid 0 for structure comparisons.
std::map<int, std::vector<std::string>> check_chrome(
    const std::string& text) {
  const obs::json::Value doc = obs::json::Value::parse(text);
  const obs::json::Value& events = doc.req("traceEvents");
  EXPECT_TRUE(events.is_array());

  std::map<std::pair<int, int>, std::vector<Span>> tracks;
  std::map<int, std::vector<std::string>> names_by_tid;
  for (const obs::json::Value& e : events.array()) {
    const std::string& ph = e.req("ph").as_string();
    const int pid = static_cast<int>(e.req("pid").as_double());
    const int tid = static_cast<int>(e.req("tid").as_double());
    if (ph == "M") continue;  // metadata rows carry no timestamps
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    const double ts = e.req("ts").as_double();
    EXPECT_GE(ts, 0.0);
    if (ph == "X") {
      const double dur = e.req("dur").as_double();
      EXPECT_GE(dur, 0.0);
      tracks[{pid, tid}].push_back(
          {ts, ts + dur, e.req("name").as_string()});
      if (pid == 0) names_by_tid[tid].push_back(e.req("name").as_string());
    }
  }

  // Per track: sort (t0 asc, longer first) and check strict stack
  // nesting -- a span either contains or is disjoint from its neighbour.
  // Adjacent phases share their barrier timestamp, but ts + dur only
  // reconstructs the shared boundary to ~1 ulp (microsecond scale), so
  // the comparisons allow 1 ns of slack.
  constexpr double kEpsUs = 1e-3;
  for (auto& [key, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.t0 != b.t0) return a.t0 < b.t0;
      return (a.t1 - a.t0) > (b.t1 - b.t0);
    });
    std::vector<const Span*> stack;
    for (const Span& s : spans) {
      while (!stack.empty() && s.t0 >= stack.back()->t1 - kEpsUs)
        stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(s.t1, stack.back()->t1 + kEpsUs)
            << s.name << " crosses " << stack.back()->name << " on track ("
            << key.first << "," << key.second << ")";
      }
      stack.push_back(&s);
    }
  }
  return names_by_tid;
}

}  // namespace

TEST(JsonNumber, IntegerAndRoundTripRendering) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(42.0), "42");
  EXPECT_EQ(obs::json_number(-7.0), "-7");
  // Round trip: parse(render(v)) restores the exact bits.
  for (double v : {0.1, -75.48355436856203, 1e-30, 3.141592653589793,
                   1.0 / 3.0, 1e300}) {
    const std::string s = obs::json_number(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  // JSON has no inf/nan.
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
}

TEST(JsonValue, ParseDumpFixedPoint) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a").num(1.5);
  w.key("b").begin_array().uint(1).str("x\"y\n").boolean(true).null();
  w.end_array();
  w.key("nested").begin_object().key("k").num(-0.25).end_object();
  w.end_object();
  const std::string text = w.take();
  const obs::json::Value v = obs::json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_DOUBLE_EQ(v.req("a").as_double(), 1.5);
  EXPECT_EQ(v.req("b").at(1).as_string(), "x\"y\n");
  EXPECT_EQ(v.req("nested").req("k").as_double(), -0.25);
  EXPECT_THROW(obs::json::Value::parse("{\"a\":}"), xfci::Error);
  EXPECT_THROW(obs::json::Value::parse("[1,2"), xfci::Error);
  EXPECT_THROW(obs::json::Value::parse("[] x"), xfci::Error);
}

TEST(Trace, SimulatedTraceIsDeterministic) {
  obs::Tracer a, b;
  a.enable(0);
  b.enable(0);
  const auto ra = run_be(4, &a);
  const auto rb = run_be(4, &b);
  EXPECT_EQ(ra.solve.energy, rb.solve.energy);
  EXPECT_GT(a.total_events(), 0u);
  EXPECT_EQ(a.chrome_trace_json(), b.chrome_trace_json());
}

TEST(Trace, TracingDoesNotPerturbTheRun) {
  obs::Tracer tracer;
  tracer.enable(0);
  const auto traced = run_be(4, &tracer);
  const auto plain = run_be(4, nullptr);
  // Bitwise-identical energy trajectory and simulated clock.
  ASSERT_EQ(traced.solve.energy_history.size(),
            plain.solve.energy_history.size());
  for (std::size_t i = 0; i < plain.solve.energy_history.size(); ++i)
    EXPECT_EQ(traced.solve.energy_history[i], plain.solve.energy_history[i]);
  EXPECT_EQ(traced.metrics.total_seconds, plain.metrics.total_seconds);
}

TEST(Trace, ChromeTraceValidAndNested) {
  obs::Tracer tracer;
  tracer.enable(0);
  run_be(4, &tracer);
  const auto names = check_chrome(tracer.chrome_trace_json());
  // One track per rank plus the control track.
  ASSERT_EQ(names.size(), 5u);
  // Control track (tid 4) must show the solver / sigma / phase hierarchy.
  // The Be solve is Ms = 0, so its sigmas fold the parity instead of
  // running the alpha side.
  const auto& control = names.at(4);
  for (const char* expected :
       {"iteration", "sigma", "beta_side", "parity_fold", "mixed",
        "vector_ops"})
    EXPECT_NE(std::find(control.begin(), control.end(), expected),
              control.end())
        << "missing control span " << expected;
  // Rank tracks carry the per-rank phase bodies and DLB task spans.
  const auto& rank0 = names.at(0);
  for (const char* expected : {"beta_side", "task"})
    EXPECT_NE(std::find(rank0.begin(), rank0.end(), expected), rank0.end())
        << "missing rank span " << expected;
}

TEST(Trace, SpanStructureIndependentOfRankCount) {
  // The control-track span *sequence* is a property of the algorithm, not
  // of the partitioning: both rank counts converge in the same number of
  // iterations on this system and emit the same ordered span names.
  obs::Tracer t2, t4;
  t2.enable(0);
  t4.enable(0);
  run_be(2, &t2);
  run_be(4, &t4);
  const auto n2 = check_chrome(t2.chrome_trace_json());
  const auto n4 = check_chrome(t4.chrome_trace_json());
  EXPECT_EQ(n2.at(2), n4.at(4));  // control track sits after the ranks
}

TEST(Trace, FaultRunRecordsRecoveryEvents) {
  obs::Tracer tracer;
  tracer.enable(0);
  pv::FaultPlan faults;
  // Op 9 of rank 0 is a remote mixed-phase gather on this system (local
  // ops never consult the drop table), so the drop is actually exercised.
  faults.kill_rank_at_op(1, 30).drop_op(0, 9);
  const auto res = run_be(4, &tracer, fcp::ExecutionMode::kSimulate, faults);
  EXPECT_TRUE(res.solve.converged);
  std::set<std::string> instants;
  for (std::size_t track = 0; track < tracer.num_tracks(); ++track)
    for (const obs::TraceEvent& e : tracer.events(track))
      if (e.phase == obs::TraceEvent::Phase::kInstant)
        instants.insert(e.name);
  EXPECT_TRUE(instants.count("rank_lost"));
  EXPECT_TRUE(instants.count("retransmit"));
  EXPECT_TRUE(instants.count("dlb_claim"));
  // The dropped op and the rank death both surface in the run report.
  EXPECT_GE(res.metrics.totals.ops_dropped, 1u);
  EXPECT_EQ(res.metrics.totals.ranks_lost, 1u);
}

TEST(Metrics, RunReportRoundTripsAndMatchesResult) {
  obs::Tracer tracer;
  tracer.enable(0);
  auto res = run_be(4, &tracer);
  res.metrics.run = "be_test";
  const std::string text = res.metrics.to_json();
  const obs::json::Value m = obs::json::Value::parse(text);
  EXPECT_EQ(m.req("schema").as_string(), "xfci-metrics-v1");
  EXPECT_EQ(m.req("run").as_string(), "be_test");
  EXPECT_EQ(m.req("backend").as_string(), "sim");
  EXPECT_EQ(static_cast<std::size_t>(m.req("num_ranks").as_double()), 4u);
  EXPECT_DOUBLE_EQ(m.req("solver").req("energy").as_double(),
                   res.solve.energy);
  EXPECT_EQ(m.req("solver").req("energy_history").size(),
            res.solve.energy_history.size());
  EXPECT_EQ(m.req("ranks").size(), 4u);
  EXPECT_GT(m.req("comm").req("dlb_calls").as_double(), 0.0);
  EXPECT_TRUE(m.get("cost_model") != nullptr);
  // dump(parse(x)) == x: the report uses only JsonWriter-canonical forms.
  EXPECT_EQ(m.dump(), text);
}

TEST(Trace, ThreadsBackendStress) {
  // Threaded pool + fault injection + tracing: the tsan preset runs this
  // to prove concurrent per-lane appends are race-free.
  obs::Tracer tracer;
  tracer.enable(0);
  pv::FaultPlan faults;
  faults.kill_worker_at_claim(1, 2);
  const auto res =
      run_be(4, &tracer, fcp::ExecutionMode::kThreads, faults);
  EXPECT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.solve.energy, run_be(4, nullptr).solve.energy, 1e-9);
  EXPECT_GT(tracer.total_events(), 0u);
  check_chrome(tracer.chrome_trace_json());
}
