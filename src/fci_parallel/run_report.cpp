#include "fci_parallel/run_report.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "fci_parallel/parallel_fci.hpp"

namespace xfci::fcp {
namespace {

void breakdown_json(const PhaseBreakdown& b, obs::JsonWriter& w) {
  w.begin_object();
  w.key("beta_side").num(b.beta_side);
  w.key("alpha_side").num(b.alpha_side);
  w.key("mixed").num(b.mixed);
  w.key("transpose").num(b.transpose);
  w.key("vector_ops").num(b.vector_ops);
  w.key("load_imbalance").num(b.load_imbalance);
  w.key("recovery").num(b.recovery);
  w.key("total").num(b.total);
  w.key("comm_words").num(b.comm_words);
  w.key("mixed_comm_words").num(b.mixed_comm_words);
  w.key("flops").num(b.flops);
  w.key("count").uint(b.count);
  w.end_object();
}

}  // namespace

RunMetrics RunMetrics::capture(const ParallelSigma& op) {
  const pv::Ddi& ddi = op.ddi();
  RunMetrics m;
  m.backend = ddi.name();
  m.algorithm =
      op.options().algorithm == fci::Algorithm::kMoc ? "moc" : "dgemm";
  m.num_ranks = ddi.num_ranks();
  m.num_workers = ddi.num_workers();
  m.dimension = op.space().dimension();
  m.models_cost = ddi.models_cost();
  m.totals = op.breakdown();
  m.per_sigma = op.breakdown().averaged();
  // Cost-modeling backends report simulated makespan; real backends report
  // the wall time spent inside the sigmas.
  m.total_seconds = ddi.models_cost() ? ddi.elapsed() : op.breakdown().total;
  m.total_flops = ddi.totals().flops;
  m.cost = op.options().cost;
  // One row per charge slot: a threads run with more workers than ranks
  // charges its pool stages to worker slots past num_ranks.
  m.rank_counters.reserve(ddi.num_slots());
  for (std::size_t s = 0; s < ddi.num_slots(); ++s)
    m.rank_counters.push_back(ddi.counters(s));
  m.env_reads = env::reads();
  return m;
}

void RunMetrics::add_solve(const fci::SolverResult& s) {
  have_solver = true;
  converged = s.converged;
  iterations = s.iterations;
  energy = s.energy;
  energy_history = s.energy_history;
  residual_history = s.residual_history;
}

double RunMetrics::gflops_per_rank() const {
  return total_flops / static_cast<double>(num_workers) /
         std::max(total_seconds, 1e-30) / 1e9;
}

void RunMetrics::write_keys(obs::JsonWriter& w) const {
  w.key("schema").str("xfci-metrics-v1");
  w.key("run").str(run);
  w.key("backend").str(backend);
  w.key("algorithm").str(algorithm);
  w.key("num_ranks").uint(num_ranks);
  w.key("num_workers").uint(num_workers);
  w.key("dimension").uint(dimension);
  w.key("models_cost").boolean(models_cost);
  w.key("total_seconds").num(total_seconds);
  w.key("total_flops").num(total_flops);
  w.key("phases");
  breakdown_json(per_sigma, w);
  w.key("totals");
  breakdown_json(totals, w);
  w.key("comm").begin_object();
  w.key("dlb_calls").uint(totals.dlb_calls);
  w.key("ops_dropped").uint(totals.ops_dropped);
  w.key("ops_delayed").uint(totals.ops_delayed);
  w.end_object();
  w.key("recovery").begin_object();
  w.key("tasks_reassigned").uint(totals.tasks_reassigned);
  w.key("ops_retried").uint(totals.ops_retried);
  w.key("ranks_lost").uint(totals.ranks_lost);
  w.end_object();
  w.key("ranks").begin_array();
  for (std::size_t r = 0; r < rank_counters.size(); ++r) {
    const pv::CommCounters& cc = rank_counters[r];
    w.begin_object();
    w.key("rank").uint(r);
    w.key("flops").num(cc.flops);
    w.key("get_words").num(cc.get_words);
    w.key("acc_words").num(cc.acc_words);
    w.key("get_calls").uint(cc.get_calls);
    w.key("acc_calls").uint(cc.acc_calls);
    w.key("dlb_calls").uint(cc.dlb_calls);
    w.key("ops_dropped").uint(cc.ops_dropped);
    w.key("ops_delayed").uint(cc.ops_delayed);
    w.end_object();
  }
  w.end_array();
  w.key("env").begin_array();
  for (const env::Read& e : env_reads) {
    w.begin_object();
    w.key("name").str(e.name);
    w.key("set").boolean(e.set);
    if (e.set) w.key("value").str(e.value);
    w.end_object();
  }
  w.end_array();
  if (models_cost) {
    w.key("cost_model");
    cost.to_json(w);
  }
  if (have_solver) {
    w.key("solver").begin_object();
    w.key("converged").boolean(converged);
    w.key("iterations").uint(iterations);
    w.key("energy").num(energy);
    w.key("energy_history").begin_array();
    for (double e : energy_history) w.num(e);
    w.end_array();
    w.key("residual_history").begin_array();
    for (double r : residual_history) w.num(r);
    w.end_array();
    w.end_object();
  }
}

std::string RunMetrics::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  write_keys(w);
  w.end_object();
  return w.take();
}

void RunMetrics::write(const std::string& path) const {
  obs::write_text_file(path, to_json());
}

}  // namespace xfci::fcp
