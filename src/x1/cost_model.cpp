#include "x1/cost_model.hpp"

#include <algorithm>

#include "common/metrics.hpp"

namespace xfci::x1 {

double CostModel::dgemm_seconds(std::size_t m, std::size_t n,
                                std::size_t k) const {
  if (m == 0 || n == 0 || k == 0) return 0.0;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  const double dmin =
      static_cast<double>(std::min(m, std::min(n, k)));
  // Efficiency ramp: rate = asymptotic * dmin / (dmin + half_dim), matching
  // "10-11 GFlops/MSP for matrices beyond 300x300" while penalizing the
  // small blocks that dominate naive implementations.
  const double rate = dgemm_asymptotic * dmin / (dmin + dgemm_half_dim);
  return kernel_startup + flops / rate;
}

double CostModel::daxpy_seconds(double flops) const {
  if (flops <= 0.0) return 0.0;
  return kernel_startup + flops / daxpy_flops;
}

double CostModel::indexed_seconds(double words) const {
  if (words <= 0.0) return 0.0;
  return kernel_startup + words / indexed_words;
}

double CostModel::get_seconds(double words) const {
  if (words <= 0.0) return 0.0;
  return get_latency + 8.0 * words / get_bandwidth;
}

double CostModel::acc_seconds(double words) const {
  if (words <= 0.0) return 0.0;
  // DDI_ACC: lock, SHMEM_GET the target data, add locally, SHMEM_PUT back,
  // SHMEM_QUIET, unlock -- twice the get traffic plus overheads.
  return acc_lock_overhead + 2.0 * (get_latency + 8.0 * words / get_bandwidth);
}

double CostModel::recv_target_seconds(double words) const {
  if (words <= 0.0) return 0.0;
  return 8.0 * words / node_bandwidth;
}

double CostModel::acc_target_seconds(double words) const {
  return 2.0 * recv_target_seconds(words);
}

CostModel CostModel::with_overhead_scale(double factor) const {
  CostModel m = *this;
  m.kernel_startup *= factor;
  m.get_latency *= factor;
  m.acc_lock_overhead *= factor;
  m.dlb_latency *= factor;
  m.barrier_cost *= factor;
  m.ack_timeout *= factor;
  m.task_timeout *= factor;
  return m;
}

void CostModel::to_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.key("dgemm_asymptotic").num(dgemm_asymptotic);
  w.key("dgemm_half_dim").num(dgemm_half_dim);
  w.key("daxpy_flops").num(daxpy_flops);
  w.key("indexed_words").num(indexed_words);
  w.key("kernel_startup").num(kernel_startup);
  w.key("get_latency").num(get_latency);
  w.key("get_bandwidth").num(get_bandwidth);
  w.key("acc_lock_overhead").num(acc_lock_overhead);
  w.key("dlb_latency").num(dlb_latency);
  w.key("barrier_cost").num(barrier_cost);
  w.key("node_bandwidth").num(node_bandwidth);
  w.key("ack_timeout").num(ack_timeout);
  w.key("task_timeout").num(task_timeout);
  w.key("moc_element").num(moc_element);
  w.end_object();
}

}  // namespace xfci::x1
