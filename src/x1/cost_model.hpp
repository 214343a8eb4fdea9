#pragma once
// Cray-X1 performance model.
//
// The paper's scaling results (Figs. 4-5, Table 3) were measured on the
// ORNL Cray-X1: multi-streaming vector processors (MSPs, 12.8 GF/s peak)
// grouped four to an SMP node, connected by a high-bandwidth interconnect
// and programmed through SHMEM one-sided operations.  Without that
// machine, the parallel benchmarks run the real algorithms through the
// simulated DDI backend and charge time with this model.
//
// Kernel rates follow the X1 evaluation report the paper cites (Worley &
// Dunigan, "Early Evaluation of the Cray X1", CUG 2003) and the paper's own
// statements:
//  * DGEMM: 10-11 GF/s per MSP for matrices beyond ~300x300, much less for
//    small/skinny shapes (vector pipes starved) -- modeled with a
//    dimension-dependent efficiency ramp.
//  * Out-of-cache DAXPY: ~2 GF/s per MSP (memory-bandwidth bound).
//  * Indexed gather/scatter: runs at the vector-memory rate, modeled as a
//    words/s throughput with a startup cost.
//  * One-sided GET: latency + words/bandwidth.
//  * One-sided ACC (DDI_ACC over SHMEM, paper section 3.1): acquires the
//    remote mutex, fetches the data, adds locally, writes back -- twice the
//    GET traffic plus lock overhead, serialized per target.

#include <cstddef>

namespace xfci::obs {
class JsonWriter;
}

namespace xfci::x1 {

/// Tunable machine constants (defaults: Cray-X1 per-MSP numbers).
struct CostModel {
  double dgemm_asymptotic = 10.5e9;  ///< large-matrix DGEMM rate
  double dgemm_half_dim = 55.0;      ///< min-dimension at half efficiency
  double daxpy_flops = 2.0e9;        ///< out-of-cache streaming flops
  double indexed_words = 0.8e9;      ///< gather/scatter words per second
  double kernel_startup = 2.0e-6;    ///< vector kernel startup (s)

  double get_latency = 5.0e-6;       ///< one-sided get latency (s)
  double get_bandwidth = 4.0e9;      ///< bytes/s per MSP for remote get
  double acc_lock_overhead = 6.0e-6; ///< mutex acquire/release + quiet
  double dlb_latency = 8.0e-6;       ///< SHMEM_SWAP on the DLB server
  double barrier_cost = 20.0e-6;     ///< full-machine barrier

  double node_bandwidth = 12.0e9;    ///< aggregate receive bytes/s per MSP

  /// Fault-detection timeouts of the recovery layer (scaled like the other
  /// fixed overheads by with_overhead_scale):
  /// time before a requester declares an unacknowledged one-sided op lost
  /// and retransmits it...
  double ack_timeout = 25.0e-6;
  /// ...and time before the DLB manager declares a silent worker dead and
  /// reassigns its aggregated task to a survivor.
  double task_timeout = 200.0e-6;

  /// Scalar cost of generating one Hamiltonian element in the MOC
  /// algorithm (index arithmetic + integral address computation on the
  /// X1's weak 400 MHz scalar unit).  This work is replicated on every
  /// rank in the historical parallelization -- the reason the MOC
  /// same-spin routine "does not scale at all" (paper Fig. 4).
  double moc_element = 6.0e-8;

  /// Seconds for a DGEMM of shape (m, n, k) on one MSP.  The efficiency
  /// ramps with the smallest matrix dimension: tiny or skinny
  /// multiplications cannot fill the vector pipes.
  double dgemm_seconds(std::size_t m, std::size_t n, std::size_t k) const;

  /// Seconds for `flops` worth of streaming vector work (DAXPY/dot-like).
  double daxpy_seconds(double flops) const;

  /// Seconds for `words` elements of indexed gather/scatter or local copy.
  double indexed_seconds(double words) const;

  /// Seconds (at the requester) for a one-sided get of `words` doubles.
  double get_seconds(double words) const;

  /// Seconds (at the requester) for a one-sided accumulate of `words`
  /// doubles: fetch + local add + write back = twice the traffic, plus
  /// the lock.
  double acc_seconds(double words) const;

  /// Node-bandwidth occupancy at a target absorbing `words` doubles that
  /// arrive once (all-to-all traffic); the per-target congestion bound the
  /// simulated backend charges the target.
  double recv_target_seconds(double words) const;

  /// Receive-side occupancy of an accumulate: the target is touched twice
  /// (fetch + writeback), so 2x recv_target_seconds.
  double acc_target_seconds(double words) const;

  /// Returns a copy with every fixed per-operation overhead (latencies,
  /// kernel startups, lock/barrier costs) multiplied by `factor`, keeping
  /// all throughput rates.  The scaled-down benchmark problems (10^5-10^6
  /// determinants instead of the paper's 10^9-10^10) would otherwise sit in
  /// a latency regime the real runs never saw; scaling the overheads by
  /// roughly the problem-size reduction restores the paper's
  /// work-to-overhead ratio.  Used by the Fig. 4 / Fig. 5 / Table 3
  /// benchmarks and documented in EXPERIMENTS.md.
  CostModel with_overhead_scale(double factor) const;

  /// Serializes every model constant as one JSON object value (the
  /// "cost_model" section of the --metrics run report), so a report pins
  /// the exact charges its timings were simulated with.
  void to_json(obs::JsonWriter& w) const;
};

}  // namespace xfci::x1
