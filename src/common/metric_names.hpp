#pragma once
// The single home of every telemetry metric name, help string, and label
// key (DESIGN.md §16).
//
// Call sites register metrics by constant — never by inline string
// literal — so the full metric surface is greppable in one place, names
// stay consistent between the Prometheus exposition and the
// xfci-telemetry-v1 snapshot, and a rename touches exactly one file.
// The `telemetry` lint rule enforces this: obs::Registry::counter /
// gauge / histogram calls with a quoted first argument are rejected
// everywhere except this header's own definitions.
//
// Naming follows Prometheus conventions: `xfci_<layer>_<what>`,
// `_total` suffix on counters, base units (seconds, bytes) in the name.

namespace xfci::obs::metric {

/// Name + help for one metric family; label keys are separate constants.
struct MetricSpec {
  const char* name;
  const char* help;
};

// --- label keys ---------------------------------------------------------
inline constexpr const char* kLabelPriority = "priority";
inline constexpr const char* kLabelStage = "stage";
inline constexpr const char* kLabelKernel = "kernel";
inline constexpr const char* kLabelOp = "op";
inline constexpr const char* kLabelBackend = "backend";

// --- serve::Engine ------------------------------------------------------
inline constexpr MetricSpec kServeJobsSubmitted{
    "xfci_serve_jobs_submitted_total",
    "Jobs accepted into the engine queues, by priority."};
inline constexpr MetricSpec kServeJobsRejected{
    "xfci_serve_jobs_rejected_total",
    "Jobs refused by admission control (pending limit), by priority."};
inline constexpr MetricSpec kServeJobsCompleted{
    "xfci_serve_jobs_completed_total",
    "Jobs finished successfully, by priority."};
inline constexpr MetricSpec kServeJobsFailed{
    "xfci_serve_jobs_failed_total",
    "Jobs that ended in an error, by priority."};
inline constexpr MetricSpec kServeQueueDepth{
    "xfci_serve_queue_depth",
    "Jobs currently waiting in the queue, by priority."};
inline constexpr MetricSpec kServeWorkersBusy{
    "xfci_serve_workers_busy",
    "Worker threads currently executing a job."};
inline constexpr MetricSpec kServeJobStageSeconds{
    "xfci_serve_job_stage_seconds",
    "Per-job latency split by stage: queue wait, setup build, solve."};

// --- serve::SetupCache --------------------------------------------------
inline constexpr MetricSpec kServeCacheHits{
    "xfci_serve_cache_hits_total",
    "Setup-cache lookups served from a resident entry."};
inline constexpr MetricSpec kServeCacheMisses{
    "xfci_serve_cache_misses_total",
    "Setup-cache lookups that had to build the setup."};
inline constexpr MetricSpec kServeCacheEvictions{
    "xfci_serve_cache_evictions_total",
    "Setup-cache entries evicted to stay inside the byte budget."};
inline constexpr MetricSpec kServeCacheResidentBytes{
    "xfci_serve_cache_resident_bytes",
    "Estimated bytes currently held by resident cache entries."};
inline constexpr MetricSpec kServeCacheResidentEntries{
    "xfci_serve_cache_resident_entries",
    "Setups currently resident in the cache."};

// --- fci solvers --------------------------------------------------------
inline constexpr MetricSpec kSolverIterations{
    "xfci_solver_iterations_total",
    "Solver iterations completed across all diagonalization methods."};
inline constexpr MetricSpec kSolverResidualNorm{
    "xfci_solver_residual_norm",
    "Residual norm reported by the most recent solver iteration."};

// --- linalg::gemm -------------------------------------------------------
inline constexpr MetricSpec kGemmCalls{
    "xfci_gemm_calls_total", "linalg::gemm invocations."};
inline constexpr MetricSpec kGemmFlops{
    "xfci_gemm_flops_total",
    "Floating-point operations (2mnk per call) issued through gemm."};
inline constexpr MetricSpec kGemmKernelDispatch{
    "xfci_gemm_kernel_dispatch_total",
    "gemm calls by the micro-kernel the runtime dispatcher selected."};

// --- pv::Ddi ledger (published once per sigma by fcp::ParallelSigma) ----
inline constexpr MetricSpec kDdiOps{
    "xfci_ddi_ops_total",
    "One-sided operations (get/acc) in the backend's DDI ledger, "
    "published once per sigma, by op and backend."};
inline constexpr MetricSpec kDdiWords{
    "xfci_ddi_words_total",
    "Whole words of one-sided traffic under the backend's word rule "
    "(sim: issuer != owner; process: every delivered op; threads: none), "
    "published once per sigma, by op and backend."};
inline constexpr MetricSpec kDdiRetransmits{
    "xfci_ddi_retransmits_total",
    "Dropped one-sided ops re-issued by the recovery layer."};
inline constexpr MetricSpec kDdiTasksReassigned{
    "xfci_ddi_tasks_reassigned_total",
    "Pool tasks re-executed after a rank/worker failure."};
inline constexpr MetricSpec kDdiRanksLost{
    "xfci_ddi_ranks_lost_total",
    "Rank deaths absorbed by redistributing onto the survivors."};
inline constexpr MetricSpec kDdiSpawns{
    "xfci_ddi_spawns_total",
    "Rank processes forked, by backend (process: one per surviving rank "
    "per backend; sim and threads fork none)."};
inline constexpr MetricSpec kProcessHeartbeatAge{
    "xfci_process_heartbeat_age_seconds",
    "Watchdog-observed age of the stalest live rank heartbeat "
    "(ProcessDdi liveness)."};

}  // namespace xfci::obs::metric
