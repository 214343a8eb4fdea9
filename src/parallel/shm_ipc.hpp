#pragma once
// POSIX shared-memory and process plumbing of the ProcessDdi backend
// (process_ddi.cpp): named shm segments with RAII unlink, orphan hygiene,
// the parent-death tether and the cross-process futex the persistent
// ranks sleep on.  This file and process_ddi.* are the only places in the
// tree allowed to touch the raw ipc syscalls (fork / mmap / shm_open /
// kill / syscall ...) — the xfci_lint `ipc-fence` rule fences them here.
//
// Segment naming: every segment is created as /xfci-<creator pid>-<seq>.
// The pid in the name is what makes stale segments reapable: a segment
// whose creator no longer exists (kill(pid, 0) == ESRCH) was leaked by a
// crashed run and can be unlinked by the next one (reap_stale_segments,
// called on every ProcessDdi construction).  Segments of live processes
// are never touched.
//
// Concurrency contract (capability-negative): a ShmSegment is created and
// unlinked by the owning driver process; the mapped bytes themselves are
// shared with forked children and carry their own synchronization
// (std::atomic words laid out by process_ddi.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xfci::pv {

/// True when this platform can host the process backend (POSIX shm_open +
/// fork + prctl); the factory and the CLI refuse it elsewhere.
bool process_backend_supported();

/// A created-and-mapped POSIX shared-memory segment, unlinked and unmapped
/// on destruction (every exit path, including exceptions thrown mid-pool).
/// Move-only; the moved-from object releases ownership.
class ShmSegment {
 public:
  /// An empty (unmapped, unnamed) segment; close() and the destructor
  /// no-op.  Backends hold one of these until a pool opens.
  ShmSegment() = default;

  /// Creates, sizes and maps a fresh zero-filled segment named
  /// /xfci-<pid>-<seq> of `bytes` bytes (rounded up to a page).
  static ShmSegment create(std::size_t bytes);

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ~ShmSegment();

  void* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// The shm_open name (leading '/'), e.g. "/xfci-1234-0".
  const std::string& name() const { return name_; }

  /// Unmaps and unlinks now (idempotent; the destructor then no-ops).
  void close() noexcept;

 private:
  std::string name_;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Unlinks every /dev/shm segment matching the xfci naming scheme whose
/// creator process no longer exists; returns how many were reaped.  Called
/// on ProcessDdi construction so a SIGKILL'd driver cannot leak segments
/// past the next run.
std::size_t reap_stale_segments();

/// The xfci segment names currently registered by *this* process, sorted
/// (diagnostic; the leak-check test asserts this is empty after teardown).
std::vector<std::string> own_segment_names();

/// Child-side orphan tether: arranges for the calling process to receive
/// SIGKILL when its parent dies (prctl PR_SET_PDEATHSIG) and closes the
/// already-lost race by checking that the parent is still `parent_pid`.
/// Returns false when the parent is already gone (the caller must _exit).
bool tether_to_parent(int parent_pid);

/// Cross-process wait on a 32-bit word inside a MAP_SHARED segment: blocks
/// while `word` holds `expected`, for at most `timeout_micros`, and
/// returns on a wake, a timeout, a signal or an already-changed value
/// (the caller re-checks its condition in every case).  A shared futex:
/// libstdc++'s std::atomic::wait waits process-privately
/// (FUTEX_WAIT_PRIVATE), so a wake from another process never reaches it.
void shared_futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t expected, std::size_t timeout_micros);

/// Wakes every process blocked in shared_futex_wait on `word`.
void shared_futex_wake_all(std::atomic<std::uint32_t>& word);

}  // namespace xfci::pv
