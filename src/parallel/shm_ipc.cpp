#include "parallel/shm_ipc.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>

#include "common/error.hpp"

#if defined(__linux__)
#include <dirent.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace xfci::pv {

#if defined(__linux__)

namespace {

// Per-process sequence number: segment names must be unique within one
// creator pid even when backends are constructed concurrently (tests).
std::atomic<unsigned> g_segment_seq{0};

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "a futex word must be a plain lock-free 32-bit atomic");

/// The kernel-visible address of a futex word.
std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

std::string segment_name(int pid, unsigned seq) {
  return "/xfci-" + std::to_string(pid) + "-" + std::to_string(seq);
}

/// Parses "<pid>" out of "xfci-<pid>-<seq>" (no leading '/', as listed in
/// /dev/shm); returns -1 when the entry does not match the scheme.
int creator_pid_of(const char* entry) {
  const char prefix[] = "xfci-";
  const char* p = entry;
  for (const char* q = prefix; *q != '\0'; ++q, ++p)
    if (*p != *q) return -1;
  if (*p < '0' || *p > '9') return -1;
  long pid = 0;
  while (*p >= '0' && *p <= '9') {
    pid = pid * 10 + (*p - '0');
    if (pid > 0x7fffffff) return -1;
    ++p;
  }
  if (*p != '-') return -1;
  for (++p; *p != '\0'; ++p)
    if (*p < '0' || *p > '9') return -1;
  return static_cast<int>(pid);
}

}  // namespace

bool process_backend_supported() { return true; }

ShmSegment ShmSegment::create(std::size_t bytes) {
  XFCI_REQUIRE(bytes > 0, "shm segment must have a nonzero size");
  ShmSegment seg;
  seg.name_ = segment_name(static_cast<int>(::getpid()),
                           g_segment_seq.fetch_add(1));
  const int fd = ::shm_open(seg.name_.c_str(), O_CREAT | O_EXCL | O_RDWR,
                            0600);
  XFCI_REQUIRE(fd >= 0, "shm_open(" + seg.name_ + ") failed (errno " +
                            std::to_string(errno) + ")");
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(seg.name_.c_str());
    XFCI_REQUIRE(false, "ftruncate(" + seg.name_ + ", " +
                            std::to_string(bytes) + ") failed (errno " +
                            std::to_string(err) + ")");
  }
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);  // the mapping keeps the segment alive
  if (mem == MAP_FAILED) {
    const int err = errno;
    ::shm_unlink(seg.name_.c_str());
    XFCI_REQUIRE(false, "mmap(" + seg.name_ + ", " + std::to_string(bytes) +
                            ") failed (errno " + std::to_string(err) + ")");
  }
  seg.data_ = mem;
  seg.size_ = bytes;
  return seg;
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : name_(std::move(other.name_)), data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.name_.clear();
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    close();
    name_ = std::move(other.name_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.name_.clear();
  }
  return *this;
}

ShmSegment::~ShmSegment() { close(); }

void ShmSegment::close() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
  if (!name_.empty()) {
    ::shm_unlink(name_.c_str());
    name_.clear();
  }
}

std::size_t reap_stale_segments() {
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return 0;
  std::vector<std::string> stale;
  while (const dirent* entry = ::readdir(dir)) {
    const int pid = creator_pid_of(entry->d_name);
    if (pid <= 0 || pid == static_cast<int>(::getpid())) continue;
    // kill(pid, 0) probes existence without signaling; ESRCH = creator
    // gone, the segment was leaked by a crashed run.  EPERM means the pid
    // exists but belongs to another user — leave that run's segments be.
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
      stale.push_back(std::string("/") + entry->d_name);
  }
  ::closedir(dir);
  std::size_t reaped = 0;
  for (const std::string& name : stale)
    if (::shm_unlink(name.c_str()) == 0) ++reaped;
  return reaped;
}

std::vector<std::string> own_segment_names() {
  std::vector<std::string> mine;
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return mine;
  while (const dirent* entry = ::readdir(dir))
    if (creator_pid_of(entry->d_name) == static_cast<int>(::getpid()))
      mine.push_back(std::string("/") + entry->d_name);
  ::closedir(dir);
  std::sort(mine.begin(), mine.end());
  return mine;
}

bool tether_to_parent(int parent_pid) {
  if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0) return false;
  // The parent may have died between fork() and the prctl above, in which
  // case the death signal was never armed; detect that by re-reading the
  // parent pid (a reparented child sees init/subreaper instead).
  return ::getppid() == static_cast<pid_t>(parent_pid);
}

void shared_futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t expected, std::size_t timeout_micros) {
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_micros / 1000000);
  timeout.tv_nsec = static_cast<long>(timeout_micros % 1000000) * 1000;
  // No FUTEX_PRIVATE_FLAG: the word is shared between processes.  EAGAIN
  // (the value already moved), EINTR and ETIMEDOUT all mean "re-check".
  (void)::syscall(SYS_futex, futex_word(word), FUTEX_WAIT, expected,
                  &timeout, nullptr, 0);
}

void shared_futex_wake_all(std::atomic<std::uint32_t>& word) {
  (void)::syscall(SYS_futex, futex_word(word), FUTEX_WAKE, INT_MAX, nullptr,
                  nullptr, 0);
}

#else  // !defined(__linux__)

bool process_backend_supported() { return false; }

ShmSegment ShmSegment::create(std::size_t) {
  XFCI_REQUIRE(false,
               "the process backend needs POSIX shm_open/fork (Linux)");
}

ShmSegment::ShmSegment(ShmSegment&&) noexcept = default;
ShmSegment& ShmSegment::operator=(ShmSegment&&) noexcept { return *this; }
ShmSegment::~ShmSegment() = default;
void ShmSegment::close() noexcept {}

std::size_t reap_stale_segments() { return 0; }
std::vector<std::string> own_segment_names() { return {}; }
bool tether_to_parent(int) { return false; }
void shared_futex_wait(std::atomic<std::uint32_t>&, std::uint32_t,
                       std::size_t) {}
void shared_futex_wake_all(std::atomic<std::uint32_t>&) {}

#endif  // defined(__linux__)

}  // namespace xfci::pv
