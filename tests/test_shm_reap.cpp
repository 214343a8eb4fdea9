// Stale-segment reaping (parallel/shm_ipc.hpp), in an executable of its
// own: every ProcessDdi constructor reaps stale segments too, so a process
// test running beside this one could unlink the forged segment first.
// tests/CMakeLists.txt registers it RUN_SERIAL, so ctest runs it alone.

#include <gtest/gtest.h>

#include <string>

#include "parallel/shm_ipc.hpp"
#include "process_host.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pv = xfci::pv;

#if defined(__linux__)
TEST(ProcessDdi, ReapsStaleSegmentsOfDeadCreators) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Forge the segment a SIGKILL'd run would leak: a segment whose name
  // carries a creator pid that no longer exists.  fork+_exit+waitpid
  // yields a pid guaranteed dead and fully reaped.
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

  const std::string name = "/xfci-" + std::to_string(dead) + "-0";
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 64), 0);
  ::close(fd);

  EXPECT_GE(pv::reap_stale_segments(), 1u);
  // The forged segment is gone; a live process's segment would survive.
  EXPECT_LT(::shm_open(name.c_str(), O_RDWR, 0600), 0);
}
#endif  // defined(__linux__)
