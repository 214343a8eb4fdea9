#pragma once
// XFCI_REQUIRE_PROCESS_HOST(): the first statement of a test that forks.
// It skips the test under tsan, whose runtime does not model fork+shm and
// would report on its own bookkeeping (the tsan ctest preset also filters
// these tests out by name), and where the process backend is unsupported.

#include <gtest/gtest.h>

#include "parallel/shm_ipc.hpp"

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

#define XFCI_REQUIRE_PROCESS_HOST()                                       \
  do {                                                                    \
    if (XFCI_TSAN)                                                        \
      GTEST_SKIP() << "fork-based backend tests are skipped under tsan";  \
    if (!::xfci::pv::process_backend_supported())                         \
      GTEST_SKIP() << "process backend unsupported on this platform";     \
  } while (false)
