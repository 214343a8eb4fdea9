#pragma once
// Wall-clock timing: the Timer stopwatch that the wall-clock backends,
// the serve engine and the benches time with, the one sanctioned
// system-clock read, and a real-time pause.  Phase rows are metered in
// each backend's own clock domain (ParallelSigma::record_window).

#include <chrono>

namespace xfci {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Seconds since the Unix epoch, as a double.  The one sanctioned
/// system-clock read: telemetry snapshots stamp themselves with it, and
/// the timing lint rule keeps every other layer off raw clocks.
double wall_unix_seconds();

/// Blocks the calling thread for (at least) `seconds`.  Lives here so
/// drivers that need a real-time pause (e.g. serve_tool --linger holding
/// the telemetry exporter open for scrapes) stay off raw chrono.
void sleep_seconds(double seconds);

}  // namespace xfci
