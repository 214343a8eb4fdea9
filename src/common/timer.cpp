#include "common/timer.hpp"

#include <thread>

namespace xfci {

double wall_unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace xfci
