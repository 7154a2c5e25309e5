#include "common/stopwatch.h"

namespace ps2 {

void Stopwatch::Restart() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int64_t Stopwatch::ElapsedNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ps2
