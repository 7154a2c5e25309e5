#ifndef PS2_COMMON_STOPWATCH_H_
#define PS2_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace ps2 {

// Monotonic wall-clock stopwatch used by the runtime metrics and benchmark
// harness. Resolution is the steady_clock's (nanoseconds on Linux).
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart();

  // Elapsed time since construction / last Restart().
  double ElapsedSeconds() const;
  int64_t ElapsedNanos() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

// Current steady-clock time in microseconds; the runtime stamps tuples with
// this to compute per-tuple latency.
int64_t NowMicros();

}  // namespace ps2

#endif  // PS2_COMMON_STOPWATCH_H_
