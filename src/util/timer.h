// Wall-clock timing used by the benchmark harnesses to report the execution
// time columns of Table III.

#ifndef EMD_UTIL_TIMER_H_
#define EMD_UTIL_TIMER_H_

#include <chrono>

namespace emd {

/// Stopwatch with seconds-resolution reporting.
class Timer {
 public:
  Timer() { Reset(); }

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace emd

#endif  // EMD_UTIL_TIMER_H_
