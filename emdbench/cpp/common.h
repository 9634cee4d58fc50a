// Small helpers shared by the benchmark binary: clocks, order statistics,
// process counters read from /proc, the host-speed probe, and a minimal JSON
// writer for the result line and the trace file.

#ifndef EMDBENCH_COMMON_H_
#define EMDBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace emdbench {

/// Monotonic seconds since an arbitrary process-local origin.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// CPU seconds consumed by every thread of this process.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0;
}

/// Written by CalibrationMs so the compiler must compute the loop.
inline double calibration_sink = 0;

/// Host-speed probe: eight independent floating-point recurrences plus an
/// integer one, touching no library code and no memory beyond registers.
/// The chains are independent, so the loop is bound by execution-port
/// throughput rather than latency: a core whose ports are shared with a busy
/// neighbour (or clocked down) runs it slower, and a run that landed in such
/// a slow regime of a shared host shows up in the data. Returns milliseconds.
inline double CalibrationMs() {
  const double start = Now();
  double acc[8] = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7};
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 15'000'000; ++i) {
    for (int k = 0; k < 8; ++k) acc[k] = acc[k] * 0.9999999 + 1e-9;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double sum = static_cast<double>(x & 1);
  for (double a : acc) sum += a;
  calibration_sink = sum;
  return (Now() - start) * 1e3;
}

/// Appends a JSON string literal (with escapes) to `out`.
inline void JsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Full-precision JSON number (non-finite values become 0).
inline std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One named metric as it appears in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace emdbench

#endif  // EMDBENCH_COMMON_H_
