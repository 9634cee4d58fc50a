// The three benchmark workloads and the model-cache trainer.
//
//   deep_local       MiniBertweet on a D4-like 5-topic stream, closed loop,
//                    batch 256, 1 thread: local inference dominates.
//   long_stream      NP Chunker on a novel-heavy 5-topic stream, closed loop,
//                    batch 256, 1 thread: the global state grows into the
//                    tens of thousands of candidates and the global step
//                    dominates.
//   served_governed  TwitterNLP behind net::Server over one loopback
//                    connection, open-loop Poisson arrivals, 2 pipeline
//                    threads and a memory budget that keeps the governor
//                    evicting for the whole run.
//
// See emdbench/README.md for why each was chosen and which metrics it moves.

#ifndef EMDBENCH_WORKLOADS_H_
#define EMDBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace emdbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny sizes for the smoke test: every metric is still emitted, but the
  /// sample-count requirements (ten cycles beyond p95) are not enforced.
  bool smoke = false;
  /// Model cache written by TrainModels.
  std::string cache_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
  /// Training time recorded when the cache was built (setup.train_s).
  double train_seconds = 0;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable correctness violations; any entry makes correct false.
  std::vector<std::string> violations;
  /// Diagnostics printed on the log line but not part of the result.
  std::vector<Metric> diagnostics;
};

bool IsWorkload(const std::string& name);

/// Runs one workload: untraced for the end-to-end metrics, or (config.trace)
/// untraced then traced for the per-layer metrics.
RunReport RunWorkload(const RunConfig& config);

/// Trains (or loads) every model the workloads use into `cache_dir`. Returns
/// false on failure; *seconds receives the wall time spent.
bool TrainModels(const std::string& cache_dir, double* seconds);

/// In-process capacity of the served_governed pipeline configuration (batch
/// 32, 2 threads, same budget), in tweets per second: the reference the
/// served arrival rate is sized from.
double MeasureServedCapacity(const std::string& cache_dir, uint64_t seed,
                             int seconds);

}  // namespace emdbench

#endif  // EMDBENCH_WORKLOADS_H_
