// emdbench: the paper-pipeline benchmark binary. emdbench/run.py builds this
// binary, fills the model cache, and then calls it once per run.
//
//   emdbench train --cache DIR
//       Trains every model the workloads use into DIR (skipping any already
//       there) and prints {"train_s": ...}.
//   emdbench run --workload NAME --seed N --seconds S --trace 0|1 --cache DIR
//                [--trace-out PATH] [--train-s X] [--smoke]
//       One benchmark run. Logs go to stderr; the last stdout line is the
//       result object {"correct", "attempted", "failed", "metrics"}. Exits 1
//       when an output check failed.
//   emdbench capacity --cache DIR [--seed N] [--seconds S]
//       In-process capacity of the served_governed pipeline (tweets/s), the
//       reference its arrival rate is sized from.
//   emdbench self-test
//       Checks the trace arithmetic.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: emdbench train --cache DIR\n"
               "       emdbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache DIR [--trace-out PATH] [--train-s X] "
               "[--smoke]\n"
               "       emdbench capacity --cache DIR [--seed N] [--seconds S]\n"
               "       emdbench self-test\n");
  return 2;
}

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::string ResultJson(const emdbench::RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const emdbench::Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    emdbench::JsonString(&out, m.name);
    out += ": {\"value\": " + emdbench::JsonNumber(m.value) + ", \"unit\": ";
    emdbench::JsonString(&out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  emdbench::RunConfig config;
  long long trace = -1;
  double train_s = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    long long v = 0;
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed" && ParseInt(value, &v) && v >= 0) {
      config.seed = static_cast<uint64_t>(v);
      have_seed = true;
    } else if (arg == "--seconds" && ParseInt(value, &v) && v >= 1 && v <= 600) {
      config.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (arg == "--trace" && ParseInt(value, &v) && (v == 0 || v == 1)) {
      trace = v;
    } else if (arg == "--cache") {
      config.cache_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else if (arg == "--train-s") {
      train_s = std::atof(value);
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", arg.c_str(), value);
      return Usage();
    }
  }
  config.trace = trace == 1;
  config.train_seconds = train_s;

  if (command == "self-test") {
    const int failures = emdbench::RunTraceSelfTest();
    std::printf("{\"self_test_failures\": %d}\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (config.cache_dir.empty()) return Usage();

  if (command == "train") {
    emd::SetLogLevel(emd::LogLevel::kInfo);
    double seconds = 0;
    if (!emdbench::TrainModels(config.cache_dir, &seconds)) {
      std::fprintf(stderr, "training failed\n");
      return 1;
    }
    std::printf("{\"train_s\": %s}\n", emdbench::JsonNumber(seconds).c_str());
    return 0;
  }

  emd::SetLogLevel(emd::LogLevel::kWarn);
  if (command == "capacity") {
    const double tps = emdbench::MeasureServedCapacity(
        config.cache_dir, have_seed ? config.seed : 1,
        have_seconds ? config.seconds : 10);
    std::printf("{\"served_capacity_tweets_per_s\": %s}\n",
                emdbench::JsonNumber(tps).c_str());
    return tps > 0 ? 0 : 1;
  }
  if (command != "run") return Usage();
  if (!emdbench::IsWorkload(config.workload)) {
    std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
    return 2;
  }
  if (!have_seed || !have_seconds || trace < 0) return Usage();

  const emdbench::RunReport report = emdbench::RunWorkload(config);
  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "[emdbench] CHECK FAILED: %s\n", v.c_str());
  }
  std::string diag;
  for (const emdbench::Metric& m : report.diagnostics) {
    diag += " " + m.name + "=" + emdbench::JsonNumber(m.value) + m.unit;
  }
  std::fprintf(stderr, "[emdbench] diagnostics:%s\n", diag.c_str());
  std::printf("%s\n", ResultJson(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
