// Retry with exponential backoff and decorrelated jitter.
//
// Fallible stage calls in the pipeline run under RunWithRetry: a transient
// error (IoError, Internal, DeadlineExceeded, Unavailable) is retried up to
// `max_attempts` times, sleeping a decorrelated-jitter backoff between
// attempts (AWS architecture-blog scheme: next = uniform(base, prev * 3),
// capped). Permanent errors (InvalidArgument, Corruption, NotFound, ...)
// return immediately — retrying them cannot succeed.
//
// All sleeping and timing goes through a Clock*, and the jitter RNG is
// seeded, so tests with a FakeClock observe the exact backoff schedule
// without real delays. max_attempts = 1 disables retrying entirely (the
// default for pipeline stages, preserving single-shot semantics unless a
// deployment opts in).
//
//   RetryStats stats;
//   Status s = RunWithRetry(policy, clock, &rng, [&] {
//     return embedder->TryEmbedSpans(token_embeddings, spans, &arena, &out);
//   }, &stats);

#ifndef EMD_UTIL_RETRY_H_
#define EMD_UTIL_RETRY_H_

#include <cstdint>
#include <utility>

#include "util/deadline.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace emd {

/// Per-stage retry configuration.
struct RetryPolicy {
  /// Total tries including the first; 1 = no retrying.
  int max_attempts = 1;
  /// First backoff sleep. Subsequent sleeps draw decorrelated jitter:
  /// uniform(initial, previous * 3), capped at max_backoff_nanos.
  uint64_t initial_backoff_nanos = 1 * kMillisecond;
  uint64_t max_backoff_nanos = 100 * kMillisecond;
  /// Per-attempt time budget measured on the injected clock; an attempt
  /// that overruns counts as a transient DeadlineExceeded failure. 0 = off.
  uint64_t attempt_deadline_nanos = 0;
};

/// True for Status codes worth retrying: failures of the environment
/// (IoError, Internal, DeadlineExceeded, Unavailable, ResourceExhausted)
/// rather than of the request itself.
bool IsTransient(const Status& status);

/// Decorrelated-jitter backoff schedule. Deterministic given the Rng seed.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, Rng* rng) : policy_(policy), rng_(rng) {}

  /// Next sleep duration; the first call returns exactly
  /// initial_backoff_nanos, later calls draw uniform(initial, prev * 3)
  /// capped at max_backoff_nanos.
  uint64_t NextDelayNanos();

  void Reset() { prev_ = 0; }

 private:
  const RetryPolicy policy_;
  Rng* rng_;
  uint64_t prev_ = 0;
};

/// Counters accumulated by one RunWithRetry call.
struct RetryStats {
  int attempts = 0;
  int retries = 0;  // attempts - 1 when any retrying happened
  uint64_t backoff_nanos = 0;
  Status last_error;  // OK when the final attempt succeeded
};

namespace retry_internal {
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
}  // namespace retry_internal

/// Runs `fn` (returning Status or Result<T>) under `policy`. Transient
/// failures — including attempts that overrun policy.attempt_deadline_nanos
/// on `clock` — are retried with backoff; the final outcome is returned.
/// `rng` drives the jitter (seed it for determinism); `stats` is optional.
template <typename Fn>
auto RunWithRetry(const RetryPolicy& policy, Clock* clock, Rng* rng, Fn&& fn,
                  RetryStats* stats = nullptr) -> decltype(fn()) {
  Backoff backoff(policy, rng);
  RetryStats local;
  RetryStats* s = stats != nullptr ? stats : &local;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  while (true) {
    ++s->attempts;
    const uint64_t t0 = clock->NowNanos();
    auto result = fn();
    Status error = retry_internal::StatusOf(result);
    if (error.ok() && policy.attempt_deadline_nanos != 0 &&
        clock->NowNanos() - t0 > policy.attempt_deadline_nanos) {
      // A slow success is still a deadline miss: the stage budget exists to
      // bound the cycle, so the overrun attempt is discarded and retried.
      error = Status::DeadlineExceeded("attempt took ", clock->NowNanos() - t0,
                                       "ns, budget ",
                                       policy.attempt_deadline_nanos, "ns");
    }
    if (error.ok()) {
      s->last_error = Status::OK();
      return result;
    }
    s->last_error = error;
    if (!IsTransient(error) || s->attempts >= max_attempts) {
      return decltype(fn())(error);
    }
    ++s->retries;
    const uint64_t delay = backoff.NextDelayNanos();
    s->backoff_nanos += delay;
    clock->SleepFor(delay);
  }
}

}  // namespace emd

#endif  // EMD_UTIL_RETRY_H_
