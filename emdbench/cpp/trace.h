// In-memory span recording for the traced benchmark run.
//
// Spans are taken only around the benchmark's own calls into the library's
// public API (ProcessBatch, Finalize, the LocalEmdSystem entry points reached
// through TracedSystem, the end-of-run state probes, and the served path's
// client submits and process_batch callbacks). Nothing inside the library is
// instrumented. Each thread appends to its own buffer, so recording takes no
// lock on the hot path; Collect() merges the buffers once the run has ended.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans cover (the union of the children's intervals, clipped to
// the parent), so overlapping children on parallel workers count once.

#ifndef EMDBENCH_TRACE_H_
#define EMDBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "emd/local_emd_system.h"

namespace emdbench {

enum class SpanKind : uint8_t {
  kCycle = 0,     // Globalizer::ProcessBatch (key = cycle index)
  kFinalize,      // Globalizer::Finalize (key = cycle index it follows)
  kLocal,         // LocalEmdSystem::Process / ProcessBatched (key = tokens)
  kExtractProbe,  // end-of-run ShardedGlobalState::ExtractInto over a sample
  kStateWalk,     // end-of-run ShardedGlobalState::ApproxBytes
  kSubmit,        // client: TWEET frame sent until ACK / RETRY_AFTER read
  kServeBatch,    // server thread: the process_batch callback
  kNumKinds,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  SpanKind kind = SpanKind::kCycle;
  int64_t key = 0;
  double start = 0;  // seconds, emdbench::Now()
  double end = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a finished span to the calling thread's buffer.
  void Record(const Span& span);

  /// Parent for spans opened on pool workers, which cannot see the span
  /// their caller opened: the cycle-running thread publishes its span here.
  void set_current_parent(uint64_t id) {
    current_parent_.store(id, std::memory_order_release);
  }
  uint64_t current_parent() const {
    return current_parent_.load(std::memory_order_acquire);
  }

  /// All recorded spans, ordered by start time. Call only once every thread
  /// that recorded has finished its last span (joined, or idle in a pool
  /// after a completed ParallelFor).
  std::vector<Span> Collect() const;

 private:
  const uint64_t epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_parent_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, int64_t key, uint64_t parent)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.kind = kind;
    span_.key = key;
    span_.start = Now();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end = Now();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-kind totals over a trace.
struct TraceSummary {
  struct PerKind {
    uint64_t count = 0;
    double total = 0;     // sum of durations, seconds
    double self = 0;      // sum of self times, seconds
  };
  std::array<PerKind, static_cast<size_t>(SpanKind::kNumKinds)> kinds;

  const PerKind& of(SpanKind k) const { return kinds[static_cast<size_t>(k)]; }
};

/// Sums durations and self times per span kind.
TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans plus `summary` as JSON to `path`. Returns false when the
/// file cannot be written.
bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans,
                    const TraceSummary& summary);

/// Forwarding LocalEmdSystem: every call goes to `inner` unchanged. With a
/// tracer attached, Process and ProcessBatched are wrapped in kLocal spans
/// (parented to the tracer's current cycle) and their tokens are counted —
/// the only way to see local inference time from outside the library.
class TracedSystem final : public emd::LocalEmdSystem {
 public:
  TracedSystem(emd::LocalEmdSystem* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool is_deep() const override { return inner_->is_deep(); }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  int embedding_dim() const override { return inner_->embedding_dim(); }
  bool batch_capable() const override { return inner_->batch_capable(); }
  const char* process_failpoint() const override {
    return inner_->process_failpoint();
  }

  emd::LocalEmdResult Process(const std::vector<emd::Token>& tokens) override;
  void ProcessBatched(const std::vector<const std::vector<emd::Token>*>& tweets,
                      emd::ForwardArena* arena,
                      std::vector<emd::LocalEmdResult>* results) override;

  /// Tokens seen by traced calls.
  uint64_t tokens() const { return tokens_.load(std::memory_order_relaxed); }

 private:
  emd::LocalEmdSystem* inner_;
  Tracer* tracer_;
  std::atomic<uint64_t> tokens_{0};
};

/// Built-in checks of the trace arithmetic (self time with nested and
/// overlapping children, quantiles). Returns the number of failures and
/// prints each to stderr.
int RunTraceSelfTest();

}  // namespace emdbench

#endif  // EMDBENCH_TRACE_H_
