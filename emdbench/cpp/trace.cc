#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace emdbench {
namespace {

std::atomic<uint64_t> g_next_epoch{1};

// The calling thread's buffer in the tracer identified by `epoch`. A thread
// that records into a newer tracer re-registers; stale pointers into a
// destroyed tracer are never dereferenced because its epoch never recurs.
struct ThreadBuffer {
  uint64_t epoch = 0;
  std::vector<Span>* spans = nullptr;
};
thread_local ThreadBuffer t_buffer;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCycle: return "process_batch";
    case SpanKind::kFinalize: return "finalize";
    case SpanKind::kLocal: return "local_emd";
    case SpanKind::kExtractProbe: return "extract_probe";
    case SpanKind::kStateWalk: return "approx_bytes";
    case SpanKind::kSubmit: return "client_submit";
    case SpanKind::kServeBatch: return "serve_batch";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

Tracer::Tracer() : epoch_(g_next_epoch.fetch_add(1)) {}

void Tracer::Record(const Span& span) {
  if (t_buffer.epoch != epoch_) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 12);
    std::lock_guard<std::mutex> lock(mu_);
    t_buffer.spans = buffer.get();
    t_buffer.epoch = epoch_;
    buffers_.push_back(std::move(buffer));
  }
  t_buffer.spans->push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  });
  return all;
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].push_back({s.start, s.end});
  }

  TraceSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end - s.start;
    auto& intervals = children[i];
    for (auto& iv : intervals) {
      iv.first = std::max(iv.first, s.start);
      iv.second = std::min(iv.second, s.end);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double run_begin = 0, run_end = -1;
    bool open = false;
    for (const auto& iv : intervals) {
      if (iv.second <= iv.first) continue;
      if (open && iv.first <= run_end) {
        run_end = std::max(run_end, iv.second);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = iv.first;
      run_end = iv.second;
      open = true;
    }
    if (open) covered += run_end - run_begin;

    TraceSummary::PerKind& k = summary.kinds[static_cast<size_t>(s.kind)];
    ++k.count;
    k.total += duration;
    k.self += duration - covered;
  }
  return summary;
}

bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans,
                    const TraceSummary& summary) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"schema\": \"emdbench-trace-v1\", \"time_unit\": \"us\",\n"
      << " \"summary\": {";
  bool first = true;
  for (size_t k = 0; k < summary.kinds.size(); ++k) {
    const auto& pk = summary.kinds[k];
    if (pk.count == 0) continue;
    out << (first ? "" : ", ") << '"' << SpanKindName(static_cast<SpanKind>(k))
        << "\": {\"count\": " << pk.count
        << ", \"total_us\": " << JsonNumber(pk.total * 1e6)
        << ", \"self_us\": " << JsonNumber(pk.self * 1e6) << '}';
    first = false;
  }
  out << "},\n \"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                  "\"key\": %lld, \"start\": %.3f, \"end\": %.3f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  SpanKindName(s.kind), static_cast<long long>(s.key),
                  s.start * 1e6, s.end * 1e6,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << " ]}\n";
  return static_cast<bool>(out);
}

emd::LocalEmdResult TracedSystem::Process(const std::vector<emd::Token>& tokens) {
  if (tracer_ == nullptr) return inner_->Process(tokens);
  tokens_.fetch_add(tokens.size(), std::memory_order_relaxed);
  ScopedSpan span(tracer_, SpanKind::kLocal, static_cast<int64_t>(tokens.size()),
                  tracer_->current_parent());
  return inner_->Process(tokens);
}

void TracedSystem::ProcessBatched(
    const std::vector<const std::vector<emd::Token>*>& tweets,
    emd::ForwardArena* arena, std::vector<emd::LocalEmdResult>* results) {
  if (tracer_ == nullptr) {
    inner_->ProcessBatched(tweets, arena, results);
    return;
  }
  uint64_t n = 0;
  for (const auto* t : tweets) n += t->size();
  tokens_.fetch_add(n, std::memory_order_relaxed);
  ScopedSpan span(tracer_, SpanKind::kLocal, static_cast<int64_t>(n),
                  tracer_->current_parent());
  inner_->ProcessBatched(tweets, arena, results);
}

int RunTraceSelfTest() {
  int failures = 0;
  auto expect_near = [&failures](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9) {
      std::fprintf(stderr, "self-test FAILED: %s = %.12g, want %.12g\n", what,
                   got, want);
      ++failures;
    }
  };

  // Parent [0,10] with overlapping children [1,3] + [2,5] (union 4), a
  // disjoint [7,8], and [9,12] that is clipped to [9,10]: covered 6, self 4.
  // The child [2,5] has its own child [2,3]: its self time is 2.
  std::vector<Span> spans = {
      {1, 0, SpanKind::kCycle, 0, 0, 10},
      {2, 1, SpanKind::kLocal, 0, 1, 3},
      {3, 1, SpanKind::kLocal, 0, 2, 5},
      {4, 1, SpanKind::kLocal, 0, 7, 8},
      {5, 1, SpanKind::kLocal, 0, 9, 12},
      {6, 3, SpanKind::kStateWalk, 0, 2, 3},
      {7, 0, SpanKind::kFinalize, 0, 20, 21},
  };
  const TraceSummary s = Summarize(spans);
  expect_near("cycle.total", s.of(SpanKind::kCycle).total, 10);
  expect_near("cycle.self", s.of(SpanKind::kCycle).self, 4);
  expect_near("local.total", s.of(SpanKind::kLocal).total, 2 + 3 + 1 + 3);
  expect_near("local.self", s.of(SpanKind::kLocal).self, 2 + 2 + 1 + 3);
  expect_near("finalize.self", s.of(SpanKind::kFinalize).self, 1);
  expect_near("local.count", static_cast<double>(s.of(SpanKind::kLocal).count), 4);

  // Spans recorded from several threads all come back, ordered by start.
  Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 100; ++i) {
        ScopedSpan span(&tracer, SpanKind::kLocal, t, 0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<Span> collected = tracer.Collect();
  expect_near("collected", static_cast<double>(collected.size()), 300);
  for (size_t i = 1; i < collected.size(); ++i) {
    if (collected[i].start < collected[i - 1].start) {
      std::fprintf(stderr, "self-test FAILED: spans not ordered by start\n");
      ++failures;
      break;
    }
  }

  expect_near("quantile.median", Median({4, 1, 3, 2}), 2.5);
  expect_near("quantile.p95", Quantile({0, 10}, 0.95), 9.5);
  expect_near("quantile.empty", Quantile({}, 0.5), 0);
  return failures;
}

}  // namespace emdbench
