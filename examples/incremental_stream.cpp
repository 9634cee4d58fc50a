// Incremental streaming deployment (§III): tweets arrive through a bounded
// ingest queue; each execution cycle drains one batch, runs Local EMD, grows
// the CTrie, extracts mentions of all candidates known so far, and updates
// global candidate embeddings incrementally. After each batch the framework
// is finalized on everything seen so far, showing effectiveness evolving as
// evidence accumulates.
//
// The run is crash-safe and fault-tolerant: a checkpoint is written after
// every execution cycle, a killed stream resumes from it with byte-identical
// output, and a persistently failing local system trips its circuit breaker —
// tweets route to the NP-chunker fallback while exhausted ones land in a
// replayable dead-letter queue. No tweet is ever silently lost.
//
//   ./build/examples/incremental_stream [batch_size] [flags]
//     --checkpoint PATH    checkpoint file
//     --kill-after N       process N batches (checkpointing each), then exit
//                          as if crashed (requires --checkpoint)
//     --resume             restore the checkpoint and continue from its
//                          cursor (requires --checkpoint)
//     --queue-capacity N   bounded ingest-queue capacity (default 1024)
//     --fail-local         inject a persistent outage into the primary local
//                          system (demonstrates breaker + fallback + DLQ)
//     --dlq PATH           dead-letter queue file for unprocessable tweets
//     --replay-dlq         reprocess the dead-letter queue through a fresh
//                          pipeline, then truncate it (requires --dlq)
//     --metrics-out PATH   write metrics snapshots to PATH.prom (Prometheus
//                          text exposition) and PATH.json (emd-bench-v1)
//     --metrics-interval N snapshot every N batches (default 1; requires
//                          --metrics-out)
//     --memory-budget-mb N cap governed pipeline state at N MiB; the memory
//                          governor evicts cold candidates and trims tweet
//                          text to stay under it (default 0 = unbounded)
//     --decay-half-life N  half-life, in tweets, for time-decayed embedding
//                          pooling (default 0 = no decay, bit-identical to
//                          ungoverned runs)
//     --reclassify-interval N re-score ambiguous candidates every N batches
//                          (default 0 = only at finalize)
//     --backend NAME       kernel backend (auto|scalar|avx2|int8); shorthand
//                          for EMD_BACKEND=NAME, applied before dispatch
//
// Kill-and-resume demo:
//   ./build/examples/incremental_stream 100 --checkpoint s.ckpt --kill-after 3
//   ./build/examples/incremental_stream 100 --checkpoint s.ckpt --resume
// The resumed run's final mention and state digests match an uninterrupted
// run.
//
// Outage-and-replay demo (zero tweets lost):
//   ./build/examples/incremental_stream 100 --fail-local --dlq dead.dlq
//   ./build/examples/incremental_stream 100 --replay-dlq --dlq dead.dlq

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/framework_kit.h"
#include "core/globalizer.h"
#include "eval/metrics.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "stream/datasets.h"
#include "stream/dead_letter.h"
#include "stream/ingest_queue.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/file_io.h"

using namespace emd;

namespace {

/// Order-sensitive digest of the final mentions, for comparing an
/// uninterrupted run against a kill-and-resume (or DLQ replay) run.
uint32_t MentionDigest(const GlobalizerOutput& out) {
  uint32_t crc = 0;
  for (const auto& tweet_mentions : out.mentions) {
    for (const TokenSpan& span : tweet_mentions) {
      uint64_t packed[2] = {span.begin, span.end};
      crc = Crc32(packed, sizeof(packed), crc);
    }
  }
  return crc;
}

/// Digest of the global state the mention digest cannot see: every live
/// candidate's label, entity_probability bits and embedding_sum bits, and
/// every stored tweet's token text, offsets and kind. A resumed run must
/// match an uninterrupted one bit for bit.
uint32_t StateDigest(const Globalizer& g) {
  uint32_t crc = 0;
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    const uint8_t label = static_cast<uint8_t>(state.Label(gid));
    crc = Crc32(&gid, sizeof(gid), crc);
    crc = Crc32(&label, sizeof(label), crc);
    crc = Crc32(&rec.entity_probability, sizeof(rec.entity_probability), crc);
    crc = Crc32(rec.embedding_sum.data(),
                rec.embedding_sum.size() * sizeof(float), crc);
  }
  const TweetBase& tweets = g.tweet_base();
  for (size_t i = 0; i < tweets.size(); ++i) {
    const TweetBase::Tokens tokens = tweets.tokens(i);
    for (size_t t = 0; t < tokens.size(); ++t) {
      const StoredToken tok = tokens[t];
      const uint64_t packed[3] = {tok.begin, tok.end,
                                  static_cast<uint64_t>(tok.kind)};
      crc = Crc32(tok.text.data(), tok.text.size(), crc);
      crc = Crc32(packed, sizeof(packed), crc);
    }
  }
  return crc;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [batch_size] [flags]\n"
      "  --checkpoint PATH    checkpoint file\n"
      "  --kill-after N       stop after N batches as if crashed (requires "
      "--checkpoint)\n"
      "  --resume             resume from the checkpoint (requires "
      "--checkpoint)\n"
      "  --queue-capacity N   bounded ingest-queue capacity (default 1024)\n"
      "  --threads N          worker threads per batch (default 1; output is\n"
      "                       identical at any thread count)\n"
      "  --fail-local         inject a persistent primary local-EMD outage\n"
      "  --dlq PATH           dead-letter queue file\n"
      "  --replay-dlq         reprocess the dead-letter queue (requires "
      "--dlq)\n"
      "  --metrics-out PATH   write snapshots to PATH.prom and PATH.json\n"
      "  --metrics-interval N snapshot every N batches (default 1, requires "
      "--metrics-out)\n"
      "  --memory-budget-mb N cap governed pipeline state at N MiB (0 = "
      "unbounded)\n"
      "  --decay-half-life N  embedding-pooling half-life in tweets (0 = no "
      "decay)\n"
      "  --reclassify-interval N re-score ambiguous candidates every N "
      "batches\n"
      "  --backend NAME       kernel backend: auto|scalar|avx2|int8 (same as "
      "EMD_BACKEND)\n",
      argv0);
  return 2;
}

/// Atomically (re)writes the two snapshot files scrapers watch: PATH.prom in
/// Prometheus text exposition format and PATH.json in the emd-bench-v1 schema.
bool DumpMetrics(const std::string& base_path) {
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  const Status prom =
      WriteFileAtomic(base_path + ".prom", obs::ToPrometheusText(snap));
  const Status json =
      WriteFileAtomic(base_path + ".json", obs::ToBenchJson(snap));
  if (!prom.ok() || !json.ok()) {
    std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                 (prom.ok() ? json : prom).ToString().c_str());
    return false;
  }
  return true;
}

/// Strict numeric parse: the whole argument must be a base-10 integer.
bool ParseLong(const char* s, long* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Pipeline stages opt into 3 attempts with the default 1ms..100ms
/// decorrelated-jitter backoff; the breaker and DLQ ride the defaults.
GlobalizerOptions ResilientOptions(size_t batch_size, int num_threads = 1,
                                   MemoryGovernorOptions memory = {}) {
  GlobalizerOptions options;
  options.batch_size = batch_size;
  options.num_threads = num_threads;
  options.memory = memory;
  options.resilience.local_emd.max_attempts = 3;
  options.resilience.phrase_embedder.max_attempts = 3;
  options.resilience.classifier.max_attempts = 3;
  options.resilience.checkpoint_io.max_attempts = 3;
  return options;
}

/// Reprocesses every intact dead-letter record through a fresh pipeline and
/// truncates the queue on success. Zero-loss closing of the loop: the digest
/// printed here covers exactly the tweets the outage run could not process.
int ReplayDeadLetters(FrameworkKit& kit, const std::string& dlq_path,
                      size_t batch_size) {
  Result<DeadLetterQueue::ReadReport> report = DeadLetterQueue::ReadAll(dlq_path);
  if (!report.ok()) {
    std::fprintf(stderr, "cannot read dead-letter queue: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (report->corrupt_regions_skipped > 0) {
    std::fprintf(stderr, "warning: skipped %d corrupt region(s) in %s\n",
                 report->corrupt_regions_skipped, dlq_path.c_str());
  }
  if (report->entries.empty()) {
    std::printf("Dead-letter queue %s is empty; nothing to replay.\n",
                dlq_path.c_str());
    return 0;
  }

  std::vector<AnnotatedTweet> tweets;
  tweets.reserve(report->entries.size());
  for (const DeadLetterQueue::Entry& e : report->entries) {
    tweets.push_back(e.tweet);
  }

  const SystemKind kind = SystemKind::kTwitterNlp;
  Globalizer globalizer(kit.system(kind), kit.phrase_embedder(kind),
                        kit.classifier(kind), ResilientOptions(batch_size));
  for (size_t i = 0; i < tweets.size(); i += batch_size) {
    const size_t n = std::min(batch_size, tweets.size() - i);
    const Status st = globalizer.ProcessBatch(
        std::span<const AnnotatedTweet>(tweets.data() + i, n));
    if (!st.ok()) {
      std::fprintf(stderr, "replay batch failed: %s (queue left intact)\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  Result<GlobalizerOutput> out = globalizer.Finalize();
  if (!out.ok()) {
    std::fprintf(stderr, "replay finalize failed: %s (queue left intact)\n",
                 out.status().ToString().c_str());
    return 1;
  }
  std::printf("Replayed %zu dead-lettered tweet(s); mention digest: %08x\n",
              tweets.size(), MentionDigest(*out));
  std::printf("%s\n", out->ResilienceSummary().c_str());

  const Status truncated = DeadLetterQueue::Truncate(dlq_path);
  if (!truncated.ok()) {
    std::fprintf(stderr, "cannot truncate replayed queue: %s\n",
                 truncated.ToString().c_str());
    return 1;
  }
  std::printf("Dead-letter queue %s replayed and truncated.\n",
              dlq_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t batch_size = 100;
  long num_threads = 1;
  long kill_after = -1;
  long queue_capacity = 1024;
  bool resume = false;
  bool fail_local = false;
  bool replay_dlq = false;
  std::string checkpoint_path;
  std::string dlq_path;
  std::string metrics_out;
  long metrics_interval = 1;
  long memory_budget_mb = 0;
  long decay_half_life = 0;
  long reclassify_interval = 0;
  bool saw_batch_size = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--kill-after") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &kill_after) ||
          kill_after < 0) {
        std::fprintf(stderr, "--kill-after requires a batch count >= 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--queue-capacity") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &queue_capacity) ||
          queue_capacity <= 0) {
        std::fprintf(stderr, "--queue-capacity requires a count > 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &num_threads) ||
          num_threads <= 0) {
        std::fprintf(stderr, "--threads requires a count > 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(arg, "--fail-local") == 0) {
      fail_local = true;
    } else if (std::strcmp(arg, "--replay-dlq") == 0) {
      replay_dlq = true;
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint requires a path\n");
        return Usage(argv[0]);
      }
      checkpoint_path = argv[++i];
    } else if (std::strcmp(arg, "--dlq") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--dlq requires a path\n");
        return Usage(argv[0]);
      }
      dlq_path = argv[++i];
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--metrics-out requires a path\n");
        return Usage(argv[0]);
      }
      metrics_out = argv[++i];
    } else if (std::strcmp(arg, "--metrics-interval") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &metrics_interval) ||
          metrics_interval <= 0) {
        std::fprintf(stderr, "--metrics-interval requires a batch count > 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--memory-budget-mb") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &memory_budget_mb) ||
          memory_budget_mb < 0) {
        std::fprintf(stderr, "--memory-budget-mb requires a size >= 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--decay-half-life") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &decay_half_life) ||
          decay_half_life < 0) {
        std::fprintf(stderr,
                     "--decay-half-life requires a tweet count >= 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--reclassify-interval") == 0) {
      if (i + 1 >= argc || !ParseLong(argv[++i], &reclassify_interval) ||
          reclassify_interval < 0) {
        std::fprintf(stderr,
                     "--reclassify-interval requires a batch count >= 0\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--backend") == 0) {
      // Must win over an inherited EMD_BACKEND, and must land before the
      // first kernel call resolves the dispatch (the selector is read once).
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--backend requires auto|scalar|avx2|int8\n");
        return Usage(argv[0]);
      }
      ::setenv("EMD_BACKEND", argv[++i], /*overwrite=*/1);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return Usage(argv[0]);
    } else {
      long parsed = 0;
      if (saw_batch_size || !ParseLong(arg, &parsed) || parsed <= 0) {
        std::fprintf(stderr, "batch_size must be a single integer > 0, got "
                             "\"%s\"\n", arg);
        return Usage(argv[0]);
      }
      batch_size = static_cast<size_t>(parsed);
      saw_batch_size = true;
    }
  }
  // Cross-flag validation: crash/resume need a named checkpoint, replay needs
  // a named queue, and a replay run must not re-inject the outage it drains.
  if ((kill_after >= 0 || resume) && checkpoint_path.empty()) {
    std::fprintf(stderr, "--kill-after/--resume require --checkpoint PATH\n");
    return Usage(argv[0]);
  }
  if (replay_dlq && dlq_path.empty()) {
    std::fprintf(stderr, "--replay-dlq requires --dlq PATH\n");
    return Usage(argv[0]);
  }
  if (replay_dlq && fail_local) {
    std::fprintf(stderr, "--replay-dlq cannot be combined with --fail-local\n");
    return Usage(argv[0]);
  }
  if (metrics_out.empty() && metrics_interval != 1) {
    std::fprintf(stderr, "--metrics-interval requires --metrics-out PATH\n");
    return Usage(argv[0]);
  }

  FrameworkKitOptions kit_options = FrameworkKitOptions::FromEnv();
  if (std::getenv("EMD_SCALE") == nullptr) kit_options.scale = 0.25;
  FrameworkKit kit(kit_options);

  if (replay_dlq) return ReplayDeadLetters(kit, dlq_path, batch_size);

  Dataset stream = BuildD1(kit.catalog(), kit.suite_options());
  const SystemKind kind = SystemKind::kTwitterNlp;
  std::printf("Incremental run of %s + EMD Globalizer on %s (%zu tweets, "
              "batches of %zu, queue capacity %ld, %ld thread(s))\n\n",
              SystemKindName(kind), stream.name.c_str(), stream.size(),
              batch_size, queue_capacity, num_threads);

  MemoryGovernorOptions memory;
  memory.budget_bytes =
      static_cast<size_t>(memory_budget_mb) * 1024 * 1024;
  memory.decay_half_life_tweets = static_cast<uint64_t>(decay_half_life);
  memory.reclassify_interval_batches =
      static_cast<uint64_t>(reclassify_interval);
  Globalizer globalizer(
      kit.system(kind), kit.phrase_embedder(kind), kit.classifier(kind),
      ResilientOptions(batch_size, static_cast<int>(num_threads), memory));
  globalizer.set_fallback_system(kit.system(SystemKind::kNpChunker));

  // Arm the outage only after the kit has built (and possibly trained) every
  // component, so the injected fault hits the stream, not model training.
  if (fail_local) {
    failpoint::EnableAfter(
        "emd.twitter_nlp.process",
        Status::Internal("injected persistent local EMD outage (--fail-local)"));
    std::printf("Injected a persistent outage into the primary local system; "
                "expect breaker trip + NP-chunker fallback.\n");
  }

  std::optional<DeadLetterQueue> dlq;
  if (!dlq_path.empty()) {
    Result<DeadLetterQueue> opened = DeadLetterQueue::Open(dlq_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open dead-letter queue: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    dlq.emplace(std::move(opened).value());
    globalizer.set_dead_letter_queue(&*dlq);
  }

  if (resume) {
    const Status st = globalizer.RestoreCheckpoint(checkpoint_path);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot resume: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Resumed from %s at tweet cursor %zu\n\n",
                checkpoint_path.c_str(), globalizer.processed_tweets());
  }

  std::printf("%8s %12s %10s %8s %8s %8s\n", "batch", "tweets-seen",
              "candidates", "P", "R", "F1");

  // The bounded ingest queue sits between the source and the execution
  // cycles: pump tweets in until Push signals backpressure, then drain one
  // batch. Admission decisions are auditable in the queue stats.
  IngestQueue queue({.capacity = static_cast<size_t>(queue_capacity)});
  size_t cursor = globalizer.processed_tweets();
  size_t seen = cursor;
  int batch_no = static_cast<int>(seen / batch_size);
  GlobalizerOutput out;
  while (cursor < stream.size() || !queue.empty()) {
    while (cursor < stream.size()) {
      Status st = queue.Push(stream.tweets[cursor]);
      if (st.IsResourceExhausted()) break;  // backpressure: drain first
      if (!st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        return 1;
      }
      ++cursor;
    }

    const std::vector<AnnotatedTweet> batch = queue.PopBatch(batch_size);
    if (batch.empty()) continue;
    seen += batch.size();
    Status st = globalizer.ProcessBatch(batch);
    if (!st.ok()) {
      std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ++batch_no;

    // Checkpoint between execution cycles: a crash after this line loses at
    // most the next batch, never corrupts the stream state.
    if (!checkpoint_path.empty()) {
      st = globalizer.SaveCheckpoint(checkpoint_path);
      if (!st.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }

    // Evaluate on the prefix processed so far (finalize is re-runnable; the
    // verdicts reflect evidence accumulated up to this cycle).
    out = globalizer.Finalize().value();
    Dataset prefix;
    prefix.tweets.assign(stream.tweets.begin(), stream.tweets.begin() + seen);
    PrfScores s = EvaluateMentions(prefix, out.mentions);
    std::printf("%8d %12zu %10d %8.3f %8.3f %8.3f\n", batch_no, seen,
                out.num_candidates, s.precision, s.recall, s.f1);

    // Periodic snapshot for scrapers; the exported files are whole-file
    // atomic, so a concurrent reader never sees a torn exposition.
    if (!metrics_out.empty() && batch_no % metrics_interval == 0) {
      if (!DumpMetrics(metrics_out)) return 1;
    }

    if (kill_after >= 0 && batch_no >= kill_after) {
      std::printf("\nSimulated crash after batch %d; checkpoint saved to %s.\n"
                  "Re-run with --resume to continue the stream.\n",
                  batch_no, checkpoint_path.c_str());
      return 0;
    }
  }
  // Re-finalize so the digest reflects restored state even when the
  // checkpoint already covered the whole stream (no batches left to run).
  out = globalizer.Finalize().value();
  const IngestQueueStats& qs = queue.stats();
  std::printf("\nFinal mention digest: %08x\n", MentionDigest(out));
  std::printf("Final state digest: %08x\n", StateDigest(globalizer));
  std::printf("%s\n", out.summary.c_str());
  std::printf("queue: accepted=%llu rejected=%llu shed=%llu popped=%llu "
              "high_watermark=%llu memory_rejected=%llu\n",
              static_cast<unsigned long long>(qs.accepted),
              static_cast<unsigned long long>(qs.rejected),
              static_cast<unsigned long long>(qs.shed),
              static_cast<unsigned long long>(qs.popped),
              static_cast<unsigned long long>(qs.high_watermark),
              static_cast<unsigned long long>(qs.memory_rejected));
  if (!dlq_path.empty() && out.num_dead_lettered > 0) {
    std::printf("%d tweet(s) dead-lettered to %s; re-run with --replay-dlq "
                "--dlq %s to reprocess them.\n",
                out.num_dead_lettered, dlq_path.c_str(), dlq_path.c_str());
  }
  // Final snapshot covers the last Finalize (classifier span) too.
  if (!metrics_out.empty()) {
    if (!DumpMetrics(metrics_out)) return 1;
    std::printf("metrics snapshots written to %s.prom and %s.json\n",
                metrics_out.c_str(), metrics_out.c_str());
  }
  std::printf("Entity verdicts sharpen as mention evidence pools across "
              "batches — the incremental computation of SIII.\n");
  return 0;
}
