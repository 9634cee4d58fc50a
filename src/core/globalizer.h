// Globalizer — the EMD Globalizer framework of §III/§V.
//
// Orchestrates one execution cycle per tweet batch:
//   (1) Local EMD on every sentence (any LocalEmdSystem, inserted as a black
//       box), kept in the batch's own stage: its seed mentions register
//       candidates in the CTrie, and a deep system's entity-aware token
//       embeddings are read only by step (3), never stored;
//   (2) Candidate Mention Extraction: a re-scan of the batch against the
//       CTrie finds all mentions of every candidate discovered so far;
//   (3) local candidate embeddings (Entity Phrase Embedder for deep systems,
//       one fused call per tweet; 6-dim syntactic embedding for non-deep)
//       pooled incrementally into global candidate embeddings in the
//       CandidateBase;
//   (4) the Entity Classifier separates entities from false positives; all
//       mentions of entity-labelled candidates form the final output.
// Each tweet is appended to the TweetBase once, with its final mentions, at
// the merge barrier of steps (2)+(3).
//
// Modes support the ablation of Fig. 6: local-only, local + mention
// extraction (no classifier), and the full framework.
//
// Fault tolerance (the deployment model of §III only makes sense if a
// long-running stream survives component faults):
//   * per-tweet isolation — a tweet whose Local EMD fails is quarantined
//     (recorded with no mentions, counted in `num_quarantined`), not fatal;
//   * graceful degradation — when a tweet's Entity Phrase Embedder call
//     fails, each of its mentions falls back to raw mean-pooled token
//     embeddings (each counted in `num_degraded`); a failing
//     Entity Classifier degrades kFull to mention-extraction output for the
//     remaining cycle (`classifier_degraded`), each with a logged warning;
//   * crash-safe checkpoint/restore — SaveCheckpoint/RestoreCheckpoint
//     persist the accumulated global state (CTrie, CandidateBase, TweetBase,
//     processed-tweet cursor) in a checksummed, versioned, atomically
//     written file, so a stream killed between cycles resumes with
//     byte-identical final output.

#ifndef EMD_CORE_GLOBALIZER_H_
#define EMD_CORE_GLOBALIZER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/entity_classifier.h"
#include "core/global_state.h"
#include "core/memory_governor.h"
#include "core/phrase_embedder.h"
#include "core/tweet_base.h"
#include "emd/local_emd_system.h"
#include "obs/metrics.h"
#include "stream/annotated_tweet.h"
#include "stream/dead_letter.h"
#include "stream/ingest_queue.h"
#include "util/circuit_breaker.h"
#include "util/deadline.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace emd {

/// Failure-handling runtime configuration. Defaults are deliberately inert
/// (single attempt, no deadlines) so the pipeline behaves exactly like its
/// non-resilient self unless a deployment opts in; the breaker only ever
/// engages after repeated failures.
struct ResilienceOptions {
  /// Per-stage retry policies (max_attempts = 1 disables retrying).
  RetryPolicy local_emd;
  /// Covers one tweet's phrase-embedder call, which embeds all of its
  /// mentions: attempts and attempt_deadline_nanos apply per tweet.
  RetryPolicy phrase_embedder;
  RetryPolicy classifier;
  RetryPolicy checkpoint_io;

  /// Per-attempt time budget for one Local EMD call, measured on `clock`.
  /// 0 disables the deadline.
  uint64_t local_deadline_nanos = 0;

  /// Circuit breaker guarding the primary local EMD system. While open,
  /// tweets route to the fallback system (see Globalizer::set_fallback_system)
  /// instead of being attempted — or quarantine when none is configured.
  CircuitBreakerOptions breaker;

  /// Seed for the retry jitter RNG (deterministic backoff schedules).
  uint64_t retry_seed = 0x42D;

  /// Injectable time source; nullptr = Clock::Real(). Tests pass a FakeClock
  /// so backoff and breaker cooldowns run instantly.
  Clock* clock = nullptr;
};

struct GlobalizerOptions {
  /// Tweets per execution cycle (§III). One cycle per dataset by default in
  /// benchmarks; smaller batches exercise incremental streaming.
  size_t batch_size = 2048;

  enum class Mode {
    kLocalOnly,          // Fig. 6 bottom curve
    kMentionExtraction,  // Fig. 6 middle curve: recover mentions, no classifier
    kFull,               // the framework
  };
  Mode mode = Mode::kFull;

  /// A candidate's global embedding is only trusted for a confident
  /// *non-entity* verdict once it pools at least this many mentions (§V-C:
  /// "a candidate's global embedding ... is more reliable when its frequency
  /// of occurrence is high"). Below the floor, beta verdicts are downgraded
  /// to ambiguous unless the classifier is extremely confident
  /// (probability <= low_evidence_beta).
  int min_evidence_mentions = 4;
  float low_evidence_beta = 0.05f;

  /// Worker threads of the parallel batch execution engine. 1 (the default)
  /// keeps ProcessBatch fully serial. With N > 1 a fixed pool of N workers
  /// fans the Local EMD stage (one contiguous chunk of the batch per lane)
  /// and the per-tweet candidate mention extraction and local embedding
  /// across threads; all shared-state updates (CTrie growth, CandidateBase
  /// pooling, TweetBase append) happen in a single-threaded merge in tweet
  /// order, so parallel output is bit-identical to serial. Local EMD only
  /// parallelizes when the system is concurrent_safe() or per-worker
  /// replicas were provided via set_worker_systems; the extraction/embedding
  /// stage parallelizes always.
  int num_threads = 1;

  /// Deadline / retry / circuit-breaker configuration (see ResilienceOptions).
  ResilienceOptions resilience;

  /// Memory governance for unbounded streams: byte budget with watermark
  /// eviction, decayed pooling, periodic γ-band re-classification (see
  /// MemoryGovernorOptions). Defaults are fully inert — no budget, no decay —
  /// so output is bit-identical to ungoverned builds unless a deployment
  /// opts in.
  MemoryGovernorOptions memory;

  /// Shards of the global candidate state (docs/SHARDING.md). Candidates are
  /// hashed to shard-local CTrie + CandidateBase partitions; ids, pooling
  /// order, and output stay bit-identical at any shard count (the default 1
  /// is byte-for-byte the historical single structure). With num_threads > 1
  /// the merge pools different shards on different workers.
  int shard_count = 1;

  /// Publish per-shard gauges (emd_shard_candidates / emd_shard_bytes) at
  /// each batch barrier. A MultiStreamService turns this off per stream and
  /// publishes service-wide aggregates instead, so concurrent streams do not
  /// fight over the same gauge.
  bool publish_shard_gauges = true;

  /// Keep every mention embedding in its candidate record beside the pooled
  /// sum (classifier training reads them; BuildClassifierExamples turns it
  /// on). Off by default: serving keeps one pooled row per candidate.
  /// Configuration, not checkpointed state.
  bool retain_mention_embeddings = false;
};

/// A read-only snapshot of the emitted mention table: the final mention
/// spans of every tweet processed when Finalize returned it (dense index =
/// order of processing). The Globalizer keeps the table between calls and
/// updates only what changed; a snapshot shares it, and the Globalizer
/// copies the table before its next write while any snapshot still holds it,
/// so a snapshot never changes. Reads as a const vector of span lists:
/// indexing, iteration and an implicit conversion. Safe to read from any
/// thread while the Globalizer keeps finalizing.
class EmittedMentions {
 public:
  using Table = std::vector<std::vector<TokenSpan>>;
  using const_iterator = Table::const_iterator;
  using iterator = const_iterator;

  EmittedMentions() = default;
  explicit EmittedMentions(std::shared_ptr<const Table> table)
      : table_(std::move(table)) {}

  size_t size() const { return table().size(); }
  bool empty() const { return table().empty(); }
  const_iterator begin() const { return table().begin(); }
  const_iterator end() const { return table().end(); }
  const std::vector<TokenSpan>& operator[](size_t i) const {
    return table()[i];
  }
  operator const Table&() const {  // NOLINT(google-explicit-constructor)
    return table();
  }
  bool operator==(const EmittedMentions& o) const {
    return table() == o.table();
  }
  bool operator==(const Table& o) const { return table() == o; }

 private:
  const Table& table() const {
    static const Table kEmpty;
    return table_ != nullptr ? *table_ : kEmpty;
  }

  std::shared_ptr<const Table> table_;
};

/// Final framework output plus diagnostics.
struct GlobalizerOutput {
  /// Final mention spans per tweet (dense index = order of processing): a
  /// snapshot of the Globalizer's emitted table, unchanged by later calls.
  EmittedMentions mentions;

  int num_candidates = 0;
  int num_entity = 0;
  int num_non_entity = 0;
  int num_ambiguous = 0;
  double local_seconds = 0;
  double global_seconds = 0;

  /// Tweets whose Local EMD failed and were isolated (no mentions emitted,
  /// no candidates registered) instead of aborting the stream.
  int num_quarantined = 0;
  /// Mentions of a deep system whose embedding degraded: the mean-pool
  /// fallback after their tweet's Entity Phrase Embedder call failed, or no
  /// embedding for a span the token embeddings do not cover.
  int num_degraded = 0;
  /// True when a failing Entity Classifier degraded kFull output to
  /// mention-extraction for this cycle. Only a Finalize that has candidates
  /// to score calls the classifier: with no new evidence since the last
  /// verdicts it stays false even while the classifier is failing.
  bool classifier_degraded = false;

  /// Transient-failure retries across all stages (local EMD, phrase
  /// embedder, classifier, checkpoint IO).
  int num_retries = 0;
  /// Tweets processed by the configured fallback system because the primary
  /// system's circuit breaker was open (or failed its half-open probe).
  int num_fallback = 0;
  /// Quarantined tweets persisted to the dead-letter queue for replay.
  int num_dead_lettered = 0;
  /// Circuit-breaker transitions to open / recoveries to closed.
  int breaker_trips = 0;
  int breaker_recoveries = 0;

  /// Ingest-edge admission accounting, copied from the queue attached via
  /// set_ingest_queue (zero when no queue is attached). Distinct on purpose:
  /// admission rejections and backpressure refusals are retried by the
  /// producer (nothing lost), shed tweets are gone.
  uint64_t num_admission_rejected = 0;  // refused upstream with RETRY_AFTER
  uint64_t num_queue_rejected = 0;      // Push backpressure refusals
  uint64_t num_queue_shed = 0;          // PushOrShed drops
  /// Rejections caused specifically by memory pressure (RETRY_AFTER with
  /// reason=memory_pressure), counted apart from queue-full sheds so the
  /// operator report shows which limit fired.
  uint64_t num_memory_rejected = 0;

  /// Memory-governance accounting (zero when governance is off).
  uint64_t num_evicted = 0;        // candidates evicted
  uint64_t num_pruned_nodes = 0;   // trie nodes freed by pruning
  uint64_t num_reclassified = 0;   // γ-band labels flipped by re-scoring
  uint64_t governed_bytes = 0;     // bytes accounted at the last batch
  int memory_pressure = 0;         // MemoryPressure at Finalize time

  /// One-line operator report: "resilience: retries=.. breaker_trips=.. ...".
  std::string ResilienceSummary() const;

  /// The rendered ResilienceSummary() at Finalize time, returned so library
  /// embedders get the operator report structurally instead of scraping logs.
  std::string summary;

  /// Point-in-time copy of the process-global metrics registry taken by
  /// Finalize — per-stage latency histograms, pipeline counters, queue and
  /// breaker state — exportable via obs::ToPrometheusText / obs::ToBenchJson.
  obs::MetricsSnapshot metrics;
};

class Globalizer {
 public:
  /// `system` is required. `phrase_embedder` is required iff the system is
  /// deep and mode is not kLocalOnly. `classifier` is required for kFull.
  /// All pointers must outlive the Globalizer.
  Globalizer(LocalEmdSystem* system, const PhraseEmbedder* phrase_embedder,
             const EntityClassifier* classifier, GlobalizerOptions options = {});

  /// Runs one execution cycle on a batch of tweets. Per-tweet faults are
  /// absorbed (quarantine / degradation, see the class comment); a non-OK
  /// return means the whole batch could not be processed and nothing of it
  /// was recorded.
  Status ProcessBatch(std::span<const AnnotatedTweet> batch);

  /// Classifies candidates with the global embeddings accumulated so far and
  /// produces the framework's outputs for everything processed. Re-runnable;
  /// a failing classifier degrades the output rather than erroring.
  ///
  /// Incremental: only candidates created or pooled into since their last
  /// verdict are re-scored (a verdict is a pure function of the pooled
  /// embedding, count and length, and decay is applied at pooling time).
  /// The emitted table is kept between calls: a call appends the tweets
  /// processed since the last one and re-emits only the stored tweets that
  /// mention a candidate whose verdict crossed the output rule, found
  /// through the TweetBase postings after one byte-per-gid scan of the label
  /// column (the whole table is rebuilt when classification turns on or
  /// off: a degraded call, or the one after it). Cost is O(changed
  /// candidates + gids + new tweets + tweets of flipped candidates), and the
  /// output is identical to re-scoring and re-emitting everything — at any
  /// Finalize cadence.
  /// Edge contract: with no changed candidates the classifier is not called
  /// at all, so a failing classifier cannot degrade that call — it returns
  /// the previous labels with classifier_degraded == false. The classifier
  /// must not be retrained while the Globalizer holds verdicts from it.
  Result<GlobalizerOutput> Finalize();

  /// Convenience: batches the dataset, processes every batch, finalizes.
  Result<GlobalizerOutput> Run(const Dataset& dataset);

  /// Persists the accumulated global state to `path`: versioned binary
  /// layout, CRC32 footer, atomic write-temp-then-rename publish. Valid only
  /// between execution cycles (token embeddings in flight are not captured).
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores state saved by SaveCheckpoint into this (freshly constructed)
  /// Globalizer. The checkpoint's mode must match `options.mode`; corrupt or
  /// truncated files are rejected with kCorruption and leave the Globalizer
  /// untouched. Resume the stream from `processed_tweets()`.
  Status RestoreCheckpoint(const std::string& path);

  /// Tweets processed so far — the stream cursor to resume from after a
  /// RestoreCheckpoint.
  size_t processed_tweets() const { return tweets_.size(); }

  /// Cheap stand-in local system used while the primary's circuit breaker
  /// is open (and for the tweet that fails a half-open probe). Must outlive
  /// the Globalizer. Without one, breaker-rejected tweets quarantine.
  void set_fallback_system(LocalEmdSystem* fallback) { fallback_system_ = fallback; }

  /// Persistent queue receiving every quarantined tweet for later replay.
  /// Must outlive the Globalizer. Append failures are logged, never fatal.
  void set_dead_letter_queue(DeadLetterQueue* dlq) { dead_letter_ = dlq; }

  /// Bounded ingest queue feeding this pipeline, if any. Must outlive the
  /// Globalizer. Finalize copies its admission/shedding stats into
  /// GlobalizerOutput so the operator report distinguishes backpressure,
  /// admission rejection, and shedding.
  void set_ingest_queue(const IngestQueue* queue) { ingest_queue_ = queue; }

  /// Per-worker replicas of the local system, enabling parallel Local EMD for
  /// systems that are not concurrent_safe() (the deep nets cache forward
  /// activations). Replica i is driven exclusively by worker slot i; replicas
  /// must be behaviourally identical to the primary (same weights) and
  /// outlive the Globalizer. An empty vector (default) means: share `system`
  /// across workers when it is concurrent_safe(), else run Local EMD
  /// serially.
  void set_worker_systems(std::vector<LocalEmdSystem*> replicas) {
    worker_systems_ = std::move(replicas);
  }

  /// Worker lanes the last ProcessBatch used for its Local EMD stage
  /// (diagnostic; 1 = serial).
  int last_local_lanes() const { return last_local_lanes_; }

  const CircuitBreaker& breaker() const { return breaker_; }

  /// Current memory-pressure state, readable from any thread (the serving
  /// edge polls it: soft tightens admission, hard sheds with RETRY_AFTER).
  MemoryPressure memory_pressure() const { return governor_.pressure(); }
  const MemoryGovernor& memory_governor() const { return governor_; }

  const TweetBase& tweet_base() const { return tweets_; }
  /// The sharded global candidate state (gid-addressed facade).
  const ShardedGlobalState& global_state() const { return state_; }

 private:
  /// One tweet's local stage, computed off the shared state and kept with
  /// its batch until the merge barrier appends the tweet: the record, its
  /// token embeddings (read by the re-scan's embedding step) and in-range
  /// Local EMD spans, plus the resilience outcome.
  struct LocalStage {
    TweetRecord record;
    Mat token_embeddings;
    std::vector<RecordedMention> mentions;
    Status status = Status::OK();
    bool via_fallback = false;
    int retries = 0;
  };

  /// One tweet's re-scan stage: extracted mentions and the row of each one's
  /// local embedding in RescanScratch::rows of lane `lane` (rows[e] for
  /// extracted[e]; -1 contributes nothing), pooled by the deterministic
  /// merge. `retries` and `degraded` count the tweet's embedding step.
  struct ExtractStage {
    std::vector<ExtractedMention> extracted;
    std::vector<int> rows;
    int lane = 0;
    int retries = 0;
    int degraded = 0;
  };

  /// Per-lane re-scan scratch, reused across tweets and batches: the
  /// candidate scan's buffers, one tweet's in-range mention spans, their
  /// fused phrase embeddings, and `rows`, the batch's local mention
  /// embeddings (EmbeddingDim() floats each), read by the merge's drain.
  struct RescanScratch {
    ShardedGlobalState::ScanScratch scan;
    std::vector<TokenSpan> spans;
    Mat fused;
    std::vector<float> rows;
  };

  /// A queued pooling op: ShardedGlobalState::AddMention's arguments.
  struct PoolOp {
    int gid;
    uint64_t pos;
    std::span<const float> row;
  };

  /// An empty global state with the options' shard count and pooling
  /// policy; the constructor and RestoreCheckpoint both start from one.
  ShardedGlobalState NewGlobalState() const;

  /// Local mention embedding width: out_dim() or kNumSyntacticCategories.
  size_t EmbeddingDim() const;

  /// Step 3 for one tweet: one local embedding per extracted mention of
  /// `stage`, as a row of scratch->rows, under one `phrase_embed` span.
  /// Thread-safe (reads only shared-immutable state; `arena` and `scratch`
  /// belong to the calling lane). A non-deep system embeds each mention
  /// syntactically. A deep one embeds the tweet's in-range spans in one
  /// TryEmbedSpans call under the phrase_embedder retry policy, jittered by
  /// TaskRng(tweet_index); if that still fails, each of those mentions
  /// degrades to its raw mean pool fitted to out_dim (one warning per
  /// tweet). An out-of-range span degrades to no embedding; a tweet without
  /// token embeddings (a non-deep fallback served it) contributes none and
  /// degrades nothing. Degraded mentions are counted in stage->degraded.
  void EmbedMentions(const std::vector<Token>& tokens,
                     const Mat& token_embeddings, size_t tweet_index,
                     ForwardArena* arena, RescanScratch* scratch,
                     ExtractStage* stage) const;

  /// Local EMD under the full escalation ladder: deadline + retry on
  /// `primary` while the (mutex-guarded) breaker admits, fallback routing
  /// while it is open. Thread-safe given a caller-owned rng; `via_fallback`
  /// reports which system produced the result.
  Result<LocalEmdResult> LocalEmdResilient(const AnnotatedTweet& tweet,
                                           LocalEmdSystem* primary, Rng* rng,
                                           int* retries, bool* via_fallback);

  /// The one LocalEmdResult -> LocalStage conversion, shared by the happy
  /// and resilient halves of the local stage: identity comes from the
  /// tweet; a failed `local` quarantines the record, a successful one
  /// contributes its token embeddings and every in-range mention span.
  static void FillLocalStage(const AnnotatedTweet& tweet,
                             Result<LocalEmdResult> local, LocalStage* stage);

  /// The verdict rule of every classify pass: α/β thresholds on
  /// `probability`, then the low-evidence rule — a kNonEntity verdict on a
  /// candidate pooled from fewer than min_evidence_mentions mentions whose
  /// probability exceeds low_evidence_beta is kept kAmbiguous.
  CandidateLabel LabelFor(float probability, const CandidateRecord& rec) const;

  /// The one classify pass, shared by Finalize and the γ-band sweep. Scores
  /// the dirty candidates (only the ambiguous/unlabeled ones when
  /// `gamma_band_only`) in ascending gid order with one TryProbabilities
  /// call, retried whole under `retry`. Labels go through LabelFor and
  /// ShardedGlobalState::SetLabel; `*flipped` counts labels that changed.
  /// All or nothing: a failed call (returned) changes no label, probability
  /// or dirty mark, so the next pass re-scores every row. With no dirty rows
  /// the classifier is never called.
  Status ClassifyDirty(bool gamma_band_only, const RetryPolicy& retry,
                       size_t* flipped);

  /// Step 1, the one local stage: splits the batch into min(lanes, n)
  /// contiguous chunks, chunk c driven by LaneSystem(c) with
  /// lane_arenas_[c] (in parallel when there is more than one). On the happy
  /// path — decided once per batch: no local deadline, no armed failpoint,
  /// breaker closed — each chunk is one ProcessBatched call, whatever the
  /// system. Otherwise each tweet of the chunk runs LocalEmdResilient with
  /// TaskRng(index). A single-threaded loop then merges in tweet order,
  /// replaying the breaker bookkeeping on the happy path. Tweet i's stage
  /// lands in staged[i] (its token embeddings are empty when quarantined or
  /// served by a non-deep fallback).
  void RunLocalStage(std::span<const AnnotatedTweet> batch, size_t first_index,
                     int lanes, std::span<LocalStage> staged);

  /// Folds a computed local stage's outcome into the counters and the
  /// dead-letter queue, in tweet order.
  void MergeLocalStage(const AnnotatedTweet& tweet, const LocalStage& stage);

  /// Steps 2+3 over `batch`, whose tweets become the records from
  /// `first_index` on: registers their seed candidates, re-scans them
  /// against every known candidate, embeds the matches into the lanes' rows
  /// and, at the merge barrier, appends each tweet to the TweetBase with its
  /// final mentions and queues its pooling ops, one shard bucket each.
  /// Tokens are read from `batch` itself, seed spans, quarantine flags and
  /// token embeddings from `staged`. Timed as the `ctrie_extract` span.
  void ExtractAndPool(std::span<const AnnotatedTweet> batch,
                      std::span<const LocalStage> staged, size_t first_index);

  /// Deterministic per-tweet RNG for retry jitter: the draws depend on the
  /// tweet's stream index only, not on the lane or chunk that runs it.
  Rng TaskRng(size_t tweet_index) const;

  /// Worker lanes usable for the Local EMD stage (replicas / concurrent-safe
  /// sharing), and the system slot `lane` should drive.
  int LocalLanes() const;
  LocalEmdSystem* LaneSystem(int lane);

  /// Creates the worker pool on first parallel use.
  void EnsurePool();

  /// Appends a quarantined tweet to the dead-letter queue, if one is set.
  void DeadLetter(const AnnotatedTweet& tweet, const Status& reason);

  /// The emitted table, and how many outputs of Finalize still hold it. An
  /// output's hold ends when its last copy is dropped, with a release
  /// decrement; Finalize writes the rows in place only after an acquire
  /// read of zero, so every dropped output's reads come first, and copies
  /// them otherwise.
  struct KeptTable {
    EmittedMentions::Table rows;
    std::atomic<int> holders{0};
  };

  /// The outputs step (§V-C) on the kept table: every stored mention when
  /// `classify` is off, else those whose candidate's label Emits. Brings
  /// emitted_ up to date with the TweetBase and the label column (see
  /// Finalize), copying it first if an earlier output still shares it.
  void EmitChanges(bool classify);

  /// Record `index`'s emitted spans in stored order, sized exactly (no
  /// allocation when none emits).
  std::vector<TokenSpan> EmittedSpans(size_t index, bool classify) const;

  /// Re-scores γ-band (ambiguous/unlabeled) candidates with their current
  /// decayed global embeddings; returns how many labels flipped. Invoked by
  /// the memory governor on its reclassification interval, at the batch
  /// barrier. Only dirty candidates are scored — a clean label already
  /// reflects its evidence, so it cannot flip. A classifier failure logs and
  /// stops the sweep (never fatal).
  size_t ReclassifyAmbiguous();

  LocalEmdSystem* system_;
  const PhraseEmbedder* phrase_embedder_;
  const EntityClassifier* classifier_;
  GlobalizerOptions options_;

  ShardedGlobalState state_;
  TweetBase tweets_;
  MemoryGovernor governor_;  // must follow the stores it governs (init order)
  // Wall time of the local stage and of the global steps, summed over the
  // stream: ProcessBatch's steps 2+3 (registration, re-scan, the TweetBase
  // append and pooling at the merge barrier, and the memory governor) and
  // Finalize's classify + emit. kLocalOnly runs no global step.
  double local_seconds_ = 0;
  double global_seconds_ = 0;

  // Resilience runtime. clock_ must precede breaker_ (init order).
  Clock* clock_;
  mutable Rng retry_rng_;
  CircuitBreaker breaker_;
  LocalEmdSystem* fallback_system_ = nullptr;
  DeadLetterQueue* dead_letter_ = nullptr;
  const IngestQueue* ingest_queue_ = nullptr;

  // Parallel batch engine: lazily created fixed worker pool, optional
  // per-worker system replicas, and the mutex that serializes breaker access
  // from worker threads (the breaker itself is not thread-safe).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<LocalEmdSystem*> worker_systems_;
  std::mutex breaker_mu_;
  int last_local_lanes_ = 1;

  // Forward-pass planner scratch, one arena per worker lane (arena 0 doubles
  // as the serial lane's). Arenas grow to the steady-state shape on the first
  // batch and are reused allocation-free afterwards.
  std::vector<ForwardArena> lane_arenas_;

  // Re-scan scratch, one per worker lane (slot-exclusive under
  // ParallelFor), reused across tweets and batches so the extraction and
  // embedding stage allocates no scan or span buffers in steady state.
  std::vector<RescanScratch> rescan_scratch_;

  // Merge-barrier scratch: one tweet's final mention list, appended with it
  // to the TweetBase; and one bucket of pooling ops per shard.
  std::vector<RecordedMention> merged_mentions_;
  std::vector<std::vector<PoolOp>> pool_ops_;

  // The emitted table Finalize keeps between calls: one span list per
  // tweet, for the first emitted_->rows.size() tweets, built with
  // classification on or off as emitted_classify_ says; with it on,
  // shadow_emits_ holds Emits(label) per gid as the table has it. Shared
  // with the outputs Finalize returned (copy-on-write). Not checkpointed: a
  // restored Globalizer starts with an empty table and emits every tweet
  // once.
  std::shared_ptr<KeptTable> emitted_ = std::make_shared<KeptTable>();
  bool emitted_classify_ = false;
  std::vector<uint8_t> shadow_emits_;

  // Fault-tolerance state; persisted by SaveCheckpoint. num_retries_ is
  // mutable because the const SaveCheckpoint retries its IO.
  int num_quarantined_ = 0;
  int num_degraded_ = 0;
  bool classifier_degraded_ = false;
  mutable int num_retries_ = 0;
  int num_fallback_ = 0;
  int num_dead_lettered_ = 0;
  // Breaker counters restored from a checkpoint; the live breaker restarts
  // closed, so totals are baseline + breaker_ counters.
  int restored_breaker_trips_ = 0;
  int restored_breaker_recoveries_ = 0;
};

}  // namespace emd

#endif  // EMD_CORE_GLOBALIZER_H_
