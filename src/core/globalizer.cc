#include "core/globalizer.h"

#include <algorithm>
#include <sstream>

#include "core/syntactic_embedder.h"
#include "nn/kernels/kernels.h"
#include "obs/trace.h"
#include "stream/batching.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace emd {
namespace {

/// Pipeline-wide counters, registered once and shared by every Globalizer in
/// the process (lifetime totals, like the rest of the registry). The hot path
/// touches only the cached pointers.
struct PipelineCounters {
  obs::Counter* tweets = obs::Metrics().GetCounter(
      "emd_tweets_processed_total",
      "Tweets run through an execution cycle (including quarantined)");
  obs::Counter* batches = obs::Metrics().GetCounter(
      "emd_batches_total", "Execution cycles (ProcessBatch calls) completed");
  obs::Counter* mentions = obs::Metrics().GetCounter(
      "emd_mentions_extracted_total",
      "Candidate mentions recovered by the CTrie re-scan");
  obs::Counter* quarantined = obs::Metrics().GetCounter(
      "emd_tweets_quarantined_total",
      "Tweets isolated after their Local EMD failed");
  obs::Counter* degraded = obs::Metrics().GetCounter(
      "emd_embeddings_degraded_total",
      "Mention embeddings produced by the mean-pool fallback");
  obs::Counter* retries = obs::Metrics().GetCounter(
      "emd_retries_total",
      "Transient-failure retries across all pipeline stages");
  obs::Counter* fallback = obs::Metrics().GetCounter(
      "emd_fallback_tweets_total",
      "Tweets processed by the fallback system while the breaker was open");
  obs::Counter* dead_lettered = obs::Metrics().GetCounter(
      "emd_dead_lettered_total",
      "Quarantined tweets persisted to the dead-letter queue");
  obs::Gauge* candidates = obs::Metrics().GetGauge(
      "emd_candidate_base_size",
      "Candidates registered in the CTrie/CandidateBase so far");
  obs::Counter* classifier_rows = obs::Metrics().GetCounter(
      "emd_classifier_rows_total",
      "Candidate rows scored by the Entity Classifier (Finalize and the "
      "gamma-band sweep; only candidates whose evidence changed)");
};

const PipelineCounters& Counters() {
  static const PipelineCounters counters;
  return counters;
}

/// The output rule (§V-C): entity mentions are emitted, and so are
/// ambiguous ones — they await more evidence, and the local system suggested
/// them as entities in the first place. Non-entity and unlabeled mentions
/// are dropped.
bool Emits(CandidateLabel label) {
  return label == CandidateLabel::kEntity ||
         label == CandidateLabel::kAmbiguous;
}

}  // namespace

std::string GlobalizerOutput::ResilienceSummary() const {
  std::ostringstream os;
  os << "resilience: retries=" << num_retries
     << " breaker_trips=" << breaker_trips
     << " breaker_recoveries=" << breaker_recoveries
     << " fallback=" << num_fallback << " quarantined=" << num_quarantined
     << " degraded=" << num_degraded
     << " classifier_degraded=" << (classifier_degraded ? 1 : 0)
     << " dead_lettered=" << num_dead_lettered
     << " admission_rejected=" << num_admission_rejected
     << " queue_backpressure=" << num_queue_rejected
     << " queue_shed=" << num_queue_shed
     << " memory_rejected=" << num_memory_rejected;
  if (governed_bytes > 0 || num_evicted > 0 || num_trimmed > 0 ||
      num_reclassified > 0) {
    os << " | memory: pressure="
       << MemoryPressureName(static_cast<MemoryPressure>(memory_pressure))
       << " governed_bytes=" << governed_bytes << " evicted=" << num_evicted
       << " pruned_nodes=" << num_pruned_nodes << " trimmed=" << num_trimmed
       << " reclassified=" << num_reclassified;
  }
  return os.str();
}

Globalizer::Globalizer(LocalEmdSystem* system, const PhraseEmbedder* phrase_embedder,
                       const EntityClassifier* classifier, GlobalizerOptions options)
    : system_(system),
      phrase_embedder_(phrase_embedder),
      classifier_(classifier),
      options_(options),
      state_(NewGlobalState()),
      governor_(&state_, &tweets_, options.memory),
      clock_(options.resilience.clock != nullptr ? options.resilience.clock
                                                 : Clock::Real()),
      retry_rng_(options.resilience.retry_seed),
      breaker_(options.resilience.breaker, clock_) {
  EMD_CHECK(system != nullptr);
  EMD_CHECK_GE(options_.shard_count, 1);
  if (options_.mode != GlobalizerOptions::Mode::kLocalOnly && system_->is_deep()) {
    EMD_CHECK(phrase_embedder != nullptr)
        << "deep local EMD requires an Entity Phrase Embedder";
    EMD_CHECK_EQ(phrase_embedder->in_dim(), system_->embedding_dim());
  }
  if (options_.mode == GlobalizerOptions::Mode::kFull) {
    EMD_CHECK(classifier != nullptr) << "full mode requires an Entity Classifier";
  }
}

ShardedGlobalState Globalizer::NewGlobalState() const {
  return ShardedGlobalState(options_.shard_count,
                            options_.memory.decay_half_life_tweets,
                            options_.retain_mention_embeddings);
}

size_t Globalizer::EmbeddingDim() const {
  return system_->is_deep() ? phrase_embedder_->out_dim() : kNumSyntacticCategories;
}

void Globalizer::EmbedMentions(const std::vector<Token>& tokens,
                               const Mat& token_embeddings, size_t tweet_index,
                               ForwardArena* arena, RescanScratch* scratch,
                               ExtractStage* stage) const {
  const std::vector<ExtractedMention>& extracted = stage->extracted;
  if (extracted.empty()) return;
  EMD_TRACE_SPAN("phrase_embed");
  stage->rows.assign(extracted.size(), -1);
  // A deep primary whose tweet was actually processed by a non-deep fallback
  // has no token embeddings; its mentions survive with no embedding
  // contribution.
  const bool deep = system_->is_deep();
  const Mat& tok = token_embeddings;
  if (deep && tok.empty()) return;
  // Each embedded mention gets the next row of the lane's buffer, so the
  // tweet's rows are contiguous from `first`, in `spans` order.
  const size_t dim = EmbeddingDim();
  std::vector<float>& rows = scratch->rows;
  const size_t first = rows.size() / dim;
  std::vector<TokenSpan>& spans = scratch->spans;
  spans.clear();
  for (size_t e = 0; e < extracted.size(); ++e) {
    const TokenSpan& span = extracted[e].span;
    // A span the token embeddings do not cover degrades to no contribution;
    // the mention itself survives.
    if (deep && (span.begin >= span.end ||
                 span.end > static_cast<size_t>(tok.rows()))) {
      ++stage->degraded;
      continue;
    }
    stage->rows[e] = static_cast<int>(first + spans.size());
    spans.push_back(span);
  }
  rows.resize((first + spans.size()) * dim, 0.f);
  float* out = rows.data() + first * dim;
  if (!deep) {
    const bool casing_informative = SentenceCasingInformative(tokens);
    for (size_t k = 0; k < spans.size(); ++k) {
      SyntacticEmbedding(
          ClassifyMentionSyntax(tokens, spans[k], casing_informative),
          {out + k * dim, dim});
    }
    return;
  }
  if (spans.empty()) return;

  Rng rng = TaskRng(tweet_index);
  RetryStats retry_stats;
  const Status embedded = RunWithRetry(
      options_.resilience.phrase_embedder, clock_, &rng,
      [&] {
        return phrase_embedder_->TryEmbedSpans(tok, spans, arena,
                                               &scratch->fused);
      },
      &retry_stats);
  stage->retries += retry_stats.retries;
  if (embedded.ok()) {
    std::copy_n(scratch->fused.data(), spans.size() * dim, out);
    return;
  }
  stage->degraded += static_cast<int>(spans.size());
  EMD_LOG(Warn) << "phrase embedder failed (" << embedded << "); degrading "
                << spans.size() << " mentions to mean-pooled token embeddings";
  // Degradation ladder, rung 1: the Entity Phrase Embedder is unavailable,
  // so pool the raw entity-aware token embeddings directly (Eq. 1 without
  // the dense projection of Eq. 2), fitted to the candidate embedding width.
  const size_t copy_dim = std::min(dim, static_cast<size_t>(tok.cols()));
  for (size_t k = 0; k < spans.size(); ++k) {
    float* row = out + k * dim;
    for (size_t t = spans[k].begin; t < spans[k].end; ++t) {
      const float* tok_row = tok.row(static_cast<int>(t));
      for (size_t j = 0; j < copy_dim; ++j) row[j] += tok_row[j];
    }
    kernels::Kernels().vscale(1.f / static_cast<float>(spans[k].length()), row,
                              static_cast<int>(dim));
  }
}

Result<LocalEmdResult> Globalizer::LocalEmdResilient(const AnnotatedTweet& tweet,
                                                     LocalEmdSystem* primary,
                                                     Rng* rng, int* retries,
                                                     bool* via_fallback) {
  const ResilienceOptions& res = options_.resilience;
  auto run = [&](LocalEmdSystem* system) {
    RetryStats retry_stats;
    auto result = RunWithRetry(
        res.local_emd, clock_, rng,
        [&] {
          return system->TryProcess(
              tweet.tokens, Deadline::After(clock_, res.local_deadline_nanos));
        },
        &retry_stats);
    *retries += retry_stats.retries;
    return result;
  };

  // The breaker is shared across worker threads but not itself thread-safe;
  // every transition runs under breaker_mu_. The guarded sections only cover
  // bookkeeping — never the local EMD call itself.
  bool allowed;
  {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    allowed = breaker_.AllowRequest();
  }
  if (allowed) {
    Result<LocalEmdResult> primary_result = run(primary);
    bool route_to_fallback;
    {
      std::lock_guard<std::mutex> lock(breaker_mu_);
      if (primary_result.ok()) {
        breaker_.RecordSuccess();
        return primary_result;
      }
      breaker_.RecordFailure();
      // A failure that left (or put) the breaker open — the trip itself or a
      // failed half-open probe — routes this tweet to the fallback; a failure
      // below the trip threshold is an exhausted-retries quarantine.
      route_to_fallback = breaker_.state() == CircuitBreaker::State::kOpen &&
                          fallback_system_ != nullptr;
    }
    if (!route_to_fallback) return primary_result;
  } else if (fallback_system_ == nullptr) {
    return Status::Unavailable("circuit ", breaker_.name(),
                               " open and no fallback system configured");
  }

  Result<LocalEmdResult> fallback = run(fallback_system_);
  if (fallback.ok()) *via_fallback = true;
  return fallback;
}

void Globalizer::DeadLetter(const AnnotatedTweet& tweet, const Status& reason) {
  if (dead_letter_ == nullptr) return;
  const Status st = dead_letter_->Append(tweet, reason);
  if (!st.ok()) {
    EMD_LOG(Error) << "failed to dead-letter tweet " << tweet.tweet_id << ": "
                   << st;
    return;
  }
  ++num_dead_lettered_;
  Counters().dead_lettered->Increment();
}

Rng Globalizer::TaskRng(size_t tweet_index) const {
  // Fixed per-tweet stream: jitter draws are independent of scheduling, so a
  // parallel run's backoff schedule does not depend on thread interleaving.
  return Rng(options_.resilience.retry_seed ^
             (0x9E3779B97F4A7C15ULL * (tweet_index + 1)));
}

int Globalizer::LocalLanes() const {
  const int n = options_.num_threads;
  if (n <= 1) return 1;
  // A shared fallback routed to by several lanes must itself be safe.
  if (fallback_system_ != nullptr && !fallback_system_->concurrent_safe()) {
    return 1;
  }
  if (!worker_systems_.empty()) {
    return std::min<int>(n, static_cast<int>(worker_systems_.size()));
  }
  return system_->concurrent_safe() ? n : 1;
}

LocalEmdSystem* Globalizer::LaneSystem(int lane) {
  if (worker_systems_.empty()) return system_;
  return worker_systems_[static_cast<size_t>(lane)];
}

void Globalizer::EnsurePool() {
  if (options_.num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

void Globalizer::FillLocalStage(const AnnotatedTweet& tweet,
                                Result<LocalEmdResult> local,
                                LocalStage* stage) {
  stage->record.tweet_id = tweet.tweet_id;
  stage->record.sentence_id = tweet.sentence_id;
  if (!local.ok()) {
    stage->status = local.status();
    stage->record.quarantined = true;
    return;
  }
  stage->token_embeddings = std::move(local->token_embeddings);
  for (const TokenSpan& span : local->mentions) {
    if (span.begin >= span.end || span.end > tweet.tokens.size()) continue;
    RecordedMention m;
    m.span = span;
    m.locally_detected = true;
    stage->mentions.push_back(m);
  }
}

CandidateLabel Globalizer::LabelFor(float probability,
                                    const CandidateRecord& rec) const {
  const EntityClassifierOptions& clf = classifier_->options();
  CandidateLabel label = CandidateLabel::kAmbiguous;
  if (probability >= clf.alpha) {
    label = CandidateLabel::kEntity;
  } else if (probability <= clf.beta) {
    label = CandidateLabel::kNonEntity;
  }
  if (label == CandidateLabel::kNonEntity &&
      rec.embedding_count < options_.min_evidence_mentions &&
      probability > options_.low_evidence_beta) {
    return CandidateLabel::kAmbiguous;
  }
  return label;
}

void Globalizer::RunLocalStage(std::span<const AnnotatedTweet> batch,
                               size_t first_index, int lanes,
                               std::span<LocalStage> staged) {
  const size_t n = batch.size();
  const int chunks =
      static_cast<int>(std::max<size_t>(1, std::min<size_t>(lanes, n)));
  if (static_cast<int>(lane_arenas_.size()) < chunks) {
    lane_arenas_.resize(chunks);
  }
  // Decided once per batch: with no deadline, no armed failpoint and a
  // closed breaker, no tweet can fail, retry or be routed to the fallback.
  bool happy = options_.resilience.local_deadline_nanos == 0 &&
               !failpoint::AnyArmed();
  if (happy) {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    happy = breaker_.state() == CircuitBreaker::State::kClosed;
  }

  // Chunk c is driven exclusively by lane system c (one task per chunk), so
  // non-concurrent-safe replicas stay single-threaded.
  const size_t per = (n + chunks - 1) / chunks;
  auto run_chunk = [&](int /*slot*/, size_t c) {
    // ceil-divide can leave the last chunk empty (e.g. n=5, chunks=4).
    const size_t lo = std::min(n, c * per);
    const size_t hi = std::min(n, lo + per);
    LocalEmdSystem* sys =
        chunks > 1 ? LaneSystem(static_cast<int>(c)) : system_;
    if (happy) {
      std::vector<const std::vector<Token>*> view;
      view.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) view.push_back(&batch[i].tokens);
      std::vector<LocalEmdResult> results;
      sys->ProcessBatched(view, &lane_arenas_[c], &results);
      EMD_CHECK_EQ(results.size(), hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        FillLocalStage(batch[i], std::move(results[i - lo]), &staged[i]);
      }
      return;
    }
    // Resilient fallback: the full escalation ladder per tweet, with jitter
    // from the tweet's own RNG stream so schedules ignore chunking.
    for (size_t i = lo; i < hi; ++i) {
      Rng rng = TaskRng(first_index + i);
      LocalStage& stage = staged[i];
      FillLocalStage(batch[i],
                     LocalEmdResilient(batch[i], sys, &rng, &stage.retries,
                                       &stage.via_fallback),
                     &stage);
    }
  };
  ParallelForOrSerial(chunks > 1 ? pool_.get() : nullptr,
                      static_cast<size_t>(chunks), run_chunk);

  // Merge in tweet order. The happy path replays the breaker bookkeeping
  // the resilient path does inline (AllowRequest + RecordSuccess on a closed
  // breaker), so the resilience state machine is identical either way.
  for (size_t i = 0; i < n; ++i) {
    if (happy) {
      std::lock_guard<std::mutex> lock(breaker_mu_);
      breaker_.AllowRequest();
      breaker_.RecordSuccess();
    }
    MergeLocalStage(batch[i], staged[i]);
  }
}

void Globalizer::MergeLocalStage(const AnnotatedTweet& tweet,
                                 const LocalStage& stage) {
  num_retries_ += stage.retries;
  if (stage.retries > 0) Counters().retries->Increment(stage.retries);
  Counters().tweets->Increment();
  if (!stage.status.ok()) {
    // Per-tweet isolation: quarantine this tweet (still stored, so stream
    // indexes stay dense, but it contributes no candidates) and persist it
    // to the dead-letter queue for replay.
    ++num_quarantined_;
    Counters().quarantined->Increment();
    EMD_LOG(Warn) << "quarantined tweet " << tweet.tweet_id << ": "
                  << stage.status;
    DeadLetter(tweet, stage.status);
    return;
  }
  if (stage.via_fallback) {
    ++num_fallback_;
    Counters().fallback->Increment();
  }
}

Status Globalizer::ProcessBatch(std::span<const AnnotatedTweet> batch) {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.globalizer.process_batch"));
  // A new execution cycle re-attempts components that degraded last cycle.
  classifier_degraded_ = false;

  const size_t first_index = tweets_.size();
  EnsurePool();

  // ---- Step 1: Local EMD. ----
  //
  // The batch is split into contiguous chunks, one per worker lane, staged
  // with no shared mutation (the breaker is mutex-guarded), then folded into
  // the counters by a single-threaded merge in tweet order — the merge is
  // the determinism barrier that keeps parallel output identical to serial.
  const int lanes = LocalLanes();
  last_local_lanes_ = (batch.size() > 1) ? lanes : 1;
  Timer global_timer;
  const bool local_only = options_.mode == GlobalizerOptions::Mode::kLocalOnly;
  {
    // Each tweet's local stage is kept here, beside the batch, until its
    // tweet is stored: token embeddings are read only by the re-scan's
    // embedding step, so they never outlive the batch.
    std::vector<LocalStage> staged(batch.size());
    {
      const Timer local_timer;
      EMD_TRACE_SPAN("local_emd");
      RunLocalStage(batch, first_index, lanes, staged);
      local_seconds_ += local_timer.ElapsedSeconds();
    }

    // ---- Step 2+3: Global EMD over this batch. kLocalOnly has none and
    // stores each tweet with its Local EMD spans. ----
    global_timer.Reset();
    if (local_only) {
      for (size_t i = 0; i < batch.size(); ++i) {
        tweets_.Add(staged[i].record, batch[i].tokens, staged[i].mentions);
      }
    } else {
      ExtractAndPool(batch, staged, first_index);
    }
  }
  Counters().batches->Increment();

  // Memory governance runs at this same single-writer barrier: the trie and
  // CandidateBase are quiescent between batches, so eviction/pruning can
  // never race Step() on a worker thread.
  governor_.Run([this] { return ReclassifyAmbiguous(); });
  if (local_only) return Status::OK();

  Counters().candidates->Set(state_.num_live_candidates());
  if (options_.publish_shard_gauges) {
    EMD_TRACE_SPAN("shard_gauges");
    state_.UpdateShardGauges();
  }
  global_seconds_ += global_timer.ElapsedSeconds();
  return Status::OK();
}

void Globalizer::ExtractAndPool(std::span<const AnnotatedTweet> batch,
                                std::span<const LocalStage> staged,
                                size_t first_index) {
  EMD_TRACE_SPAN("ctrie_extract");

  // Register this batch's seed candidates in the sharded global state
  // (single writer: the tries and CandidateBases only ever grow on this
  // thread). Gids come out in discovery order, identical at any shard count.
  // A quarantined stage has no seed spans.
  const size_t count = batch.size();
  for (size_t idx = 0; idx < count; ++idx) {
    for (const RecordedMention& m : staged[idx].mentions) {
      state_.GetOrCreate(state_.Insert(batch[idx].tokens, m.span));
    }
  }

  // Re-scan the batch for all mentions of all candidates discovered so far
  // and collect local embeddings. The trie is frozen for the rest of the
  // cycle, and the extractor + phrase embedder are const over shared state,
  // so this stage fans out per tweet regardless of the local system.
  std::vector<ExtractStage> extract(count);
  const size_t slots = static_cast<size_t>(std::max(1, options_.num_threads));
  if (lane_arenas_.size() < slots) lane_arenas_.resize(slots);
  if (rescan_scratch_.size() < slots) rescan_scratch_.resize(slots);
  for (RescanScratch& scratch : rescan_scratch_) scratch.rows.clear();
  ParallelForOrSerial(
      options_.num_threads > 1 ? pool_.get() : nullptr, count,
      [&](int slot, size_t idx) {
        if (staged[idx].record.quarantined) return;
        const std::vector<Token>& tokens = batch[idx].tokens;
        ExtractStage& stage = extract[idx];
        stage.lane = slot;
        state_.ExtractInto(tokens, &rescan_scratch_[slot].scan,
                           &stage.extracted);
        EmbedMentions(tokens, staged[idx].token_embeddings, first_index + idx,
                      &lane_arenas_[slot], &rescan_scratch_[slot], &stage);
      });

  // Deterministic merge barrier. Phase A walks the batch in tweet order —
  // counters, record creation, each tweet's final mention list and its
  // append to the TweetBase — and queues every (gid, tweet index, embedding
  // row) pooling op into its candidate's shard bucket, still in tweet order.
  // Phase B drains the buckets, one task per shard, in parallel only with a
  // pool and more than one shard. A candidate lives in one shard, so its ops
  // replay in tweet order either way: every global embedding is bit-exact.
  const size_t dim = EmbeddingDim();
  pool_ops_.resize(static_cast<size_t>(state_.shard_count()));

  for (size_t idx = 0; idx < count; ++idx) {
    const size_t i = first_index + idx;
    // A quarantined tweet's stages are empty: it is stored with no mentions.
    const std::vector<RecordedMention>& local = staged[idx].mentions;
    const ExtractStage& stage = extract[idx];
    const float* lane_rows = rescan_scratch_[stage.lane].rows.data();
    num_retries_ += stage.retries;
    num_degraded_ += stage.degraded;
    if (stage.retries > 0) Counters().retries->Increment(stage.retries);
    if (stage.degraded > 0) Counters().degraded->Increment(stage.degraded);
    Counters().mentions->Increment(stage.extracted.size());

    // The extractor's longest matches replace the raw local spans: partial
    // local extractions extend to the full registered candidate (§V-A).
    merged_mentions_.clear();
    for (size_t e = 0; e < stage.extracted.size(); ++e) {
      const ExtractedMention& em = stage.extracted[e];
      RecordedMention m;
      m.span = em.span;
      m.candidate_id = em.candidate_id;
      m.locally_detected =
          std::any_of(local.begin(), local.end(),
                      [&](const RecordedMention& l) { return l.span == em.span; });
      merged_mentions_.push_back(m);

      state_.GetOrCreate(em.candidate_id);
      state_.MarkDirty(em.candidate_id);
      std::span<const float> row;
      if (stage.rows[e] >= 0) row = {lane_rows + stage.rows[e] * dim, dim};
      pool_ops_[state_.ShardOf(em.candidate_id)].push_back(
          {em.candidate_id, i, row});
    }
    tweets_.Add(staged[idx].record, batch[idx].tokens, merged_mentions_);
  }

  // Phase B: no two workers ever touch the same CandidateBase.
  ParallelForOrSerial(
      state_.shard_count() > 1 ? pool_.get() : nullptr, pool_ops_.size(),
      [&](int /*slot*/, size_t s) {
        for (const PoolOp& op : pool_ops_[s]) {
          state_.AddMention(op.gid, op.pos, op.row);
        }
        pool_ops_[s].clear();  // its rows are rewritten next batch
      });
}

Status Globalizer::ClassifyDirty(bool gamma_band_only,
                                 const RetryPolicy& retry, size_t* flipped) {
  // Rows in ascending gid order. A dirty candidate with no pooled embedding
  // has nothing to score: Finalize files it ambiguous (it awaits evidence)
  // once the pass succeeds, the sweep leaves it for later.
  std::vector<int> rows, awaiting;
  for (int gid : state_.DirtyGids()) {
    if (gamma_band_only && state_.Label(gid) != CandidateLabel::kAmbiguous &&
        state_.Label(gid) != CandidateLabel::kUnlabeled) {
      continue;
    }
    if (state_.at(gid).embedding_count == 0) {
      if (!gamma_band_only) awaiting.push_back(gid);
      continue;
    }
    rows.push_back(gid);
  }

  if (!rows.empty()) {
    // One fused forward over every row, retried whole under `retry`. Each
    // row is written straight from the pooled sum: the same values as
    // MakeFeatures(GlobalEmbedding(), num_tokens), with no per-row Mat.
    if (lane_arenas_.empty()) lane_arenas_.resize(1);
    ForwardArena* arena = &lane_arenas_[0];
    Mat* feats = arena->mat(EntityClassifier::kArenaSlot + 2);
    const int fdim = classifier_->input_dim();
    feats->Resize(static_cast<int>(rows.size()), fdim);
    for (size_t k = 0; k < rows.size(); ++k) {
      const CandidateRecord& rec = state_.at(rows[k]);
      EMD_CHECK_EQ(rec.embedding_sum.size() + 1, static_cast<size_t>(fdim));
      float* row = feats->row(static_cast<int>(k));
      rec.PooledMeanInto(row);
      row[fdim - 1] =
          EntityClassifier::LengthFeature(state_.CandidateLength(rows[k]));
    }
    std::vector<float> probs;
    RetryStats retry_stats;
    const Status scored = RunWithRetry(
        retry, clock_, &retry_rng_,
        [&] { return classifier_->TryProbabilities(*feats, arena, &probs); },
        &retry_stats);
    num_retries_ += retry_stats.retries;
    if (retry_stats.retries > 0) {
      Counters().retries->Increment(retry_stats.retries);
    }
    // All or nothing: a failed pass changes no label, probability or dirty
    // mark, so the next pass re-scores every row.
    if (!scored.ok()) return scored;

    for (size_t k = 0; k < rows.size(); ++k) {
      CandidateRecord& rec = state_.at(rows[k]);
      rec.entity_probability = probs[k];
      const CandidateLabel label = LabelFor(probs[k], rec);
      if (label != state_.Label(rows[k])) ++*flipped;
      state_.SetLabel(rows[k], label);
    }
    Counters().classifier_rows->Increment(rows.size());
  }
  for (int gid : awaiting) state_.SetLabel(gid, CandidateLabel::kAmbiguous);
  return Status::OK();
}

size_t Globalizer::ReclassifyAmbiguous() {
  if (options_.mode != GlobalizerOptions::Mode::kFull || classifier_ == nullptr) {
    return 0;
  }
  EMD_TRACE_SPAN("reclassify");
  // A clean candidate's label already reflects its current pooled evidence,
  // so only dirty γ-band candidates can flip.
  size_t flipped = 0;
  const Status status =
      ClassifyDirty(/*gamma_band_only=*/true, RetryPolicy{}, &flipped);
  if (!status.ok()) {
    EMD_LOG(Warn) << "periodic re-classification stopped (" << status
                  << "); will retry next interval";
  }
  return flipped;
}

std::vector<TokenSpan> Globalizer::EmittedSpans(size_t index,
                                                bool classify) const {
  // Without a classifier every stored mention is produced: the Local EMD
  // spans in kLocalOnly (Fig. 6 bottom curve), else all recovered mentions,
  // by mode or degraded (Fig. 6 middle curve). With one, the label column
  // decides — live verdicts and the labels frozen at eviction alike.
  auto emits = [&](const RecordedMention& m) {
    return !classify || Emits(state_.Label(m.candidate_id));
  };
  const std::span<const RecordedMention> mentions = tweets_.mentions(index);
  std::vector<TokenSpan> spans;
  const size_t n = std::count_if(mentions.begin(), mentions.end(), emits);
  if (n == 0) return spans;
  spans.reserve(n);
  for (const RecordedMention& m : mentions) {
    if (emits(m)) spans.push_back(m.span);
  }
  return spans;
}

void Globalizer::EmitChanges(bool classify) {
  const bool rebuild = classify != emitted_classify_;
  if (emitted_->holders.load(std::memory_order_acquire) == 0) {
    if (rebuild) emitted_->rows.clear();
  } else {
    auto fresh = std::make_shared<KeptTable>();
    if (!rebuild) fresh->rows = emitted_->rows;
    emitted_ = std::move(fresh);
  }
  EmittedMentions::Table& table = emitted_->rows;
  emitted_classify_ = classify;

  if (classify) {
    // One byte per gid: a gid whose label crossed the output rule since the
    // table was written has its stored tweets re-emitted. A gid the table
    // has not seen yet is mentioned only by tweets it has not seen either.
    if (rebuild) shadow_emits_.clear();
    const size_t known = shadow_emits_.size();
    const size_t old_tweets = table.size();
    shadow_emits_.resize(static_cast<size_t>(state_.num_candidates()));
    std::vector<size_t> stale;
    for (size_t gid = 0; gid < shadow_emits_.size(); ++gid) {
      const uint8_t emits = Emits(state_.Label(static_cast<int>(gid)));
      if (emits == shadow_emits_[gid]) continue;
      shadow_emits_[gid] = emits;
      if (gid >= known) continue;
      tweets_.ForEachMentionOf(static_cast<int>(gid), [&](size_t i, uint32_t) {
        if (i < old_tweets) stale.push_back(i);
      });
    }
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
    for (size_t i : stale) table[i] = EmittedSpans(i, classify);
  }
  for (size_t i = table.size(); i < tweets_.size(); ++i) {
    table.push_back(EmittedSpans(i, classify));
  }
}

Result<GlobalizerOutput> Globalizer::Finalize() {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.globalizer.finalize"));
  GlobalizerOutput out;

  {
    const Timer global_timer;

    // ---- Step 4: Entity Classifier over the candidates whose global
    // embedding changed since their last verdict. ----
    if (options_.mode == GlobalizerOptions::Mode::kFull && !classifier_degraded_) {
      EMD_TRACE_SPAN("classifier");
      size_t flipped = 0;
      const Status status = ClassifyDirty(
          /*gamma_band_only=*/false, options_.resilience.classifier, &flipped);
      if (!status.ok()) {
        // Degradation ladder, rung 2: without verdicts, fall back to the
        // mention-extraction output (Fig. 6 middle curve) for this cycle.
        classifier_degraded_ = true;
        EMD_LOG(Warn) << "entity classifier failed (" << status
                      << "); degrading to mention-extraction output for the "
                         "remaining cycle";
      }
    }
    const bool classify =
        options_.mode == GlobalizerOptions::Mode::kFull && !classifier_degraded_;
    out.classifier_degraded = classifier_degraded_;
    if (classify) {
      out.num_entity = state_.NumLive(CandidateLabel::kEntity);
      out.num_non_entity = state_.NumLive(CandidateLabel::kNonEntity);
      out.num_ambiguous = state_.NumLive(CandidateLabel::kAmbiguous) +
                          state_.NumLive(CandidateLabel::kUnlabeled);
      out.num_candidates =
          out.num_entity + out.num_non_entity + out.num_ambiguous;
    } else {
      out.num_candidates = state_.num_live_candidates();
    }

    // ---- Outputs (§V-C), on the kept table: only what changed. ----
    {
      EMD_TRACE_SPAN("emit");
      EmitChanges(classify);
    }
    // The output holds the table until its last copy is dropped.
    emitted_->holders.fetch_add(1, std::memory_order_relaxed);
    out.mentions = EmittedMentions(std::shared_ptr<const EmittedMentions::Table>(
        &emitted_->rows, [kept = emitted_](const EmittedMentions::Table*) {
          kept->holders.fetch_sub(1, std::memory_order_release);
        }));
    // kLocalOnly runs no Global EMD: its output step is not global time.
    if (options_.mode != GlobalizerOptions::Mode::kLocalOnly) {
      global_seconds_ += global_timer.ElapsedSeconds();
    }
  }

  out.local_seconds = local_seconds_;
  out.global_seconds = global_seconds_;
  // Snapshot the resilience counters at return time (the classifier above
  // may have retried) and emit the one-line operator report.
  out.num_quarantined = num_quarantined_;
  out.num_degraded = num_degraded_;
  out.num_retries = num_retries_;
  out.num_fallback = num_fallback_;
  out.num_dead_lettered = num_dead_lettered_;
  out.breaker_trips = restored_breaker_trips_ + breaker_.trips();
  out.breaker_recoveries = restored_breaker_recoveries_ + breaker_.recoveries();
  if (ingest_queue_ != nullptr) {
    const IngestQueueStats& qs = ingest_queue_->stats();
    out.num_admission_rejected = qs.admission_rejected;
    out.num_queue_rejected = qs.rejected;
    out.num_queue_shed = qs.shed;
    out.num_memory_rejected = qs.memory_rejected;
  }
  const MemoryGovernorStats& gs = governor_.stats();
  out.num_evicted = gs.evicted_candidates;
  out.num_pruned_nodes = gs.pruned_nodes;
  out.num_trimmed = gs.trimmed_tweets;
  out.num_reclassified = gs.reclassified;
  out.governed_bytes = governor_.governed_bytes();
  out.memory_pressure = static_cast<int>(governor_.pressure());
  out.summary = out.ResilienceSummary();
  out.metrics = obs::Metrics().Snapshot();
  EMD_LOG(Info) << out.summary;
  return out;
}

Result<GlobalizerOutput> Globalizer::Run(const Dataset& dataset) {
  StreamBatcher batcher(&dataset, options_.batch_size);
  while (batcher.HasNext()) EMD_RETURN_IF_ERROR(ProcessBatch(batcher.Next()));
  return Finalize();
}

}  // namespace emd
