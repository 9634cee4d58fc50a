// Incremental Finalize (label: parallel, so the TSan job runs it).
//
// Finalize re-scores only the candidates whose pooled evidence changed since
// their last verdict and emits from a dense per-gid label column. These tests
// pin the two consequences:
//   * cadence invariance — the final mentions, every live label and
//     entity_probability (bit for bit), and the num_* tallies are the same
//     whether Finalize runs after every batch, every third batch, or only at
//     the end, across shard counts, thread counts, the batched happy path vs
//     the resilient per-tweet path, and a checkpoint round trip mid-stream;
//   * full re-score equivalence — under a memory budget (where eviction
//     reads labels, so the Finalize cadence legitimately changes what gets
//     evicted) every verdict Finalize or the γ-band sweep leaves behind equals
//     a from-scratch re-score, and the output follows the historical emit
//     rule over live and evicted candidates.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "byte_accounting.h"
#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "full_emit.h"
#include "mock_local_system.h"
#include "text/tweet_tokenizer.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace emd {
namespace {

// ------------------------------------------------------------ Fixtures --

AnnotatedTweet MakeTweet(long id, const std::string& text) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  return t;
}

/// Coined single-word entities plus one two-word phrase, drawn Zipf-style so
/// a few candidates recur in most batches and most recur rarely — the shape
/// that makes the dirty set much smaller than the candidate base.
std::vector<std::string> EntityWords() {
  const char* syllables[] = {"ka", "lo", "mi", "ra", "zu", "te", "vo", "ni"};
  std::vector<std::string> words;
  for (const char* a : syllables) {
    for (const char* b : {"rex", "lin", "dor", "vak", "sum", "pel"}) {
      words.push_back(std::string(a) + b);
    }
  }
  return words;
}

std::string Cased(const std::string& word, Rng* rng) {
  std::string out = word;
  const double r = rng->NextDouble();
  if (r < 0.6) {
    out[0] = static_cast<char>(out[0] - 'a' + 'A');
  } else if (r < 0.7) {
    for (char& c : out) c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

Dataset CadenceStream(int num_tweets, uint64_t seed) {
  const std::vector<std::string> entities = EntityWords();
  const std::vector<std::string> fillers = {
      "the", "cases", "rising", "today", "spoke", "about", "new", "again",
      "tonight", "schools", "vaccine", "report", "says", "with", "and"};
  Rng rng(seed);
  Dataset d;
  d.name = "cadence";
  d.streaming = true;
  for (int i = 0; i < num_tweets; ++i) {
    std::vector<std::string> words;
    const int len = rng.NextInt(5, 9);
    for (int w = 0; w < len; ++w) {
      words.push_back(fillers[rng.NextU64(fillers.size())]);
    }
    const int mentions = rng.NextInt(1, 3);
    for (int m = 0; m < mentions; ++m) {
      const size_t at = rng.NextU64(words.size() + 1);
      if (rng.NextBernoulli(0.1)) {
        words.insert(words.begin() + at, {Cased("andy", &rng), Cased("beshear", &rng)});
      } else {
        words.insert(words.begin() + at,
                     Cased(entities[rng.NextZipf(entities.size(), 1.1)], &rng));
      }
    }
    std::string text;
    for (const std::string& w : words) text += (text.empty() ? "" : " ") + w;
    d.tweets.push_back(MakeTweet(i + 1, text));
  }
  return d;
}

/// Local EMD sees only capitalized mentions (the Fig. 1 inconsistency), so
/// the re-scan keeps recovering lowercase ones and each candidate's casing
/// mix — its syntactic global embedding — drifts as evidence arrives.
std::vector<MockLocalSystem::Rule> CadenceRules() {
  std::vector<MockLocalSystem::Rule> rules;
  for (const std::string& w : EntityWords()) {
    rules.push_back({.phrase = {w}, .require_capitalized = true});
  }
  rules.push_back({.phrase = {"andy", "beshear"}, .require_capitalized = true});
  return rules;
}

/// This untrained classifier scores the stream's candidates in a narrow band
/// around 0.48; thresholds inside it yield entity, non-entity and ambiguous
/// verdicts that flip as casing evidence accrues.
EntityClassifier CadenceClassifier() {
  return EntityClassifier({.input_dim = 7, .alpha = 0.487f, .beta = 0.479f});
}

struct Config {
  int shards = 1;
  int threads = 1;
  /// false forces the resilient reference paths (ForceResilientPath).
  bool batching = true;
  bool deep = false;
  /// Ungoverned decay + γ-band sweep (labels flip between Finalizes but
  /// nothing reads them before the output).
  bool sweep = false;
  /// Finalize after every `cadence` batches; 0 = only at the end.
  int cadence = 0;
  /// Batch index after which the stream is checkpointed and resumed in a
  /// fresh Globalizer (-1 = never).
  int restore_after = -1;
};

std::string Describe(const Config& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "S=%d T=%d batching=%d deep=%d sweep=%d cadence=%d restore=%d",
                c.shards, c.threads, c.batching, c.deep, c.sweep, c.cadence,
                c.restore_after);
  return buf;
}

constexpr size_t kBatch = 8;
constexpr int kDim = 8;

/// Everything Finalize exposes, flattened for exact comparison.
struct Snapshot {
  std::vector<std::vector<TokenSpan>> mentions;
  int num_candidates = 0, num_entity = 0, num_non_entity = 0, num_ambiguous = 0;
  std::vector<int> live_gids;
  std::vector<CandidateLabel> labels;
  std::vector<uint32_t> probability_bits;
};

Snapshot Capture(const Globalizer& g, const GlobalizerOutput& out) {
  Snapshot s;
  s.mentions = out.mentions;
  s.num_candidates = out.num_candidates;
  s.num_entity = out.num_entity;
  s.num_non_entity = out.num_non_entity;
  s.num_ambiguous = out.num_ambiguous;
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    s.live_gids.push_back(gid);
    s.labels.push_back(state.Label(gid));
    uint32_t bits = 0;
    std::memcpy(&bits, &rec.entity_probability, sizeof(bits));
    s.probability_bits.push_back(bits);
  }
  return s;
}

void ExpectSame(const Snapshot& want, const Snapshot& got) {
  ASSERT_EQ(want.mentions.size(), got.mentions.size());
  for (size_t i = 0; i < want.mentions.size(); ++i) {
    EXPECT_EQ(want.mentions[i], got.mentions[i]) << "tweet " << i;
  }
  EXPECT_EQ(want.num_candidates, got.num_candidates);
  EXPECT_EQ(want.num_entity, got.num_entity);
  EXPECT_EQ(want.num_non_entity, got.num_non_entity);
  EXPECT_EQ(want.num_ambiguous, got.num_ambiguous);
  EXPECT_EQ(want.live_gids, got.live_gids);
  EXPECT_EQ(want.labels, got.labels);
  EXPECT_EQ(want.probability_bits, got.probability_bits);
}

/// The verdict a from-scratch re-score assigns live `gid` — the historical
/// Finalize, which classified every live candidate on every call. A one-row
/// TryProbabilities call, so it also holds under int8 packing.
CandidateLabel RescoredLabel(const ShardedGlobalState& state, int gid,
                             const EntityClassifier& clf,
                             const GlobalizerOptions& opt, float* probability) {
  const CandidateRecord& rec = state.at(gid);
  if (rec.embedding_count == 0) return CandidateLabel::kAmbiguous;
  ForwardArena arena;
  std::vector<float> probs;
  const Status scored = clf.TryProbabilities(
      EntityClassifier::MakeFeatures(rec.GlobalEmbedding(),
                                     state.CandidateLength(gid)),
      &arena, &probs);
  if (!scored.ok()) {
    ADD_FAILURE() << scored;
    return CandidateLabel::kUnlabeled;
  }
  const float p = probs[0];
  *probability = p;
  CandidateLabel label = CandidateLabel::kAmbiguous;
  if (p >= clf.options().alpha) {
    label = CandidateLabel::kEntity;
  } else if (p <= clf.options().beta) {
    label = CandidateLabel::kNonEntity;
  }
  if (label == CandidateLabel::kNonEntity &&
      rec.embedding_count < opt.min_evidence_mentions &&
      p > opt.low_evidence_beta) {
    return CandidateLabel::kAmbiguous;
  }
  return label;
}

/// After a Finalize: every live verdict in the label column equals a full
/// re-score, every dead gid was evicted, and the output is the historical
/// emit rule applied to the column.
void ExpectMatchesFullRescore(const Globalizer& g, const GlobalizerOutput& out,
                              const EntityClassifier& clf,
                              const GlobalizerOptions& opt) {
  const ShardedGlobalState& state = g.global_state();
  int live = 0, entity = 0, non_entity = 0;
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) {
      EXPECT_TRUE(state.WasEvicted(gid)) << "gid " << gid;
      continue;
    }
    const CandidateRecord& rec = state.at(gid);
    const CandidateLabel label = state.Label(gid);
    float p = rec.entity_probability;
    EXPECT_EQ(label, RescoredLabel(state, gid, clf, opt, &p)) << "gid " << gid;
    EXPECT_EQ(0, std::memcmp(&p, &rec.entity_probability, sizeof(float)))
        << "gid " << gid;
    ++live;
    entity += label == CandidateLabel::kEntity;
    non_entity += label == CandidateLabel::kNonEntity;
  }
  EXPECT_EQ(out.num_candidates, live);
  EXPECT_EQ(out.num_entity, entity);
  EXPECT_EQ(out.num_non_entity, non_entity);
  EXPECT_EQ(out.num_ambiguous, live - entity - non_entity);

  EXPECT_FALSE(out.classifier_degraded);
  ExpectEqualsFullReEmit(g, opt, out);
}

/// After a batch whose governor pass ran the γ-band sweep: every live
/// ambiguous/unlabeled candidate with evidence carries its re-scored verdict.
void ExpectGammaBandRescored(const Globalizer& g, const EntityClassifier& clf,
                             const GlobalizerOptions& opt) {
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    const CandidateLabel label = state.Label(gid);
    if (rec.embedding_count == 0 || (label != CandidateLabel::kAmbiguous &&
                                     label != CandidateLabel::kUnlabeled)) {
      continue;
    }
    float p = 0.f;
    EXPECT_EQ(label, RescoredLabel(state, gid, clf, opt, &p)) << "gid " << gid;
    EXPECT_EQ(0, std::memcmp(&p, &rec.entity_probability, sizeof(float)))
        << "gid " << gid;
  }
}

struct Pipeline {
  explicit Pipeline(const Config& c)
      : mock(CadenceRules(), c.deep ? kDim : 0), pe(kDim, 6) {
    if (!c.batching) force.emplace();
  }
  MockLocalSystem mock;
  PhraseEmbedder pe;
  /// Engaged for batching=false: the run takes the resilient paths.
  std::optional<ForceResilientPath> force;
};

GlobalizerOptions OptionsFor(const Config& c) {
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.batch_size = kBatch;
  opt.shard_count = c.shards;
  opt.num_threads = c.threads;
  if (c.sweep) {
    opt.memory.decay_half_life_tweets = 40;
    opt.memory.reclassify_interval_batches = 2;
  }
  return opt;
}

std::span<const AnnotatedTweet> BatchAt(const Dataset& d, size_t b) {
  const size_t begin = b * kBatch;
  const size_t end = std::min(d.tweets.size(), begin + kBatch);
  return {d.tweets.data() + begin, end - begin};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Streams `d` under `c`, finalizing on its cadence (each intermediate
/// Finalize checked against a full re-score), and returns the final state.
Snapshot RunCadence(const Dataset& d, const Config& c,
                    const EntityClassifier& clf) {
  SCOPED_TRACE(Describe(c));
  const GlobalizerOptions opt = OptionsFor(c);
  Pipeline p(c);
  auto g = std::make_unique<Globalizer>(&p.mock, c.deep ? &p.pe : nullptr,
                                        &clf, opt);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (size_t b = 0; b < batches; ++b) {
    EXPECT_TRUE(g->ProcessBatch(BatchAt(d, b)).ok());
    if (c.cadence > 0 && (b + 1) % c.cadence == 0 && b + 1 < batches) {
      GlobalizerOutput out = g->Finalize().value();
      EXPECT_FALSE(out.classifier_degraded);
      ExpectMatchesFullRescore(*g, out, clf, opt);
    }
    if (static_cast<int>(b) == c.restore_after) {
      const std::string path = TempPath("emd_finalize_cadence.ckpt");
      EXPECT_TRUE(g->SaveCheckpoint(path).ok());
      g = std::make_unique<Globalizer>(&p.mock, c.deep ? &p.pe : nullptr,
                                       &clf, opt);
      EXPECT_TRUE(g->RestoreCheckpoint(path).ok());
      EXPECT_EQ(g->processed_tweets(), (b + 1) * kBatch);
      std::remove(path.c_str());
    }
  }
  GlobalizerOutput out = g->Finalize().value();
  ExpectMatchesFullRescore(*g, out, clf, opt);
  return Capture(*g, out);
}

// ------------------------------------------------- Cadence invariance --

TEST(FinalizeCadenceTest, StreamProducesEveryVerdict) {
  // Guards the fixture: cadence invariance means little unless the stream
  // yields all three verdicts and more candidates than any one batch pools.
  const Dataset d = CadenceStream(240, 7);
  const EntityClassifier clf = CadenceClassifier();
  const Snapshot s = RunCadence(d, {.cadence = 0}, clf);
  EXPECT_GT(s.num_entity, 0);
  EXPECT_GT(s.num_non_entity, 0);
  EXPECT_GT(s.num_ambiguous, 0);
  EXPECT_GT(s.num_candidates, 20);
}

TEST(FinalizeCadenceTest, OutputIndependentOfCadenceShardsThreadsBatching) {
  const Dataset d = CadenceStream(240, 7);
  const EntityClassifier clf = CadenceClassifier();
  for (const bool deep : {false, true}) {
    const Snapshot want = RunCadence(d, {.deep = deep}, clf);
    for (const int shards : {1, 4, 13}) {
      for (const int threads : {1, 4}) {
        for (const bool batching : {true, false}) {
          for (const int cadence : {1, 3, 0}) {
            const Config c{.shards = shards, .threads = threads,
                           .batching = batching, .deep = deep,
                           .cadence = cadence};
            SCOPED_TRACE(Describe(c));
            ExpectSame(want, RunCadence(d, c, clf));
          }
        }
      }
    }
  }
}

TEST(FinalizeCadenceTest, SweepAndDecayBetweenFinalizesKeepCadenceInvariance) {
  // Ungoverned decay + γ-band sweep: labels flip inside ProcessBatch, between
  // Finalizes, yet nothing reads them before the output — so the cadence
  // still cannot matter.
  const Dataset d = CadenceStream(240, 11);
  const EntityClassifier clf = CadenceClassifier();
  const Snapshot want = RunCadence(d, {.sweep = true}, clf);
  for (const int shards : {1, 4, 13}) {
    for (const int threads : {1, 4}) {
      for (const int cadence : {1, 3, 0}) {
        const Config c{.shards = shards, .threads = threads, .sweep = true,
                       .cadence = cadence};
        SCOPED_TRACE(Describe(c));
        ExpectSame(want, RunCadence(d, c, clf));
      }
    }
  }
}

TEST(FinalizeCadenceTest, CheckpointRoundTripMidStreamMatchesUninterrupted) {
  // Restore rebuilds the label column and marks every live candidate dirty;
  // the resumed stream's Finalizes must match the uninterrupted run's.
  const Dataset d = CadenceStream(240, 13);
  const EntityClassifier clf = CadenceClassifier();
  for (const bool sweep : {false, true}) {
    for (const int cadence : {1, 3, 0}) {
      const Snapshot want =
          RunCadence(d, {.sweep = sweep, .cadence = cadence}, clf);
      for (const int shards : {1, 4}) {
        const Config c{.shards = shards, .threads = 4, .sweep = sweep,
                       .cadence = cadence, .restore_after = 13};
        SCOPED_TRACE(Describe(c));
        ExpectSame(want, RunCadence(d, c, clf));
      }
    }
  }
}

// --------------------------------------------- Governed, full re-score --

/// One governed run: tiny budget, short retention, decay and a γ-band sweep
/// every other batch, so candidates flip and are evicted between Finalizes.
/// Checks every Finalize and every sweep against a full re-score and counts
/// candidates that flipped in a sweep and were evicted before the next
/// Finalize.
struct GovernedRun {
  Snapshot final;
  uint64_t evicted = 0;
  uint64_t reclassified = 0;
  int flipped_then_evicted = 0;
};

GovernedRun RunGoverned(const Dataset& d, int shards, int threads, int cadence,
                        const EntityClassifier& clf,
                        size_t budget_bytes = 24 * 1024) {
  Config c{.shards = shards, .threads = threads, .cadence = cadence};
  SCOPED_TRACE(Describe(c));
  GlobalizerOptions opt = OptionsFor(c);
  opt.memory.budget_bytes = budget_bytes;
  opt.memory.min_retain_tweets = 16;
  opt.memory.decay_half_life_tweets = 40;
  opt.memory.reclassify_interval_batches = 2;
  Pipeline p(c);
  Globalizer g(&p.mock, nullptr, &clf, opt);
  const ShardedGlobalState& state = g.global_state();

  GovernedRun run;
  std::vector<int> flipped;  // gids relabelled by a sweep since the last Finalize
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<CandidateLabel> before(state.num_candidates());
    std::vector<bool> live_before(state.num_candidates());
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      live_before[gid] = state.Contains(gid);
      if (live_before[gid]) before[gid] = state.Label(gid);
    }
    EXPECT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    ExpectByteTotalsMatchRecount(g);
    if ((b + 1) % opt.memory.reclassify_interval_batches == 0) {
      ExpectGammaBandRescored(g, clf, opt);
    }
    for (int gid = 0; gid < static_cast<int>(before.size()); ++gid) {
      if (!live_before[gid]) continue;
      // A sweep is the only label writer inside ProcessBatch; eviction
      // freezes the column label the gid carried when it was freed.
      const CandidateLabel now = state.Label(gid);
      if (now == before[gid]) continue;
      // The sweep re-scores only the γ band: settled verdicts wait for the
      // next Finalize even when their evidence moved.
      EXPECT_TRUE(before[gid] == CandidateLabel::kAmbiguous ||
                  before[gid] == CandidateLabel::kUnlabeled)
          << "gid " << gid << " relabelled from "
          << CandidateLabelName(before[gid]) << " outside Finalize";
      flipped.push_back(gid);
    }
    for (int gid : flipped) {
      if (!state.Contains(gid)) {
        ++run.flipped_then_evicted;
        EXPECT_TRUE(state.WasEvicted(gid));
      }
    }
    std::erase_if(flipped, [&](int gid) { return !state.Contains(gid); });
    if (cadence > 0 && (b + 1) % cadence == 0 && b + 1 < batches) {
      GlobalizerOutput out = g.Finalize().value();
      ExpectMatchesFullRescore(g, out, clf, opt);
      flipped.clear();
    }
  }
  GlobalizerOutput out = g.Finalize().value();
  ExpectMatchesFullRescore(g, out, clf, opt);
  run.final = Capture(g, out);
  run.evicted = out.num_evicted;
  run.reclassified = out.num_reclassified;
  return run;
}

TEST(FinalizeGovernedTest, EveryVerdictMatchesFullRescoreUnderEviction) {
  // Eviction reads labels, so a different Finalize cadence legitimately
  // evicts differently; what must hold at every cadence is that each verdict
  // is the one a full re-score gives, and that shards / threads change
  // nothing.
  const Dataset d = CadenceStream(320, 17);
  const EntityClassifier clf = CadenceClassifier();
  int flipped_then_evicted = 0;
  for (const int cadence : {1, 3, 0}) {
    const GovernedRun want = RunGoverned(d, 1, 1, cadence, clf);
    EXPECT_GT(want.evicted, 0u) << "cadence " << cadence;
    EXPECT_GT(want.reclassified, 0u) << "cadence " << cadence;
    flipped_then_evicted += want.flipped_then_evicted;
    for (const int shards : {4, 13}) {
      for (const int threads : {1, 4}) {
        const GovernedRun got = RunGoverned(d, shards, threads, cadence, clf);
        ExpectSame(want.final, got.final);
        EXPECT_EQ(want.evicted, got.evicted);
        EXPECT_EQ(want.reclassified, got.reclassified);
      }
    }
  }
  EXPECT_GT(flipped_then_evicted, 0)
      << "no candidate flipped in a sweep and was evicted before the next "
         "Finalize; the fixture no longer covers that path";
}

TEST(FinalizeGovernedTest, ShardCountChangesNoEvictionAtAnyBudget) {
  // The governor decides on a figure that charges per-shard structures by
  // gid-level counts, so a batch that ends near the eviction target sweeps
  // (or not) alike at every shard count: the victims are the same whatever
  // the budget.
  const Dataset d = CadenceStream(320, 17);
  const EntityClassifier clf = CadenceClassifier();
  for (const size_t kib : {12, 20, 32}) {
    SCOPED_TRACE("budget " + std::to_string(kib) + " KiB");
    const GovernedRun want = RunGoverned(d, 1, 1, 3, clf, kib * 1024);
    EXPECT_GT(want.evicted, 0u);
    for (const int shards : {4, 13}) {
      const GovernedRun got = RunGoverned(d, shards, 4, 3, clf, kib * 1024);
      ExpectSame(want.final, got.final);
      EXPECT_EQ(want.evicted, got.evicted);
      EXPECT_EQ(want.reclassified, got.reclassified);
    }
  }
}

TEST(FinalizeGovernedTest, RestoredLabelColumnKeepsEvictedVerdicts) {
  // Restore writes each slot's label and evicted code back into the label
  // column, so a restored Globalizer emits the same mentions — evicted
  // candidates' included — as the one that saved.
  const Dataset d = CadenceStream(320, 17);
  const EntityClassifier clf = CadenceClassifier();
  Config c{.cadence = 3};
  GlobalizerOptions opt = OptionsFor(c);
  opt.memory.budget_bytes = 24 * 1024;
  opt.memory.min_retain_tweets = 16;
  opt.memory.reclassify_interval_batches = 2;
  Pipeline p(c);
  Globalizer g(&p.mock, nullptr, &clf, opt);
  for (size_t b = 0; b < 30; ++b) {
    ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    if ((b + 1) % 3 == 0) {
      ASSERT_TRUE(g.Finalize().ok());
    }
  }
  ASSERT_GT(g.memory_governor().stats().evicted_candidates, 0u);
  const std::string path = TempPath("emd_finalize_governed.ckpt");
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  Globalizer restored(&p.mock, nullptr, &clf, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  std::remove(path.c_str());

  const GlobalizerOutput want = g.Finalize().value();
  const GlobalizerOutput got = restored.Finalize().value();
  ExpectMatchesFullRescore(restored, got, clf, opt);
  ExpectSame(Capture(g, want), Capture(restored, got));
}

// ------------------------------------------------------ Failure edges --

struct FailpointGuard {
  FailpointGuard() { failpoint::DisableAll(); }
  ~FailpointGuard() { failpoint::DisableAll(); }
};

/// What a classify pass may change: the dirty set, the label column over
/// every gid, and each live record's probability bits.
struct ClassifyState {
  std::vector<int> dirty;
  std::vector<CandidateLabel> labels;
  std::vector<uint32_t> probability_bits;
};

ClassifyState CaptureClassifyState(const Globalizer& g) {
  // DirtyGids only compacts the dirty list, so reading it through a const
  // Globalizer changes nothing a classify pass would see.
  ShardedGlobalState& state = const_cast<ShardedGlobalState&>(g.global_state());
  ClassifyState s;
  s.dirty = state.DirtyGids();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    s.labels.push_back(state.Label(gid));
    if (!state.Contains(gid)) continue;
    uint32_t bits = 0;
    std::memcpy(&bits, &state.at(gid).entity_probability, sizeof(bits));
    s.probability_bits.push_back(bits);
  }
  return s;
}

TEST(FinalizeEdgeTest, DegradedFinalizeLeavesEveryRowDirty) {
  // A classify pass is one call, all or nothing: when it fails the cycle
  // degrades and no dirty mark, label or probability changes, so the next
  // cycle's Finalize re-scores every row and produces exactly what an
  // undisturbed one would.
  FailpointGuard guard;
  const Dataset d = CadenceStream(160, 23);
  const EntityClassifier clf = CadenceClassifier();
  const GlobalizerOptions opt = OptionsFor(Config{});
  Pipeline clean_p(Config{}), faulty_p(Config{});
  Globalizer clean(&clean_p.mock, nullptr, &clf, opt);
  Globalizer faulty(&faulty_p.mock, nullptr, &clf, opt);
  const size_t batches = d.tweets.size() / kBatch;
  for (size_t b = 0; b + 1 < batches; ++b) {
    ASSERT_TRUE(clean.ProcessBatch(BatchAt(d, b)).ok());
    ASSERT_TRUE(faulty.ProcessBatch(BatchAt(d, b)).ok());
    if (b + 1 == batches / 2) {
      // Earlier verdicts, so the failed pass has labels it could disturb.
      ASSERT_FALSE(clean.Finalize().value().classifier_degraded);
      ASSERT_FALSE(faulty.Finalize().value().classifier_degraded);
    }
  }
  const ClassifyState before = CaptureClassifyState(faulty);
  ASSERT_FALSE(before.dirty.empty());
  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Internal("down"), /*skip=*/0,
                         /*max_fires=*/-1);
  EXPECT_TRUE(faulty.Finalize().value().classifier_degraded);
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 1);
  failpoint::DisableAll();
  const ClassifyState after = CaptureClassifyState(faulty);
  EXPECT_EQ(before.dirty, after.dirty);
  EXPECT_EQ(before.labels, after.labels);
  EXPECT_EQ(before.probability_bits, after.probability_bits);

  ASSERT_TRUE(clean.ProcessBatch(BatchAt(d, batches - 1)).ok());
  ASSERT_TRUE(faulty.ProcessBatch(BatchAt(d, batches - 1)).ok());
  const GlobalizerOutput want = clean.Finalize().value();
  const GlobalizerOutput got = faulty.Finalize().value();
  EXPECT_FALSE(got.classifier_degraded);
  ExpectMatchesFullRescore(faulty, got, clf, opt);
  ExpectSame(Capture(clean, want), Capture(faulty, got));
}

TEST(FinalizeEdgeTest, LabelColumnTalliesAndDirtySetTrackTheRecords) {
  ShardedGlobalState state(3);
  std::vector<int> gids;
  for (const char* w : {"alpha", "beta", "gamma", "delta"}) {
    gids.push_back(state.Insert(std::vector<std::string>{w}));
  }
  for (int gid : gids) state.GetOrCreate(gid);
  EXPECT_EQ(state.NumLive(CandidateLabel::kUnlabeled), 4);
  EXPECT_EQ(state.DirtyGids(), gids) << "creation marks dirty";

  state.SetLabel(gids[0], CandidateLabel::kEntity);
  state.SetLabel(gids[1], CandidateLabel::kNonEntity);
  state.SetLabel(gids[2], CandidateLabel::kAmbiguous);
  state.MarkDirty(gids[0]);
  state.MarkDirty(gids[0]);
  EXPECT_EQ(state.DirtyGids(), (std::vector<int>{gids[0], gids[3]}))
      << "deduplicated, ascending, cleared by SetLabel";
  EXPECT_EQ(state.NumLive(CandidateLabel::kEntity), 1);
  EXPECT_EQ(state.NumLive(CandidateLabel::kNonEntity), 1);
  EXPECT_EQ(state.NumLive(CandidateLabel::kAmbiguous), 1);
  EXPECT_EQ(state.NumLive(CandidateLabel::kUnlabeled), 1);

  // Eviction freezes the column label (kUnlabeled too), marks the gid
  // evicted and drops it from the dirty set and the live tallies.
  state.Evict(gids[3]);
  state.Evict(gids[0]);
  EXPECT_EQ(state.Label(gids[3]), CandidateLabel::kUnlabeled);
  EXPECT_TRUE(state.WasEvicted(gids[3]));
  EXPECT_EQ(state.Label(gids[0]), CandidateLabel::kEntity);
  EXPECT_TRUE(state.WasEvicted(gids[0]));
  EXPECT_FALSE(state.WasEvicted(gids[1]));
  EXPECT_TRUE(state.DirtyGids().empty());
  EXPECT_EQ(state.NumLive(CandidateLabel::kEntity), 0);
  EXPECT_EQ(state.NumLive(CandidateLabel::kUnlabeled), 0);
  EXPECT_EQ(state.Label(-1), CandidateLabel::kUnlabeled);
  EXPECT_EQ(state.Label(state.num_candidates()), CandidateLabel::kUnlabeled);

  state.RebuildLabelColumn();
  EXPECT_EQ(state.DirtyGids(), (std::vector<int>{gids[1], gids[2]}));
  EXPECT_EQ(state.NumLive(CandidateLabel::kNonEntity), 1);
  EXPECT_EQ(state.NumLive(CandidateLabel::kAmbiguous), 1);
  EXPECT_EQ(state.Label(gids[0]), CandidateLabel::kEntity);
  EXPECT_TRUE(state.WasEvicted(gids[0]));
}

}  // namespace
}  // namespace emd
