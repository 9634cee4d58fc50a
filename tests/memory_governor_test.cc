// Memory-governance tests: CTrie pruning invariants (lookup misses, shared
// prefixes, slot recycling, fresh ids), decayed incremental pooling math and
// its bit-exact-when-off guarantee, score+recency eviction with labels frozen
// in the label column, forced-pressure and aborted-eviction failpoints,
// admission-edge shedding under memory pressure, checkpoint v4 round-trips
// after pruning plus the v3 compatibility / version-skew paths, and a
// multi-threaded chaos run (the TSan target: eviction at the batch barrier
// must never race worker-side trie reads).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "byte_accounting.h"
#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/memory_governor.h"
#include "core/phrase_embedder.h"
#include "mock_local_system.h"
#include "net/admission.h"
#include "net/wire.h"
#include "stream/datasets.h"
#include "stream/ingest_queue.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace emd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Disarms every failpoint on scope exit so no test leaks armed points.
struct FailpointGuard {
  FailpointGuard() { failpoint::DisableAll(); }
  ~FailpointGuard() { failpoint::DisableAll(); }
};

AnnotatedTweet MakeTweet(long id, const std::string& text) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.sentence_id = static_cast<int>(id) * 10;
  t.topic_id = 7;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  return t;
}

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

/// Live gids resolve through their shard's trie, tombstoned gids miss and
/// keep no record — the structural invariant every prune must preserve.
/// Read through the gid facade, so it covers every shard.
void CheckTrieCandidateInvariants(const ShardedGlobalState& state) {
  int live = 0;
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (state.IsTombstone(gid)) {
      EXPECT_FALSE(state.Contains(gid)) << "tombstoned gid " << gid;
      EXPECT_TRUE(state.CandidateKey(gid).empty()) << "tombstoned gid " << gid;
      EXPECT_EQ(state.CandidateLength(gid), 0) << "tombstoned gid " << gid;
    } else {
      ++live;
      const std::vector<std::string> words = Split(state.CandidateKey(gid));
      EXPECT_EQ(state.Find(words), gid);
      EXPECT_EQ(state.CandidateLength(gid), static_cast<int>(words.size()))
          << "gid " << gid;
    }
  }
  int per_shard = 0;
  for (int s = 0; s < state.shard_count(); ++s) {
    per_shard += state.ShardLiveCandidates(s);
  }
  EXPECT_EQ(live, state.num_live_candidates());
  EXPECT_EQ(per_shard, live);
}

// --------------------------------------------------------- CTrie pruning --

TEST(CTriePruneTest, PrunedPhraseMissesOnLookup) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int id = trie.Insert({"andy", "beshear"});
  ASSERT_EQ(trie.Find({"andy", "beshear"}), id);

  EXPECT_GT(trie.Prune(id), 0);
  EXPECT_EQ(trie.Find({"andy", "beshear"}), CTrie::kNoCandidate);
  EXPECT_TRUE(trie.IsTombstone(id));
  EXPECT_EQ(trie.num_live_candidates(), 0);
  EXPECT_EQ(trie.num_candidates(), 1);  // id space keeps the hole
  // Pruning an already-pruned id is a no-op.
  EXPECT_EQ(trie.Prune(id), 0);
}

TEST(CTriePruneTest, SharedPrefixSurvivesSiblingPrune) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int beshear = trie.Insert({"andy", "beshear"});
  const int cohen = trie.Insert({"andy", "cohen"});
  const int andy = trie.Insert({"andy"});

  // Removing one leaf must not disturb the shared "andy" prefix node, which
  // still terminates a candidate and still roots the sibling subtree.
  EXPECT_EQ(trie.Prune(beshear), 1);  // only the "beshear" leaf frees
  EXPECT_EQ(trie.Find({"andy", "beshear"}), CTrie::kNoCandidate);
  EXPECT_EQ(trie.Find({"andy", "cohen"}), cohen);
  EXPECT_EQ(trie.Find({"andy"}), andy);

  // Now the prefix candidate: the node survives (it roots "cohen").
  EXPECT_EQ(trie.Prune(andy), 0);
  EXPECT_EQ(trie.Find({"andy"}), CTrie::kNoCandidate);
  EXPECT_EQ(trie.Find({"andy", "cohen"}), cohen);
}

TEST(CTriePruneTest, PruneRecyclesNodeSlotsAndIdsStayFresh) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int first = trie.Insert({"some", "long", "candidate", "phrase"});
  const int nodes_before = trie.num_live_nodes();
  ASSERT_EQ(trie.Prune(first), 4);
  EXPECT_EQ(trie.num_live_nodes(), nodes_before - 4);

  // Re-inserting the same phrase reuses the freed node slots but NEVER the
  // tombstoned id: evidence for a re-appearing candidate restarts from zero.
  const int second = trie.Insert({"some", "long", "candidate", "phrase"});
  EXPECT_NE(second, first);
  EXPECT_EQ(trie.num_live_nodes(), nodes_before);
  EXPECT_TRUE(trie.IsTombstone(first));
  EXPECT_FALSE(trie.IsTombstone(second));
  EXPECT_EQ(trie.Find({"some", "long", "candidate", "phrase"}), second);
}

TEST(CTriePruneTest, ApproxBytesShrinksWithPruning) {
  SymbolTable syms;
  CTrie trie(&syms);
  for (int i = 0; i < 32; ++i) {
    trie.Insert({"prefix", "number", std::to_string(i)});
  }
  const size_t before = trie.ApproxBytes();
  for (int i = 0; i < 32; ++i) trie.Prune(i);
  EXPECT_LT(trie.ApproxBytes(), before);
  EXPECT_EQ(trie.num_live_candidates(), 0);
}

TEST(CTriePruneTest, PrunedIdsFreeTheirEntriesAndTheStoreCompacts) {
  // A tombstoned id keeps only its index: its key and length slot is reused
  // by the next new candidate, and once most slots are free the store
  // compacts. Every live id still resolves, and the bytes come back.
  SymbolTable syms;
  CTrie trie(&syms);
  const auto phrase = [](int i) {
    return std::vector<std::string>{"phrase", "number", std::to_string(i)};
  };
  for (int i = 0; i < 64; ++i) ASSERT_EQ(trie.Insert(phrase(i)), i);
  const size_t full = trie.ApproxBytes();
  for (int i = 0; i < 64; ++i) {
    if (i % 8 != 0) trie.Prune(i);
    ASSERT_EQ(trie.ApproxBytes(), trie.RecountBytes()) << "prune " << i;
  }
  // Node slots stay allocated for reuse; the 56 dead entries are released.
  EXPECT_LE(trie.ApproxBytes() + 56 * CTrie::EntryBytes(), full);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(trie.IsTombstone(i), i % 8 != 0) << "id " << i;
    EXPECT_EQ(trie.Find(phrase(i)), i % 8 == 0 ? i : CTrie::kNoCandidate);
  }
  // Re-admission takes fresh ids in recycled slots.
  for (int i = 1; i < 8; ++i) {
    const int id = trie.Insert(phrase(i));
    EXPECT_EQ(id, 63 + i);
    EXPECT_EQ(trie.CandidateKey(id), "phrase number " + std::to_string(i));
    EXPECT_EQ(trie.CandidateLength(id), 3);
    ASSERT_EQ(trie.ApproxBytes(), trie.RecountBytes());
  }
  EXPECT_EQ(trie.CandidateKey(0), "phrase number 0");
  EXPECT_TRUE(trie.CandidateKey(1).empty());
  EXPECT_EQ(trie.num_live_candidates(), 15);
}

TEST(CandidateBaseEvictTest, EvictedSlotsAreReusedAndThePoolCompacts) {
  CandidateBase cb;
  const std::vector<float> emb = {1.f, 2.f, 3.f, 4.f};
  for (int id = 0; id < 64; ++id) {
    cb.GetOrCreate(id);
    cb.AddMention(id, static_cast<uint64_t>(id), emb);
    cb.at(id).entity_probability = static_cast<float>(id);
  }
  const size_t full = cb.ApproxBytes();
  for (int id = 0; id < 64; ++id) {
    if (id % 8 != 0) cb.Evict(id);
    ASSERT_EQ(cb.ApproxBytes(), cb.RecountBytes()) << "evict " << id;
  }
  EXPECT_LT(cb.ApproxBytes(), full / 2);
  EXPECT_EQ(cb.num_records(), 8u);
  for (int id = 0; id < 64; ++id) {
    ASSERT_EQ(cb.Contains(id), id % 8 == 0) << "id " << id;
    if (id % 8 != 0) continue;
    const CandidateRecord& rec = cb.at(id);
    EXPECT_EQ(rec.candidate_id, id);
    EXPECT_EQ(rec.entity_probability, static_cast<float>(id));
    EXPECT_EQ(rec.last_mention_pos, static_cast<uint64_t>(id));
    EXPECT_EQ(rec.embedding_sum.size(), emb.size());
  }
  // New ids take the freed slots; an evicted id reads as an empty record.
  for (int id = 64; id < 72; ++id) {
    EXPECT_EQ(cb.GetOrCreate(id).candidate_id, id);
    ASSERT_EQ(cb.ApproxBytes(), cb.RecountBytes());
  }
  EXPECT_EQ(cb.num_records(), 16u);
  EXPECT_EQ(cb.size(), 72u);
  EXPECT_EQ(static_cast<const CandidateBase&>(cb).at(1).candidate_id, -1);
}

// --------------------------------------------------------- Decayed pooling --

TEST(DecayedPoolingTest, HalfLifeScalesOldEvidence) {
  CandidateBase cb(/*decay_half_life_tweets=*/1);  // lambda = 0.5 per position
  cb.GetOrCreate(0);

  Mat a(1, 2);
  a(0, 0) = 4.f;
  a(0, 1) = 8.f;
  Mat b(1, 2);
  b(0, 0) = 1.f;
  b(0, 1) = 1.f;
  cb.AddMention(0, 0, {a.data(), a.size()});
  cb.AddMention(0, 2, {b.data(), b.size()});

  // Two positions elapsed: old evidence decays by 0.5^2 = 0.25.
  const CandidateRecord& rec = cb.at(0);
  EXPECT_DOUBLE_EQ(rec.embedding_weight, 1.25);
  EXPECT_EQ(rec.embedding_count, 2);
  EXPECT_FLOAT_EQ(rec.embedding_sum(0, 0), 4.f * 0.25f + 1.f);
  EXPECT_FLOAT_EQ(rec.embedding_sum(0, 1), 8.f * 0.25f + 1.f);
  const Mat g = rec.GlobalEmbedding();
  EXPECT_FLOAT_EQ(g(0, 0), (4.f * 0.25f + 1.f) / 1.25f);
  EXPECT_EQ(rec.last_mention_pos, 2u);
  EXPECT_EQ(rec.last_update_pos, 2u);
}

// With decay off, the one pooling formula is a plain running sum divided by
// the integer count, bit for bit: every lambda^Δ scale is 1, the weight stays
// an exact integer, and float(double(n)) == float(n).
TEST(DecayedPoolingTest, DecayOffIsBitExactLegacyMean) {
  CandidateBase cb;  // default: no decay
  cb.GetOrCreate(0);
  constexpr int kDim = 7;
  Rng rng(5);
  Mat expected;
  uint64_t pos = 0;
  for (int n = 1; n <= 1000; ++n) {
    SCOPED_TRACE("mention " + std::to_string(n));
    Mat e(1, kDim);
    e.InitGaussian(&rng, 1.f);
    pos += rng.NextU64(6);  // gaps of 0..5 stream positions
    cb.AddMention(0, pos, {e.data(), e.size()});
    if (expected.empty()) {
      expected = e;
    } else {
      expected.Add(e);
    }

    const CandidateRecord& rec = cb.at(0);
    ASSERT_EQ(rec.embedding_count, n);
    ASSERT_EQ(rec.embedding_weight, static_cast<double>(n));  // exactly
    ASSERT_EQ(std::memcmp(rec.embedding_sum.data(), expected.data(),
                          sizeof(float) * kDim),
              0);
    Mat mean = expected;
    mean.Scale(1.f / static_cast<float>(n));  // the integer-count mean
    const Mat g = rec.GlobalEmbedding();
    ASSERT_EQ(std::memcmp(g.data(), mean.data(), sizeof(float) * kDim), 0);
  }
}

TEST(DecayedPoolingTest, SamePositionMentionsDoNotDecayEachOther) {
  CandidateBase cb(/*decay_half_life_tweets=*/4);
  cb.GetOrCreate(0);
  Mat a(1, 1);
  a(0, 0) = 2.f;
  cb.AddMention(0, 3, {a.data(), a.size()});
  cb.AddMention(0, 3, {a.data(), a.size()});
  EXPECT_DOUBLE_EQ(cb.at(0).embedding_weight, 2.0);
  EXPECT_FLOAT_EQ(cb.at(0).embedding_sum(0, 0), 4.f);
}

// ------------------------------------------------------- Governor (unit) --

TEST(MemoryGovernorTest, ConfirmedEntitiesAreNeverEvicted) {
  ShardedGlobalState state;
  TweetBase tb;
  const int keep = state.Insert({"kept"});
  const int drop = state.Insert({"dropped"});
  state.GetOrCreate(keep);
  state.GetOrCreate(drop);
  state.SetLabel(keep, CandidateLabel::kEntity);
  state.SetLabel(drop, CandidateLabel::kNonEntity);

  MemoryGovernorOptions opt;
  opt.budget_bytes = 1;  // everything is over budget: evict all it may
  MemoryGovernor governor(&state, &tb, opt);
  governor.Run({});

  EXPECT_TRUE(state.Contains(keep));
  EXPECT_FALSE(state.Contains(drop));
  EXPECT_TRUE(state.IsTombstone(drop));
  EXPECT_TRUE(state.WasEvicted(drop));
  EXPECT_FALSE(state.WasEvicted(keep));
  EXPECT_EQ(state.Label(drop), CandidateLabel::kNonEntity);
  EXPECT_EQ(governor.stats().evicted_candidates, 1u);
  EXPECT_GT(governor.stats().pruned_nodes, 0u);
  // Reclaim could not free the entity: the budget stays blown -> hard.
  EXPECT_EQ(governor.pressure(), MemoryPressure::kHard);
  CheckTrieCandidateInvariants(state);
}

TEST(MemoryGovernorTest, YoungAmbiguousCandidatesAreRetained) {
  ShardedGlobalState state;
  TweetBase tb;
  const int young = state.Insert({"young"});
  state.GetOrCreate(young).last_mention_pos = 0;
  state.SetLabel(young, CandidateLabel::kAmbiguous);

  MemoryGovernorOptions opt;
  opt.budget_bytes = 1;
  opt.min_retain_tweets = 100;  // stream_pos (0) < retention window
  MemoryGovernor governor(&state, &tb, opt);
  governor.Run({});
  EXPECT_TRUE(state.Contains(young));
  EXPECT_EQ(governor.stats().evicted_candidates, 0u);
}

TEST(MemoryGovernorTest, ReclassifyRunsOnConfiguredInterval) {
  ShardedGlobalState state;
  TweetBase tb;
  MemoryGovernorOptions opt;
  opt.reclassify_interval_batches = 2;
  MemoryGovernor governor(&state, &tb, opt);
  ASSERT_TRUE(governor.enabled());
  ASSERT_FALSE(governor.budgeted());

  int calls = 0;
  for (int batch = 0; batch < 5; ++batch) {
    governor.Run([&calls] {
      ++calls;
      return size_t{3};
    });
  }
  EXPECT_EQ(calls, 2);  // batches 2 and 4
  EXPECT_EQ(governor.stats().reclassified, 6u);
}

TEST(MemoryGovernorTest, PressureFailpointForcesHardWithoutRealPressure) {
  FailpointGuard guard;
  ShardedGlobalState state;
  TweetBase tb;
  MemoryGovernorOptions opt;
  opt.budget_bytes = 1ull << 30;  // far above anything these stores hold
  MemoryGovernor governor(&state, &tb, opt);

  governor.Run({});
  ASSERT_EQ(governor.pressure(), MemoryPressure::kNone);

  failpoint::EnableAfter("core.memory_governor.pressure",
                         Status::ResourceExhausted("chaos"), /*skip=*/0,
                         /*max_fires=*/1);
  governor.Run({});
  EXPECT_EQ(governor.pressure(), MemoryPressure::kHard);

  // Failpoint exhausted: the next pass re-evaluates real occupancy.
  governor.Run({});
  EXPECT_EQ(governor.pressure(), MemoryPressure::kNone);
}

TEST(MemoryGovernorTest, EvictFailpointAbortsSweepBetweenVictims) {
  FailpointGuard guard;
  ShardedGlobalState state;
  TweetBase tb;
  for (int i = 0; i < 4; ++i) {
    const std::string key = "cold" + std::to_string(i);
    const int id = state.Insert({key});
    state.GetOrCreate(id);
    state.SetLabel(id, CandidateLabel::kNonEntity);
  }
  MemoryGovernorOptions opt;
  opt.budget_bytes = 1;
  MemoryGovernor governor(&state, &tb, opt);

  // First victim passes the gate, the second check fires and aborts the
  // sweep — each eviction is atomic, so state stays consistent mid-sweep.
  failpoint::EnableAfter("core.memory_governor.evict",
                         Status::Internal("killed mid-sweep"), /*skip=*/1,
                         /*max_fires=*/1);
  governor.Run({});
  EXPECT_EQ(governor.stats().evicted_candidates, 1u);
  EXPECT_FALSE(state.Contains(0));  // deterministic order: lowest gid first
  EXPECT_TRUE(state.Contains(1));
  EXPECT_TRUE(state.Contains(2));
  EXPECT_TRUE(state.Contains(3));
  CheckTrieCandidateInvariants(state);

  // Next pass (failpoint spent) finishes the job.
  governor.Run({});
  EXPECT_EQ(governor.stats().evicted_candidates, 4u);
  CheckTrieCandidateInvariants(state);
}

// ------------------------------------------------- Pipeline integration --

std::vector<MockLocalSystem::Rule> StreamRules() {
  return {{.phrase = {"coronavirus"}},
          {.phrase = {"beshear"}},
          {.phrase = {"kentucky"}},
          {.phrase = {"louisville"}}};
}

Dataset GovernedStream(int copies) {
  Dataset d;
  d.name = "governed";
  long id = 1;
  for (int c = 0; c < copies; ++c) {
    d.tweets.push_back(MakeTweet(id++, "the Coronavirus keeps spreading"));
    d.tweets.push_back(MakeTweet(id++, "Beshear spoke in Kentucky today"));
    d.tweets.push_back(MakeTweet(id++, "cases rising in Louisville again"));
    d.tweets.push_back(MakeTweet(id++, "nothing to report tonight folks"));
  }
  return d;
}

TEST(GovernedPipelineTest, InertGovernanceIsBitIdenticalToUngoverned) {
  Dataset d = GovernedStream(4);
  PhraseEmbedder pe(8, 8);

  GlobalizerOptions plain;
  plain.mode = GlobalizerOptions::Mode::kMentionExtraction;
  plain.batch_size = 4;
  MockLocalSystem mock_a(StreamRules(), /*dim=*/8);
  Globalizer ungoverned(&mock_a, &pe, nullptr, plain);
  GlobalizerOutput out_a = ungoverned.Run(d).value();

  // Budget large enough that accounting runs but nothing is ever reclaimed:
  // the governed pipeline must be byte-for-byte the ungoverned one.
  GlobalizerOptions governed = plain;
  governed.memory.budget_bytes = 1ull << 30;
  MockLocalSystem mock_b(StreamRules(), /*dim=*/8);
  Globalizer with_budget(&mock_b, &pe, nullptr, governed);
  GlobalizerOutput out_b = with_budget.Run(d).value();

  EXPECT_EQ(MentionDigest(out_a), MentionDigest(out_b));
  EXPECT_EQ(out_b.num_evicted, 0u);
  EXPECT_EQ(out_b.num_trimmed, 0u);
  EXPECT_EQ(out_b.memory_pressure, 0);
  const ShardedGlobalState& sa = ungoverned.global_state();
  const ShardedGlobalState& sb = with_budget.global_state();
  ASSERT_EQ(sa.num_candidates(), sb.num_candidates());
  for (int c = 0; c < sa.num_candidates(); ++c) {
    const CandidateRecord& ra = sa.at(c);
    const CandidateRecord& rb = sb.at(c);
    ASSERT_EQ(ra.embedding_count, rb.embedding_count);
    EXPECT_EQ(ra.embedding_weight, rb.embedding_weight);
    ASSERT_EQ(ra.embedding_sum.size(), rb.embedding_sum.size());
    EXPECT_EQ(std::memcmp(ra.embedding_sum.data(), rb.embedding_sum.data(),
                          sizeof(float) * ra.embedding_sum.size()),
              0)
        << "candidate " << c;
  }
}

TEST(GovernedPipelineTest, EvictionPreservesAlreadyEmittedMentions) {
  Dataset d = GovernedStream(1);
  // Filler batches age the candidates past the retention window without
  // adding new mentions.
  for (long id = 100; id < 116; ++id) {
    d.tweets.push_back(MakeTweet(id, "just filler words here tonight"));
  }
  EntityClassifier clf({.input_dim = 7});

  GlobalizerOptions plain;
  plain.mode = GlobalizerOptions::Mode::kFull;
  plain.batch_size = 4;
  MockLocalSystem mock_a(StreamRules());
  Globalizer ungoverned(&mock_a, nullptr, &clf, plain);

  GlobalizerOptions governed = plain;
  // Tiny, sized to the byte figures so that the last batch evicts a
  // candidate (the guard below checks it still does).
  governed.memory.budget_bytes = 3840;
  governed.memory.min_retain_tweets = 8;
  MockLocalSystem mock_b(StreamRules());
  Globalizer evicting(&mock_b, nullptr, &clf, governed);

  // Drive both batch by batch, finalizing after the first batch so labels
  // exist (non-deep mock: no embeddings -> every candidate goes ambiguous)
  // before the governor starts evicting aged ambiguous candidates.
  for (size_t i = 0; i < d.tweets.size(); i += 4) {
    std::span<const AnnotatedTweet> batch(d.tweets.data() + i, 4);
    ASSERT_TRUE(ungoverned.ProcessBatch(batch).ok());
    ASSERT_TRUE(evicting.ProcessBatch(batch).ok());
    ASSERT_TRUE(ungoverned.Finalize().ok());
    ASSERT_TRUE(evicting.Finalize().ok());
  }
  GlobalizerOutput out_plain = ungoverned.Finalize().value();
  GlobalizerOutput out_evict = evicting.Finalize().value();

  // Candidates were evicted, yet their recorded mentions still flow to the
  // output through the labels the column froze at eviction.
  EXPECT_GT(out_evict.num_evicted, 0u);
  EXPECT_GT(out_evict.num_trimmed, 0u);
  EXPECT_EQ(MentionDigest(out_plain), MentionDigest(out_evict));
  EXPECT_NE(out_evict.summary.find("memory:"), std::string::npos);
  const ShardedGlobalState& state = evicting.global_state();
  uint64_t marked = 0;
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    marked += state.WasEvicted(gid) ? 1 : 0;
  }
  EXPECT_EQ(marked, out_evict.num_evicted);
  CheckTrieCandidateInvariants(state);
}

// ------------------------------------------------------- Admission edge --

TEST(MemoryAdmissionTest, HardPressureShedsWithMaxRetryHint) {
  IngestQueue queue({.capacity = 8});
  int level = 2;
  net::AdmissionOptions opt;
  opt.high_watermark = 6;
  opt.low_watermark = 3;
  opt.memory_pressure = [&level] { return level; };
  net::AdmissionController admission(&queue, opt);

  const net::AdmissionDecision decision =
      admission.Offer("client-a", MakeTweet(1, "hello"), 0);
  ASSERT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason, net::RejectReason::kMemoryPressure);
  EXPECT_EQ(decision.retry_after_ms, opt.max_retry_after_ms);
  // Memory sheds land in their own counter, disjoint from queue-full sheds.
  EXPECT_EQ(queue.stats().memory_rejected, 1u);
  EXPECT_EQ(queue.stats().admission_rejected, 0u);

  level = 0;
  EXPECT_TRUE(admission.Offer("client-a", MakeTweet(2, "hello"), 0).accepted);
}

TEST(MemoryAdmissionTest, SoftPressureTightensWatermarkToLow) {
  IngestQueue queue({.capacity = 8});
  int level = 1;
  net::AdmissionOptions opt;
  opt.high_watermark = 6;
  opt.low_watermark = 2;
  opt.memory_pressure = [&level] { return level; };
  net::AdmissionController admission(&queue, opt);

  // Below the low watermark even soft pressure admits.
  EXPECT_TRUE(admission.Offer("client-a", MakeTweet(1, "a"), 0).accepted);
  // Backlog (1 staged + 1 queued) reaches the low watermark: under soft
  // pressure that is already too much.
  ASSERT_TRUE(queue.Push(MakeTweet(2, "b")).ok());
  const net::AdmissionDecision decision =
      admission.Offer("client-a", MakeTweet(3, "c"), 0);
  ASSERT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason, net::RejectReason::kMemoryPressure);
  EXPECT_EQ(queue.stats().memory_rejected, 1u);

  // Without pressure the same backlog is fine (still under high_watermark).
  level = 0;
  EXPECT_TRUE(admission.Offer("client-a", MakeTweet(4, "d"), 0).accepted);
}

TEST(MemoryAdmissionTest, MemoryPressureReasonSurvivesTheWire) {
  std::string bytes;
  net::AppendRetryAfter(&bytes, {.seq = 9,
                                 .retry_after_ms = 2000,
                                 .reason = net::RejectReason::kMemoryPressure});
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::Frame frame;
  ASSERT_EQ(decoder.Next(&frame), net::FrameDecoder::NextStatus::kFrame);
  const net::RetryAfterFrame retry = net::ParseRetryAfter(frame).value();
  EXPECT_EQ(retry.reason, net::RejectReason::kMemoryPressure);
  EXPECT_STREQ(net::RejectReasonName(retry.reason), "memory_pressure");
}

// ----------------------------------------------------------- Checkpoints --

TEST(MemoryCheckpointTest, V4RoundTripsPrunedStateAndGovernorStats) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_memory_ckpt_v4.bin");
  Dataset d = GovernedStream(2);

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 4;
  opt.memory.budget_bytes = 3072;  // trimming alone cannot meet it
  opt.memory.min_retain_tweets = 0;  // everything is immediately evictable
  MockLocalSystem mock(StreamRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.Run(d).ok());
  ASSERT_GT(g.memory_governor().stats().evicted_candidates, 0u);
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  MockLocalSystem mock2(StreamRules());
  Globalizer restored(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());

  // The dense id space — including eviction holes — survives the round trip.
  const ShardedGlobalState& before = g.global_state();
  const ShardedGlobalState& after = restored.global_state();
  ASSERT_EQ(after.num_candidates(), before.num_candidates());
  EXPECT_EQ(after.num_live_candidates(), before.num_live_candidates());
  for (int gid = 0; gid < before.num_candidates(); ++gid) {
    EXPECT_EQ(after.IsTombstone(gid), before.IsTombstone(gid));
    EXPECT_EQ(after.WasEvicted(gid), before.WasEvicted(gid));
    EXPECT_EQ(after.Label(gid), before.Label(gid));
  }
  CheckTrieCandidateInvariants(after);
  // Lifetime reclamation totals are cumulative across the restore.
  EXPECT_EQ(restored.memory_governor().stats().evicted_candidates,
            g.memory_governor().stats().evicted_candidates);
  EXPECT_EQ(restored.memory_governor().stats().pruned_nodes,
            g.memory_governor().stats().pruned_nodes);
  EXPECT_EQ(restored.memory_governor().stats().trimmed_tweets,
            g.memory_governor().stats().trimmed_tweets);
  EXPECT_EQ(MentionDigest(restored.Finalize().value()),
            MentionDigest(g.Finalize().value()));
}

TEST(MemoryCheckpointTest, KillAndResumeMidEvictionKeepsStateConsistent) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_memory_ckpt_midsweep.bin");
  Dataset d = GovernedStream(2);

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 4;
  // The first batch's state crosses the soft line (0.75 * budget) and needs
  // more than one victim to get under the eviction target.
  opt.memory.budget_bytes = 2560;
  opt.memory.min_retain_tweets = 0;
  MockLocalSystem mock(StreamRules());
  Globalizer g(&mock, nullptr, nullptr, opt);

  // Abort the first eviction sweep after one victim — the "process dies mid
  // reclamation" scenario — and checkpoint exactly that state.
  failpoint::EnableAfter("core.memory_governor.evict",
                         Status::Internal("killed mid-sweep"), /*skip=*/1,
                         /*max_fires=*/1);
  ASSERT_TRUE(
      g.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data(), 4)).ok());
  ASSERT_EQ(g.memory_governor().stats().evicted_candidates, 1u);
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  failpoint::DisableAll();

  MockLocalSystem mock2(StreamRules());
  Globalizer resumed(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(resumed.RestoreCheckpoint(path).ok());
  CheckTrieCandidateInvariants(resumed.global_state());
  EXPECT_EQ(resumed.memory_governor().stats().evicted_candidates, 1u);

  // The resumed stream keeps processing (and keeps evicting) normally.
  ASSERT_TRUE(resumed
                  .ProcessBatch(std::span<const AnnotatedTweet>(
                      d.tweets.data() + 4, d.tweets.size() - 4))
                  .ok());
  EXPECT_TRUE(resumed.Finalize().ok());
  CheckTrieCandidateInvariants(resumed.global_state());
}

/// Hand-crafted pre-governance (version 3) checkpoint: no governor stats, no
/// trie live bytes, no tweet trimmed byte, no decay fields, no evicted-label
/// bytes. The v4 reader must load it and derive the governance fields.
std::string BuildV3Checkpoint() {
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);  // 'EMDG'
  binio::AppendU32(&buf, 3);           // version
  binio::AppendU8(&buf, 1);            // mode = kMentionExtraction
  binio::AppendU64(&buf, 1);           // processed_tweets
  binio::AppendU32(&buf, 0);           // num_quarantined
  binio::AppendU32(&buf, 0);           // num_degraded
  binio::AppendU8(&buf, 0);            // classifier_degraded
  binio::AppendU32(&buf, 2);           // num_retries
  binio::AppendU32(&buf, 0);           // num_fallback
  binio::AppendU32(&buf, 0);           // num_dead_lettered
  binio::AppendU32(&buf, 1);           // breaker_trips
  binio::AppendU32(&buf, 1);           // breaker_recoveries

  // CTrie: one candidate, no per-id live byte in v3.
  binio::AppendU32(&buf, 1);
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU32(&buf, 1);  // token length

  // TweetBase: one record, no trimmed byte in v3.
  binio::AppendU64(&buf, 1);
  binio::AppendI64(&buf, 42);  // tweet_id
  binio::AppendI32(&buf, 7);   // sentence_id
  binio::AppendU8(&buf, 0);    // quarantined
  binio::AppendU32(&buf, 2);   // tokens
  binio::AppendString(&buf, "the");
  binio::AppendU64(&buf, 0);
  binio::AppendU64(&buf, 3);
  binio::AppendU8(&buf, 0);  // kWord
  binio::AppendString(&buf, "Coronavirus");
  binio::AppendU64(&buf, 4);
  binio::AppendU64(&buf, 15);
  binio::AppendU8(&buf, 0);
  binio::AppendU32(&buf, 1);  // mentions
  binio::AppendU64(&buf, 1);  // span.begin
  binio::AppendU64(&buf, 2);  // span.end
  binio::AppendI32(&buf, 0);  // candidate_id
  binio::AppendU8(&buf, 1);   // locally_detected

  // CandidateBase: one present slot, no decay fields in v3.
  binio::AppendU64(&buf, 1);
  binio::AppendU8(&buf, 1);  // present
  binio::AppendString(&buf, "coronavirus");
  binio::AppendI32(&buf, 1);  // num_tokens
  binio::AppendU32(&buf, 1);  // mentions
  binio::AppendU64(&buf, 0);  // tweet_index
  binio::AppendU64(&buf, 1);
  binio::AppendU64(&buf, 2);
  binio::AppendU8(&buf, 1);
  binio::AppendI32(&buf, 1);  // embedding_sum rows
  binio::AppendI32(&buf, 3);  // cols
  binio::AppendF32(&buf, 1.f);
  binio::AppendF32(&buf, 2.f);
  binio::AppendF32(&buf, 3.f);
  binio::AppendI32(&buf, 1);    // embedding_count
  binio::AppendU8(&buf, 0);     // label = kUnlabeled
  binio::AppendF32(&buf, -1.f); // entity_probability
  binio::AppendU32(&buf, 0);    // mention_embeddings

  // v3 metrics block: empty.
  binio::AppendU32(&buf, 0);
  binio::AppendU32(&buf, 0);

  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  return buf;
}

TEST(MemoryCheckpointTest, V3CheckpointLoadsIntoV4Reader) {
  const std::string path = TempPath("emd_memory_ckpt_v3.bin");
  ASSERT_TRUE(WriteStringToFile(path, BuildV3Checkpoint()).ok());

  MockLocalSystem mock(StreamRules());
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.RestoreCheckpoint(path).ok());

  EXPECT_EQ(g.processed_tweets(), 1u);
  const ShardedGlobalState& state = g.global_state();
  ASSERT_EQ(state.num_candidates(), 1);
  EXPECT_FALSE(state.IsTombstone(0));
  ASSERT_TRUE(state.Contains(0));
  // Pre-governance files restore to the exact ungoverned state: weight is
  // the count, recency positions derive from the mention list.
  const CandidateRecord& rec = state.at(0);
  EXPECT_EQ(rec.embedding_weight, 1.0);
  EXPECT_EQ(rec.last_mention_pos, 0u);
  EXPECT_EQ(rec.last_update_pos, 0u);
  EXPECT_FALSE(g.global_state().WasEvicted(0));
  EXPECT_EQ(g.memory_governor().stats().evicted_candidates, 0u);

  // And re-saving writes a v4 file that round-trips.
  const std::string v4_path = TempPath("emd_memory_ckpt_v3_resaved.bin");
  ASSERT_TRUE(g.SaveCheckpoint(v4_path).ok());
  MockLocalSystem mock2(StreamRules());
  Globalizer again(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(again.RestoreCheckpoint(v4_path).ok());
  EXPECT_EQ(again.processed_tweets(), 1u);
  EXPECT_EQ(again.global_state().at(0).embedding_weight, 1.0);
}

TEST(MemoryCheckpointTest, VersionSkewErrorNamesFoundAndSupportedVersions) {
  const std::string path = TempPath("emd_memory_ckpt_v99.bin");
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);
  binio::AppendU32(&buf, 99);
  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  ASSERT_TRUE(WriteStringToFile(path, buf).ok());

  MockLocalSystem mock(StreamRules());
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  const Status st = g.RestoreCheckpoint(path);
  ASSERT_FALSE(st.ok());
  const std::string message = st.ToString();
  EXPECT_NE(message.find("unsupported format version 99"), std::string::npos)
      << message;
  EXPECT_NE(message.find("versions 1 through 5"), std::string::npos) << message;
  EXPECT_NE(message.find("newer build"), std::string::npos) << message;
}

// ------------------------------------------------------------ TSan chaos --

TEST(MemoryChaosTest, EvictionAtBarrierNeverRacesWorkersOrPressureReaders) {
  FailpointGuard guard;
  Dataset d = GovernedStream(8);
  PhraseEmbedder pe(8, 8);
  MockLocalSystem mock(StreamRules(), /*dim=*/8);

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 4;
  opt.num_threads = 4;  // workers Step() the trie while batches process
  opt.shard_count = 3;  // the merge pools different shards on different workers
  opt.memory.budget_bytes = 8192;  // aggressive: evict during the stream
  opt.memory.min_retain_tweets = 0;
  opt.memory.decay_half_life_tweets = 16;
  Globalizer g(&mock, &pe, nullptr, opt);

  // The serving edge's view: concurrent atomic pressure reads while the
  // merge barrier evicts. TSan proves the contract.
  std::atomic<bool> done{false};
  uint64_t observed = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      observed += static_cast<uint64_t>(g.memory_pressure());
      observed += g.memory_governor().governed_bytes() > 0 ? 1 : 0;
    }
  });
  for (size_t i = 0; i < d.tweets.size(); i += 4) {
    ASSERT_TRUE(
        g.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data() + i, 4))
            .ok());
    // The running byte totals the governor reads equal a full recount.
    ExpectByteTotalsMatchRecount(g);
  }
  done.store(true, std::memory_order_relaxed);
  poller.join();

  GlobalizerOutput out = g.Finalize().value();
  EXPECT_GT(out.num_trimmed, 0u);
  CheckTrieCandidateInvariants(g.global_state());
  // Parallel 3-shard governed output must match a serial one-shard governed
  // run bit for bit: the governor's figure, so its evictions, do not depend
  // on the shard count.
  GlobalizerOptions serial = opt;
  serial.num_threads = 1;
  serial.shard_count = 1;
  MockLocalSystem mock2(StreamRules(), /*dim=*/8);
  Globalizer s(&mock2, &pe, nullptr, serial);
  for (size_t i = 0; i < d.tweets.size(); i += 4) {
    ASSERT_TRUE(
        s.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data() + i, 4))
            .ok());
  }
  EXPECT_EQ(MentionDigest(s.Finalize().value()), MentionDigest(out));
}

}  // namespace
}  // namespace emd
