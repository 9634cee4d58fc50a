// Sharding tests (docs/SHARDING.md): ShardRouter stability, the gid facade's
// dense discovery-order id space at any shard count, bit-identical pipeline
// output and embedding sums across shard counts (serial and with the parallel
// shard-aware merge), checkpoint v5 round trips including shard-count changes
// between save and restore, the v4 single-trie compatibility path (live keys
// re-route by hash, tombstones re-home to shard 0), version-skew error
// wording, and the MultiStreamService isolation contract: a noisy stream
// evicts only its own candidates and never perturbs a neighbour's output.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/entity_classifier.h"
#include "core/global_state.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "core/shard_router.h"
#include "mock_local_system.h"
#include "stream/datasets.h"
#include "stream/multi_stream.h"
#include "text/tweet_tokenizer.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace emd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

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

/// Enough distinct phrases (including a multi-token one) that several shards
/// are populated at small shard counts.
std::vector<MockLocalSystem::Rule> ShardRules() {
  return {{.phrase = {"coronavirus"}}, {.phrase = {"andy", "beshear"}},
          {.phrase = {"kentucky"}},    {.phrase = {"louisville"}},
          {.phrase = {"vaccine"}},     {.phrase = {"frankfort"}}};
}

Dataset ShardStream(int copies) {
  Dataset d;
  d.name = "sharded";
  long id = 1;
  for (int c = 0; c < copies; ++c) {
    d.tweets.push_back(MakeTweet(id++, "the Coronavirus keeps spreading"));
    d.tweets.push_back(MakeTweet(id++, "Andy Beshear spoke in Kentucky today"));
    d.tweets.push_back(MakeTweet(id++, "cases rising in Louisville again"));
    d.tweets.push_back(MakeTweet(id++, "the Vaccine arrives in Frankfort soon"));
  }
  return d;
}

/// Every observable the sharded facade exposes must be identical between two
/// runs, regardless of their shard counts.
void ExpectSameGlobalState(const ShardedGlobalState& a,
                           const ShardedGlobalState& b) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  EXPECT_EQ(a.num_live_candidates(), b.num_live_candidates());
  for (int gid = 0; gid < a.num_candidates(); ++gid) {
    EXPECT_EQ(a.IsTombstone(gid), b.IsTombstone(gid)) << "gid " << gid;
    EXPECT_EQ(a.CandidateKey(gid), b.CandidateKey(gid)) << "gid " << gid;
    EXPECT_EQ(a.CandidateLength(gid), b.CandidateLength(gid)) << "gid " << gid;
    EXPECT_EQ(a.WasEvicted(gid), b.WasEvicted(gid)) << "gid " << gid;
    EXPECT_EQ(a.Label(gid), b.Label(gid)) << "gid " << gid;
    ASSERT_EQ(a.Contains(gid), b.Contains(gid)) << "gid " << gid;
    if (!a.Contains(gid)) continue;
    const CandidateRecord& ra = a.at(gid);
    const CandidateRecord& rb = b.at(gid);
    EXPECT_EQ(ra.num_mentions, rb.num_mentions) << "gid " << gid;
    ASSERT_EQ(ra.embedding_count, rb.embedding_count) << "gid " << gid;
    EXPECT_EQ(ra.embedding_weight, rb.embedding_weight) << "gid " << gid;
    ASSERT_EQ(ra.embedding_sum.size(), rb.embedding_sum.size());
    if (ra.embedding_sum.size() > 0) {
      EXPECT_EQ(std::memcmp(ra.embedding_sum.data(), rb.embedding_sum.data(),
                            sizeof(float) * ra.embedding_sum.size()),
                0)
          << "gid " << gid;
    }
    ASSERT_EQ(ra.mention_embeddings.size(), rb.mention_embeddings.size())
        << "gid " << gid;
    for (size_t m = 0; m < ra.mention_embeddings.size(); ++m) {
      const Mat& ea = ra.mention_embeddings[m];
      const Mat& eb = rb.mention_embeddings[m];
      ASSERT_EQ(ea.size(), eb.size()) << "gid " << gid << " mention " << m;
      EXPECT_EQ(std::memcmp(ea.data(), eb.data(), sizeof(float) * ea.size()), 0)
          << "gid " << gid << " mention " << m;
    }
  }
}

// ---------------------------------------------------------- ShardRouter --

TEST(ShardRouterTest, RoutingIsStableInRangeAndDegenerateAtOne) {
  const ShardRouter one(1);
  const ShardRouter four(4);
  const std::vector<std::string> keys = {"coronavirus", "andy beshear",
                                         "kentucky",    "louisville",
                                         "vaccine",     "frankfort"};
  for (const std::string& key : keys) {
    EXPECT_EQ(one.ShardOfFolded(key), 0);
    const int s = four.ShardOfFolded(key);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    // Pure function of the key bytes: a second router with the same count
    // agrees (the checkpoint-portability property).
    EXPECT_EQ(ShardRouter(4).ShardOfFolded(key), s);
  }
  // The hash covers the whole key, not a prefix: extending a phrase may move
  // it, and distinct keys are not all clumped into one shard.
  std::vector<int> counts(4, 0);
  for (const std::string& key : keys) ++counts[four.ShardOfFolded(key)];
  int populated = 0;
  for (int c : counts) populated += c > 0 ? 1 : 0;
  EXPECT_GE(populated, 2);
}

// --------------------------------------------------- ShardedGlobalState --

TEST(ShardedGlobalStateTest, GidsAreDenseInDiscoveryOrderAtAnyShardCount) {
  ShardedGlobalState single(1);
  ShardedGlobalState sharded(3);
  const std::vector<std::vector<std::string>> phrases = {
      {"coronavirus"}, {"andy", "beshear"}, {"kentucky"},
      {"louisville"},  {"vaccine"},         {"frankfort"}};
  for (size_t i = 0; i < phrases.size(); ++i) {
    // Discovery order defines the gid in both layouts.
    EXPECT_EQ(single.Insert(phrases[i]), static_cast<int>(i));
    EXPECT_EQ(sharded.Insert(phrases[i]), static_cast<int>(i));
    // Re-insertion returns the existing gid.
    EXPECT_EQ(sharded.Insert(phrases[i]), static_cast<int>(i));
  }
  ASSERT_EQ(sharded.num_candidates(), 6);
  EXPECT_EQ(sharded.num_live_candidates(), 6);
  for (size_t i = 0; i < phrases.size(); ++i) {
    EXPECT_EQ(sharded.Find(phrases[i]), static_cast<int>(i));
    EXPECT_EQ(sharded.CandidateKey(static_cast<int>(i)),
              single.CandidateKey(static_cast<int>(i)));
    // The gid→(shard, local) index agrees with the router.
    const GidRef ref = sharded.ref(static_cast<int>(i));
    EXPECT_EQ(ref.shard, sharded.router().ShardOfFolded(
                             sharded.CandidateKey(static_cast<int>(i))));
    EXPECT_EQ(sharded.ShardOf(static_cast<int>(i)), ref.shard);
    // Nothing was pruned, so each shard's local ids are dense.
    EXPECT_LT(ref.local, sharded.ShardLiveCandidates(ref.shard));
  }
  // Per-shard live counts partition the candidate set.
  int total = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    total += sharded.ShardLiveCandidates(s);
  }
  EXPECT_EQ(total, sharded.num_live_candidates());

  // The lockstep multi-trie scan equals the single-trie scan.
  const std::vector<Token> tokens =
      TweetTokenizer().Tokenize("Andy Beshear discussed the Coronavirus");
  const std::vector<ExtractedMention> from_single = single.Extract(tokens);
  const std::vector<ExtractedMention> from_sharded = sharded.Extract(tokens);
  ASSERT_EQ(from_single.size(), from_sharded.size());
  for (size_t m = 0; m < from_single.size(); ++m) {
    EXPECT_EQ(from_single[m].span.begin, from_sharded[m].span.begin);
    EXPECT_EQ(from_single[m].span.end, from_sharded[m].span.end);
    EXPECT_EQ(from_single[m].candidate_id, from_sharded[m].candidate_id);
  }
}

// ------------------------------------------------------ Pipeline output --

TEST(ShardedPipelineTest, DeepPipelineOutputBitIdenticalAcrossShardCounts) {
  Dataset d = ShardStream(4);
  PhraseEmbedder pe(8, 8);

  // Retention is one more input. BuildClassifierExamples reads each gid's
  // key, length and retained mention embeddings, and runs one shard only, so
  // those must match float for float at any shard and thread count.
  for (const bool retain : {false, true}) {
    SCOPED_TRACE(retain ? "retaining mention embeddings" : "pooled only");
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    opt.batch_size = 4;
    opt.retain_mention_embeddings = retain;

    MockLocalSystem mock1(ShardRules(), /*dim=*/8);
    Globalizer single(&mock1, &pe, nullptr, opt);
    GlobalizerOutput out1 = single.Run(d).value();
    const ShardedGlobalState& state = single.global_state();
    size_t retained = 0;
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      if (!state.Contains(gid)) continue;
      retained += state.at(gid).mention_embeddings.size();
    }
    EXPECT_EQ(retained > 0, retain);

    for (const auto& [shards, threads] :
         {std::pair{2, 1}, std::pair{3, 4}, std::pair{4, 1}, std::pair{7, 1}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      GlobalizerOptions sharded_opt = opt;
      sharded_opt.shard_count = shards;
      sharded_opt.num_threads = threads;
      MockLocalSystem mock(ShardRules(), /*dim=*/8);
      Globalizer sharded(&mock, &pe, nullptr, sharded_opt);
      GlobalizerOutput out = sharded.Run(d).value();
      EXPECT_EQ(MentionDigest(out1), MentionDigest(out));
      EXPECT_EQ(out1.num_candidates, out.num_candidates);
      ExpectSameGlobalState(single.global_state(), sharded.global_state());
    }
  }
}

TEST(ShardedPipelineTest, ClassifiedLabelsIdenticalAcrossShardCounts) {
  Dataset d = ShardStream(3);
  EntityClassifier clf({.input_dim = 7});

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.batch_size = 4;

  MockLocalSystem mock1(ShardRules());
  Globalizer single(&mock1, nullptr, &clf, opt);
  GlobalizerOutput out1 = single.Run(d).value();

  GlobalizerOptions sharded_opt = opt;
  sharded_opt.shard_count = 4;
  MockLocalSystem mock4(ShardRules());
  Globalizer sharded(&mock4, nullptr, &clf, sharded_opt);
  GlobalizerOutput out4 = sharded.Run(d).value();

  EXPECT_EQ(MentionDigest(out1), MentionDigest(out4));
  EXPECT_EQ(out1.num_entity, out4.num_entity);
  EXPECT_EQ(out1.num_non_entity, out4.num_non_entity);
  EXPECT_EQ(out1.num_ambiguous, out4.num_ambiguous);
  ExpectSameGlobalState(single.global_state(), sharded.global_state());
}

TEST(ShardedPipelineTest, ParallelShardAwareMergeMatchesSerialSingleShard) {
  Dataset d = ShardStream(8);
  PhraseEmbedder pe(8, 8);

  GlobalizerOptions serial;
  serial.mode = GlobalizerOptions::Mode::kMentionExtraction;
  serial.batch_size = 8;
  MockLocalSystem mock1(ShardRules(), /*dim=*/8);
  Globalizer reference(&mock1, &pe, nullptr, serial);
  GlobalizerOutput ref_out = reference.Run(d).value();

  // 4 shards × 4 worker threads: the merge pools different shards on
  // different workers, yet the result is bit-identical to the serial
  // single-shard run.
  GlobalizerOptions parallel = serial;
  parallel.shard_count = 4;
  parallel.num_threads = 4;
  MockLocalSystem mock4(ShardRules(), /*dim=*/8);
  Globalizer sharded(&mock4, &pe, nullptr, parallel);
  GlobalizerOutput out = sharded.Run(d).value();

  EXPECT_EQ(MentionDigest(ref_out), MentionDigest(out));
  ExpectSameGlobalState(reference.global_state(), sharded.global_state());
}

// -------------------------------------------------------- Checkpoint v5 --

TEST(ShardCheckpointTest, V5RoundTripsAcrossShardCountChanges) {
  Dataset d = ShardStream(4);
  const std::string path = TempPath("emd_shard_ckpt_v5.bin");

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 4;
  opt.shard_count = 4;
  MockLocalSystem mock(ShardRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.Run(d).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  const uint32_t want_digest = MentionDigest(g.Finalize().value());

  // A v5 file written with 4 shards restores into any shard count: routing
  // is a pure function of the key, so the rebuilt partitioning — and the
  // pipeline output — match bit for bit.
  for (int shards : {4, 2, 1}) {
    GlobalizerOptions ropt = opt;
    ropt.shard_count = shards;
    MockLocalSystem rmock(ShardRules());
    Globalizer restored(&rmock, nullptr, nullptr, ropt);
    ASSERT_TRUE(restored.RestoreCheckpoint(path).ok()) << shards << " shards";
    EXPECT_EQ(restored.processed_tweets(), g.processed_tweets());
    ExpectSameGlobalState(g.global_state(), restored.global_state());
    for (int gid = 0; gid < restored.global_state().num_candidates(); ++gid) {
      EXPECT_EQ(restored.global_state().ShardOf(gid),
                restored.global_state().router().ShardOfFolded(
                    restored.global_state().CandidateKey(gid)));
    }
    EXPECT_EQ(MentionDigest(restored.Finalize().value()), want_digest);
  }
}

TEST(ShardCheckpointTest, EvictionHolesSurviveShardedRoundTrip) {
  Dataset d = ShardStream(8);
  const std::string path = TempPath("emd_shard_ckpt_evicted.bin");

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 4;
  opt.shard_count = 4;
  opt.memory.budget_bytes = 864;  // tiny: evict during the stream
  opt.memory.min_retain_tweets = 0;
  MockLocalSystem mock(ShardRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.Run(d).ok());
  ASSERT_GT(g.memory_governor().stats().evicted_candidates, 0u);
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  // The gid space — including tombstoned holes spread across shards — and
  // the evicted labels survive a restore into a different count.
  for (int shards : {4, 1}) {
    GlobalizerOptions ropt = opt;
    ropt.shard_count = shards;
    MockLocalSystem rmock(ShardRules());
    Globalizer restored(&rmock, nullptr, nullptr, ropt);
    ASSERT_TRUE(restored.RestoreCheckpoint(path).ok()) << shards << " shards";
    ExpectSameGlobalState(g.global_state(), restored.global_state());
    EXPECT_EQ(restored.memory_governor().stats().evicted_candidates,
              g.memory_governor().stats().evicted_candidates);
    EXPECT_EQ(MentionDigest(restored.Finalize().value()),
              MentionDigest(g.Finalize().value()));
  }
}

/// Hand-crafted single-trie (version 4) checkpoint: one processed tweet, one
/// live candidate "coronavirus" (gid 0), and one eviction hole (gid 1) whose
/// final label was kNonEntity. The v5 reader must rebuild the gid space under
/// the configured shard layout.
std::string BuildV4Checkpoint() {
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);  // 'EMDG'
  binio::AppendU32(&buf, 4);           // version
  binio::AppendU8(&buf, 1);            // mode = kMentionExtraction
  binio::AppendU64(&buf, 1);           // processed_tweets
  binio::AppendU32(&buf, 0);           // num_quarantined
  binio::AppendU32(&buf, 0);           // num_degraded
  binio::AppendU8(&buf, 0);            // classifier_degraded
  binio::AppendU32(&buf, 0);           // num_retries
  binio::AppendU32(&buf, 0);           // num_fallback
  binio::AppendU32(&buf, 0);           // num_dead_lettered
  binio::AppendU32(&buf, 0);           // breaker_trips
  binio::AppendU32(&buf, 0);           // breaker_recoveries
  // v4 governor lifetime totals: the one eviction that left the gid-1 hole.
  binio::AppendU64(&buf, 1);           // evicted_candidates
  binio::AppendU64(&buf, 0);           // pruned_nodes
  binio::AppendU64(&buf, 0);           // trimmed_tweets
  binio::AppendU64(&buf, 0);           // reclassified

  // v4 single-trie candidate keys: per-id live byte, keys only when live.
  binio::AppendU32(&buf, 2);
  binio::AppendU8(&buf, 1);  // id 0 live
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU32(&buf, 1);  // token length
  binio::AppendU8(&buf, 0);   // id 1 tombstoned

  // TweetBase: one record with the trimmed byte v4 added.
  binio::AppendU64(&buf, 1);
  binio::AppendI64(&buf, 42);  // tweet_id
  binio::AppendI32(&buf, 7);   // sentence_id
  binio::AppendU8(&buf, 0);    // quarantined
  binio::AppendU8(&buf, 0);    // trimmed
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

  // CandidateBase: present slot for gid 0, evicted-label byte for gid 1.
  binio::AppendU64(&buf, 2);
  binio::AppendU8(&buf, 1);  // gid 0 present
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
  binio::AppendF64(&buf, 1.0);  // embedding_weight (v4)
  binio::AppendU64(&buf, 0);    // last_update_pos (v4)
  binio::AppendU64(&buf, 0);    // last_mention_pos (v4)
  binio::AppendU8(&buf, 0);     // label = kUnlabeled
  binio::AppendF32(&buf, -1.f); // entity_probability
  binio::AppendU32(&buf, 0);    // mention_embeddings
  binio::AppendU8(&buf, 0);     // gid 1 absent
  binio::AppendU8(&buf, static_cast<uint8_t>(CandidateLabel::kNonEntity) +
                            1);  // evicted label

  // v3+ metrics block: empty.
  binio::AppendU32(&buf, 0);
  binio::AppendU32(&buf, 0);

  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  return buf;
}

TEST(ShardCheckpointTest, V4CheckpointRestoresIntoShardedBuild) {
  const std::string path = TempPath("emd_shard_ckpt_v4.bin");
  ASSERT_TRUE(WriteStringToFile(path, BuildV4Checkpoint()).ok());

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;

  // Default build: everything lands in shard 0, exactly the layout the file
  // was written with.
  MockLocalSystem mock1(ShardRules());
  Globalizer single(&mock1, nullptr, nullptr, opt);
  ASSERT_TRUE(single.RestoreCheckpoint(path).ok());
  EXPECT_EQ(single.global_state().ShardOf(0), 0);
  EXPECT_EQ(single.global_state().ShardOf(1), 0);

  // Sharded build: the live key re-routes by hash; the tombstone re-homes to
  // shard 0 (where the unsharded layout kept it). Gids are unchanged.
  GlobalizerOptions sharded_opt = opt;
  sharded_opt.shard_count = 4;
  MockLocalSystem mock4(ShardRules());
  Globalizer sharded(&mock4, nullptr, nullptr, sharded_opt);
  ASSERT_TRUE(sharded.RestoreCheckpoint(path).ok());

  for (Globalizer* g : {&single, &sharded}) {
    EXPECT_EQ(g->processed_tweets(), 1u);
    ASSERT_EQ(g->global_state().num_candidates(), 2);
    EXPECT_FALSE(g->global_state().IsTombstone(0));
    EXPECT_TRUE(g->global_state().IsTombstone(1));
    ASSERT_TRUE(g->global_state().Contains(0));
    EXPECT_EQ(g->global_state().CandidateKey(0), "coronavirus");
    // Pre-governance fields restored verbatim from the v4 file.
    EXPECT_EQ(g->global_state().at(0).embedding_weight, 1.0);
    EXPECT_TRUE(g->global_state().WasEvicted(1));
    EXPECT_EQ(g->global_state().Label(1), CandidateLabel::kNonEntity);
    EXPECT_EQ(g->memory_governor().stats().evicted_candidates, 1u);
  }
  EXPECT_EQ(sharded.global_state().ShardOf(0),
            sharded.global_state().router().ShardOfFolded("coronavirus"));
  EXPECT_EQ(sharded.global_state().ShardOf(1), 0);
  ExpectSameGlobalState(single.global_state(), sharded.global_state());
  EXPECT_EQ(MentionDigest(single.Finalize().value()),
            MentionDigest(sharded.Finalize().value()));

  // Re-saving from the sharded build writes a v5 file that restores into a
  // single-shard build with the same output: no one-way upgrade.
  const std::string v5_path = TempPath("emd_shard_ckpt_v4_resaved.bin");
  ASSERT_TRUE(sharded.SaveCheckpoint(v5_path).ok());
  MockLocalSystem mock_back(ShardRules());
  Globalizer back(&mock_back, nullptr, nullptr, opt);
  ASSERT_TRUE(back.RestoreCheckpoint(v5_path).ok());
  ExpectSameGlobalState(sharded.global_state(), back.global_state());
  EXPECT_EQ(MentionDigest(back.Finalize().value()),
            MentionDigest(sharded.Finalize().value()));
}

TEST(ShardCheckpointTest, VersionSkewErrorNamesFoundAndSupportedVersions) {
  const std::string path = TempPath("emd_shard_ckpt_v6.bin");
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);
  binio::AppendU32(&buf, 6);  // the first future version
  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  ASSERT_TRUE(WriteStringToFile(path, buf).ok());

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.shard_count = 4;
  MockLocalSystem mock(ShardRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  const Status st = g.RestoreCheckpoint(path);
  ASSERT_FALSE(st.ok());
  const std::string message = st.ToString();
  EXPECT_NE(message.find("unsupported format version 6"), std::string::npos)
      << message;
  EXPECT_NE(message.find("versions 1 through 5"), std::string::npos) << message;
  EXPECT_NE(message.find("newer build"), std::string::npos) << message;
}

// ---------------------------------------------------- MultiStreamService --

TEST(MultiStreamServiceTest, ResolvesNamesAndRejectsDuplicates) {
  MultiStreamOptions mopt;
  mopt.globalizer.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MultiStreamService service(mopt);
  MockLocalSystem health(ShardRules());
  MockLocalSystem politics(ShardRules());

  const int health_id =
      service.RegisterStream("health", &health, nullptr, nullptr).value();
  const int politics_id =
      service.RegisterStream("politics", &politics, nullptr, nullptr).value();
  EXPECT_EQ(health_id, 0);
  EXPECT_EQ(politics_id, 1);
  EXPECT_EQ(service.num_streams(), 2);
  EXPECT_EQ(service.stream_name(1), "politics");

  EXPECT_EQ(service.ResolveStream("health"), 0);
  EXPECT_EQ(service.ResolveStream("politics"), 1);
  // Unknown and empty names route to the default stream — the serving edge
  // keeps accepting tweets from clients configured before registration.
  EXPECT_EQ(service.ResolveStream("sports"), 0);
  EXPECT_EQ(service.ResolveStream(""), 0);

  MockLocalSystem dup(ShardRules());
  EXPECT_FALSE(service.RegisterStream("health", &dup, nullptr, nullptr).ok());
  EXPECT_FALSE(service.RegisterStream("", &dup, nullptr, nullptr).ok());
}

TEST(MultiStreamServiceTest, MixedBatchOutputMatchesStandalonePipelines) {
  MultiStreamOptions mopt;
  mopt.globalizer.mode = GlobalizerOptions::Mode::kMentionExtraction;
  mopt.globalizer.shard_count = 2;
  MultiStreamService service(mopt);
  MockLocalSystem sys_a(ShardRules());
  MockLocalSystem sys_b(ShardRules());
  ASSERT_TRUE(service.RegisterStream("a", &sys_a, nullptr, nullptr).ok());
  ASSERT_TRUE(service.RegisterStream("b", &sys_b, nullptr, nullptr).ok());

  Dataset a = ShardStream(2);
  Dataset b = ShardStream(2);
  // Stream b sees the same texts under different tweet ids — distinct
  // per-stream TweetBases must never collide.
  for (AnnotatedTweet& t : b.tweets) {
    t.tweet_id += 1000;
    t.stream_id = 1;
  }

  // Interleave the two streams into mixed batches; ProcessBatch groups by
  // stream_id, so each call runs one cycle per stream with its own tweets.
  for (size_t i = 0; i < a.tweets.size(); i += 4) {
    std::vector<AnnotatedTweet> mixed;
    for (size_t k = i; k < i + 4; ++k) {
      mixed.push_back(b.tweets[k]);  // out of stream order on purpose
      mixed.push_back(a.tweets[k]);
    }
    ASSERT_TRUE(
        service.ProcessBatch(std::span<const AnnotatedTweet>(mixed)).ok());
  }

  // Standalone reference pipelines fed the same per-stream groups.
  MockLocalSystem ref_sys_a(ShardRules());
  MockLocalSystem ref_sys_b(ShardRules());
  Globalizer ref_a(&ref_sys_a, nullptr, nullptr, mopt.globalizer);
  Globalizer ref_b(&ref_sys_b, nullptr, nullptr, mopt.globalizer);
  for (size_t i = 0; i < a.tweets.size(); i += 4) {
    ASSERT_TRUE(
        ref_a.ProcessBatch(std::span<const AnnotatedTweet>(a.tweets.data() + i, 4))
            .ok());
    ASSERT_TRUE(
        ref_b.ProcessBatch(std::span<const AnnotatedTweet>(b.tweets.data() + i, 4))
            .ok());
  }

  EXPECT_EQ(MentionDigest(service.stream(0).Finalize().value()),
            MentionDigest(ref_a.Finalize().value()));
  EXPECT_EQ(MentionDigest(service.stream(1).Finalize().value()),
            MentionDigest(ref_b.Finalize().value()));
  ExpectSameGlobalState(service.stream(0).global_state(),
                        ref_a.global_state());
  ExpectSameGlobalState(service.stream(1).global_state(),
                        ref_b.global_state());

  // Whole-service aggregates: per-shard-index sums over both streams.
  const ServiceSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.streams.size(), 2u);
  EXPECT_EQ(snap.total_tweets,
            snap.streams[0].tweets + snap.streams[1].tweets);
  ASSERT_EQ(snap.shard_candidates.size(), 2u);
  int64_t live = 0;
  for (int64_t c : snap.shard_candidates) live += c;
  EXPECT_EQ(live, ref_a.global_state().num_live_candidates() +
                      ref_b.global_state().num_live_candidates());

  // The cross-stream query path sees the phrase once per stream.
  const auto hits = service.QueryCandidate({"coronavirus"});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].stream_id, 0);
  EXPECT_EQ(hits[1].stream_id, 1);
  EXPECT_GT(hits[0].num_mentions, 0u);
}

TEST(MultiStreamServiceTest, NoisyStreamEvictsOnlyItsOwnCandidates) {
  // Victim: generous budget. Noisy neighbour: a budget far below its working
  // set, so the governor evicts aggressively.
  MultiStreamOptions mopt;
  mopt.globalizer.mode = GlobalizerOptions::Mode::kMentionExtraction;
  mopt.globalizer.batch_size = 4;
  mopt.globalizer.shard_count = 2;
  GlobalizerOptions noisy_opt = mopt.globalizer;
  noisy_opt.memory.budget_bytes = 960;
  noisy_opt.memory.min_retain_tweets = 0;

  MultiStreamService service(mopt);
  MockLocalSystem victim_sys(ShardRules());
  MockLocalSystem noisy_sys(ShardRules());
  ASSERT_TRUE(service.RegisterStream("victim", &victim_sys, nullptr, nullptr).ok());
  ASSERT_TRUE(
      service.RegisterStream("noisy", &noisy_sys, nullptr, nullptr, noisy_opt)
          .ok());

  Dataset victim_tweets = ShardStream(4);
  Dataset noisy_tweets = ShardStream(8);
  for (AnnotatedTweet& t : noisy_tweets.tweets) {
    t.tweet_id += 5000;
    t.stream_id = 1;
  }

  // One victim tweet per mixed batch, alongside a slab of noisy traffic —
  // the victim's per-cycle grouping is the same as in the solo run below.
  size_t noisy_pos = 0;
  for (size_t i = 0; i < victim_tweets.tweets.size(); ++i) {
    std::vector<AnnotatedTweet> mixed;
    mixed.push_back(victim_tweets.tweets[i]);
    for (int k = 0; k < 2 && noisy_pos < noisy_tweets.tweets.size(); ++k) {
      mixed.push_back(noisy_tweets.tweets[noisy_pos++]);
    }
    ASSERT_TRUE(
        service.ProcessBatch(std::span<const AnnotatedTweet>(mixed)).ok());
  }

  // Solo victim reference: the identical tweet sequence with no neighbour.
  MockLocalSystem solo_sys(ShardRules());
  Globalizer solo(&solo_sys, nullptr, nullptr, mopt.globalizer);
  for (size_t i = 0; i < victim_tweets.tweets.size(); ++i) {
    ASSERT_TRUE(solo.ProcessBatch(std::span<const AnnotatedTweet>(
                                      &victim_tweets.tweets[i], 1))
                    .ok());
  }

  const ServiceSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.streams.size(), 2u);
  // The noisy stream blew its budget and paid for it alone.
  EXPECT_GT(snap.streams[1].evicted, 0u);
  EXPECT_EQ(snap.streams[0].evicted, 0u);
  EXPECT_EQ(service.stream(0).memory_governor().stats().evicted_candidates, 0u);
  // The victim's output is bit-identical to running without the neighbour.
  EXPECT_EQ(MentionDigest(service.stream(0).Finalize().value()),
            MentionDigest(solo.Finalize().value()));
  ExpectSameGlobalState(service.stream(0).global_state(), solo.global_state());
}

TEST(MultiStreamServiceTest, CheckpointsRoundTripPerStream) {
  const std::string dir = TempPath("emd_multistream_ckpts");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(CreateDirs(dir).ok());

  MultiStreamOptions mopt;
  mopt.globalizer.mode = GlobalizerOptions::Mode::kMentionExtraction;
  mopt.globalizer.shard_count = 2;
  MultiStreamService service(mopt);
  MockLocalSystem sys_a(ShardRules());
  MockLocalSystem sys_b(ShardRules());
  ASSERT_TRUE(service.RegisterStream("a", &sys_a, nullptr, nullptr).ok());
  ASSERT_TRUE(service.RegisterStream("b", &sys_b, nullptr, nullptr).ok());

  Dataset a = ShardStream(2);
  Dataset b = ShardStream(3);
  for (AnnotatedTweet& t : b.tweets) {
    t.tweet_id += 1000;
    t.stream_id = 1;
  }
  std::vector<AnnotatedTweet> mixed(a.tweets);
  mixed.insert(mixed.end(), b.tweets.begin(), b.tweets.end());
  ASSERT_TRUE(
      service.ProcessBatch(std::span<const AnnotatedTweet>(mixed)).ok());
  ASSERT_TRUE(service.SaveCheckpoints(dir).ok());

  // Restore into a fresh service — plus a stream registered after the save,
  // which has no file and simply starts empty.
  MultiStreamService resumed(mopt);
  MockLocalSystem rsys_a(ShardRules());
  MockLocalSystem rsys_b(ShardRules());
  MockLocalSystem rsys_c(ShardRules());
  ASSERT_TRUE(resumed.RegisterStream("a", &rsys_a, nullptr, nullptr).ok());
  ASSERT_TRUE(resumed.RegisterStream("b", &rsys_b, nullptr, nullptr).ok());
  ASSERT_TRUE(resumed.RegisterStream("c", &rsys_c, nullptr, nullptr).ok());
  ASSERT_TRUE(resumed.RestoreCheckpoints(dir).ok());

  EXPECT_EQ(resumed.stream(0).processed_tweets(),
            service.stream(0).processed_tweets());
  EXPECT_EQ(resumed.stream(1).processed_tweets(),
            service.stream(1).processed_tweets());
  EXPECT_EQ(resumed.stream(2).processed_tweets(), 0u);
  ExpectSameGlobalState(service.stream(0).global_state(),
                        resumed.stream(0).global_state());
  ExpectSameGlobalState(service.stream(1).global_state(),
                        resumed.stream(1).global_state());
  EXPECT_EQ(MentionDigest(resumed.stream(1).Finalize().value()),
            MentionDigest(service.stream(1).Finalize().value()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace emd
