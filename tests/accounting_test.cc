// Byte-accounting tests (label: memory). Every store keeps its per-element
// heap bytes as running sums so ApproxBytes() is O(1); RecountBytes() is the
// full walk those sums must always equal. Randomized churn drives each store
// — and then the whole governed pipeline — through every footprint-changing
// mutation, asserting running total == recount after every operation:
//   * SymbolTable intern / release with id recycling;
//   * CTrie insert / prune / tombstone with node-slot recycling;
//   * CandidateBase creation, decayed pooling with retained mention
//     embeddings, and eviction;
//   * TweetBase append, in-place id writes, suffix mention rewrites and
//     prefix token trims across segments, against a naive per-record model
//     of the mentions and tokens; a rewrite that is not a suffix is
//     refused; short tokens account at most sizeof(Token) each;
//   * ShardedGlobalState at shards {1, 4, 13} with per-shard pooling from
//     {1, 4} threads, evict + prune recycling symbol ids;
//   * the Globalizer under a byte budget at shards {1, 4, 13} x threads
//     {1, 4}, checkpoint restore into a different shard count, and
//     save -> restore -> save reproducing the state bytes, for a pipeline
//     run and for the golden v5 fixture; token offsets and mention spans
//     past 32 bits are refused on restore;
//   * the governor's figure, evictions and surviving gids after every batch
//     at shards {2, 4, 13} x threads {1, 4} against one shard;
//   * a resumed 3-shard run retaining mention embeddings against an
//     uninterrupted one (record bytes and the next checkpoint state);
//   * every live candidate's mention count and recency against the
//     TweetBase, ungoverned and evicting, at shards {1, 3} x threads {1, 4};
//   * kLocalOnly Finalize output against the local system's own spans (and
//     a deep run's TweetBase bytes against a non-deep one's: no token
//     embeddings reach the store), and the merge's locally_detected flags
//     against them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "byte_accounting.h"
#include "churn_stream.h"
#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/global_state.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "core/tweet_base.h"
#include "mock_local_system.h"
#include "obs/metrics.h"
#include "stream/datasets.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace emd {
namespace {

// ------------------------------------------------------------ Fixtures --

Mat RandomEmbedding(Rng* rng, int dim) {
  Mat m(1, dim);
  for (int j = 0; j < dim; ++j) m(0, j) = rng->NextFloat(-1.f, 1.f);
  return m;
}

/// `opt` with every mention embedding kept in its record.
GlobalizerOptions Retaining(GlobalizerOptions opt) {
  opt.retain_mention_embeddings = true;
  return opt;
}

// -------------------------------------------------------- Single stores --

TEST(AccountingTest, SymbolTableInternAndReleaseWithIdRecycling) {
  Rng rng(3);
  SymbolTable symbols;
  std::vector<int32_t> held;  // one entry per reference taken
  for (int step = 0; step < 4000; ++step) {
    if (held.empty() || rng.NextBernoulli(0.55)) {
      held.push_back(symbols.Acquire(Word(&rng)));
    } else {
      const size_t k = rng.NextU64(held.size());
      symbols.Release(held[k]);
      held[k] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(symbols.ApproxBytes(), symbols.RecountBytes()) << "step " << step;
  }
  for (int32_t sym : held) symbols.Release(sym);
  EXPECT_EQ(symbols.num_live(), 0);
  EXPECT_EQ(symbols.ApproxBytes(), symbols.RecountBytes());
}

TEST(AccountingTest, CTrieInsertPruneAndTombstones) {
  Rng rng(5);
  SymbolTable symbols;
  CTrie trie(&symbols);
  std::vector<int> live;
  for (int step = 0; step < 3000; ++step) {
    const double r = rng.NextDouble();
    if (live.empty() || r < 0.5) {
      const int id = trie.Insert(Phrase(&rng));
      if (id == trie.num_candidates() - 1) live.push_back(id);
    } else if (r < 0.97) {
      const size_t k = rng.NextU64(live.size());
      trie.Prune(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      trie.AppendTombstone();
    }
    ASSERT_EQ(trie.ApproxBytes(), trie.RecountBytes()) << "step " << step;
    ASSERT_EQ(symbols.ApproxBytes(), symbols.RecountBytes()) << "step " << step;
  }

  // A key charges only its heap allocation: one short enough to sit inside
  // its entry slot's std::string adds no bytes beyond the slot. Each probe
  // registers a prefix of a known phrase (no node, no edge) while the entry
  // vectors have room, so the key is the only term that can move.
  SymbolTable probe_symbols;
  CTrie probe(&probe_symbols);
  const std::string long_token(40, 'k');
  for (const std::vector<std::string>& phrase :
       std::vector<std::vector<std::string>>{{"andy", "beshear"},
                                             {long_token, "office"},
                                             {"kentucky"},
                                             {"frankfort"},
                                             {"louisville"}}) {
    probe.Insert(phrase);
  }
  size_t before = probe.ApproxBytes();
  const int short_id = probe.Insert({"andy"});
  EXPECT_EQ(probe.ApproxBytes(), before) << "a short key added key bytes";
  before = probe.ApproxBytes();
  const int long_id = probe.Insert({long_token});
  EXPECT_EQ(probe.ApproxBytes() - before,
            probe.CandidateKey(long_id).capacity());
  EXPECT_EQ(CTrie::KeyBytes(probe.CandidateKey(short_id)), 0u);
  EXPECT_EQ(probe.ApproxBytes(), probe.RecountBytes());
}

TEST(AccountingTest, CandidateBaseDecayedPoolingRetentionAndEviction) {
  for (const bool retain : {false, true}) {
    SCOPED_TRACE(retain ? "retained embeddings" : "pooled only");
    Rng rng(7);
    CandidateBase base(/*decay_half_life_tweets=*/16, retain);
    int next_id = 0;
    std::vector<int> live;
    for (int step = 0; step < 3000; ++step) {
      const double r = rng.NextDouble();
      if (live.empty() || r < 0.2) {
        base.GetOrCreate(next_id);
        live.push_back(next_id++);
      } else if (r < 0.9) {
        // An empty embedding records the mention without pooling it.
        const Mat emb = rng.NextBernoulli(0.1) ? Mat() : RandomEmbedding(&rng, 6);
        base.AddMention(live[rng.NextU64(live.size())],
                        static_cast<uint64_t>(step), {emb.data(), emb.size()});
      } else {
        const size_t k = rng.NextU64(live.size());
        base.Evict(live[k]);
        live[k] = live.back();
        live.pop_back();
      }
      ASSERT_EQ(base.ApproxBytes(), base.RecountBytes()) << "step " << step;
    }
  }
}

std::vector<RecordedMention> RandomMentions(Rng* rng, uint64_t max_count) {
  std::vector<RecordedMention> mentions(rng->NextU64(max_count + 1));
  for (RecordedMention& m : mentions) {
    const size_t begin = rng->NextU64(20);
    m.span = TokenSpan{begin, begin + 1 + rng->NextU64(3)};
    m.candidate_id = rng->NextInt(-1, 500);
    m.locally_detected = rng->NextBernoulli(0.5);
  }
  return mentions;
}

void ExpectSameMentions(std::span<const RecordedMention> got,
                        const std::vector<RecordedMention>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].span, want[k].span) << "mention " << k;
    EXPECT_EQ(got[k].candidate_id, want[k].candidate_id) << "mention " << k;
    EXPECT_EQ(got[k].locally_detected, want[k].locally_detected)
        << "mention " << k;
  }
}

/// `gid`'s postings as (record, position in the flat mention array), newest
/// first.
std::vector<std::pair<size_t, uint32_t>> Postings(const TweetBase& tweets,
                                                  int gid) {
  std::vector<std::pair<size_t, uint32_t>> out;
  tweets.ForEachMentionOf(
      gid, [&](size_t record, uint32_t pos) { out.emplace_back(record, pos); });
  return out;
}

// The flat mention array, its postings and the segmented token store
// against a naive per-record model, under both operations that change a
// TweetBase: append and prefix token trims. The stream crosses segment
// boundaries, and a trim may end inside a segment.
TEST(AccountingTest, TweetBaseAppendAndTrim) {
  Rng rng(11);
  TweetBase tweets;
  std::vector<std::vector<RecordedMention>> model;
  std::vector<std::vector<Token>> model_tokens;
  std::vector<long> model_ids;
  size_t trimmed = 0;
  for (int step = 0; step < 4000; ++step) {
    const double r = rng.NextDouble();
    if (tweets.size() == 0 || r < 0.9) {
      std::string text;
      for (int w = rng.NextInt(0, 12); w > 0; --w) text += Word(&rng) + " ";
      model_tokens.push_back(TweetTokenizer().Tokenize(text));
      model.push_back(RandomMentions(&rng, 3));
      TweetRecord rec;
      rec.tweet_id = step;
      model_ids.push_back(step);
      ASSERT_EQ(tweets.Add(rec, model_tokens.back(), model.back()),
                model.size() - 1);
    } else {
      const size_t end = trimmed + rng.NextU64(tweets.size() - trimmed + 1);
      EXPECT_EQ(tweets.TrimTokens(end), end - trimmed);
      for (size_t i = trimmed; i < end; ++i) model_tokens[i].clear();
      trimmed = end;
    }
    ASSERT_EQ(tweets.ApproxBytes(), tweets.RecountBytes()) << "step " << step;
    ASSERT_EQ(tweets.size(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameMentions(tweets.mentions(i), model[i]))
          << "step " << step << " record " << i;
    }
    if (step % 100 != 99) continue;
    // Each gid's postings: its mentions in the model, newest first, at their
    // positions in the flat array; mentions of no candidate are not listed.
    std::vector<std::vector<std::pair<size_t, uint32_t>>> want_postings(501);
    uint32_t pos = 0;
    size_t heads = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      for (const RecordedMention& m : model[i]) {
        if (m.candidate_id >= 0) {
          heads = std::max(heads, static_cast<size_t>(m.candidate_id) + 1);
          want_postings[m.candidate_id].insert(
              want_postings[m.candidate_id].begin(), {i, pos});
        }
        ++pos;
      }
    }
    EXPECT_TRUE(Postings(tweets, -1).empty());
    for (int gid = 0; gid <= 500; ++gid) {
      EXPECT_EQ(Postings(tweets, gid), want_postings[gid]) << "gid " << gid;
    }
    // The figure counts a 4 B link per mention and a 4 B head per gid.
    EXPECT_GE(tweets.ApproxBytes(),
              pos * (sizeof(RecordedMention) + sizeof(uint32_t)) +
                  heads * sizeof(uint32_t));
    for (size_t i = 0; i < model.size(); ++i) {
      EXPECT_EQ(tweets.at(i).tweet_id, model_ids[i]) << "record " << i;
      EXPECT_EQ(tweets.at(i).trimmed, i < trimmed) << "record " << i;
      const TweetBase::Tokens got = tweets.tokens(i);
      ASSERT_EQ(got.size(), model_tokens[i].size()) << "record " << i;
      for (size_t t = 0; t < got.size(); ++t) {
        const Token& want = model_tokens[i][t];
        EXPECT_EQ(got[t].text, want.text) << "record " << i << " token " << t;
        EXPECT_EQ(got[t].begin, want.begin);
        EXPECT_EQ(got[t].end, want.end);
        EXPECT_EQ(got[t].kind, want.kind);
      }
    }
  }
  ASSERT_GT(tweets.size(), 2 * TweetBase::kSegmentRecords);
}

// The stored form of short tokens: a record of k tokens of at most 15 chars
// accounts at most k x sizeof(Token) bytes more than the same record with no
// tokens, measured over a full (sealed) segment of such records. A
// std::string's inline buffer already sits inside sizeof(Token), so counting
// its capacity on top of that would count those bytes twice.
TEST(AccountingTest, ShortTokensAccountAtMostATokenEach) {
  for (const size_t k : {1, 3, 12, 40}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<Token> tokens(k);
    for (size_t t = 0; t < k; ++t) {
      tokens[t].text = std::string(1 + t % 15, 'a' + t % 26);
      tokens[t].begin = 16 * t;
      tokens[t].end = 16 * t + tokens[t].text.size();
    }
    TweetBase with, without;
    for (size_t i = 0; i < TweetBase::kSegmentRecords; ++i) {
      with.Add(TweetRecord{}, tokens);
      without.Add(TweetRecord{});
    }
    const size_t per_record = (with.ApproxBytes() - without.ApproxBytes()) /
                              TweetBase::kSegmentRecords;
    EXPECT_LE(per_record, k * sizeof(Token));
  }
}

// ---------------------------------------------------- Sharded state churn --

/// Churns one sharded state: registration, pooling (serially, or one worker
/// per shard group as in the Globalizer's phase-B merge), labels and the
/// dirty set, evict + prune, and restore-path tombstones.
void ChurnShardedState(int shards, int threads, uint64_t seed) {
  SCOPED_TRACE("S=" + std::to_string(shards) + " T=" + std::to_string(threads));
  Rng rng(seed);
  ShardedGlobalState state(shards, /*decay_half_life_tweets=*/12,
                           /*retain_mention_embeddings=*/true);
  std::vector<int> live;
  size_t pos = 0;
  int symbol_deaths = 0;
  for (int round = 0; round < 150; ++round) {
    // Registration.
    for (int k = rng.NextInt(2, 10); k > 0; --k) {
      const int gid = state.Insert(Phrase(&rng));
      if (!state.Contains(gid)) {
        state.GetOrCreate(gid);
        live.push_back(gid);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(state));
    }

    // Pooling: ops bucketed by shard and drained by `threads` workers, no
    // two of which ever touch the same shard.
    struct Op {
      int gid;
      uint64_t pos;
      Mat emb;
    };
    std::vector<std::vector<Op>> ops(static_cast<size_t>(shards));
    for (int k = rng.NextInt(5, 40); k > 0 && !live.empty(); --k) {
      const int gid = live[rng.NextU64(live.size())];
      state.MarkDirty(gid);
      ops[state.ShardOf(gid)].push_back({gid, pos, RandomEmbedding(&rng, 5)});
      pos += rng.NextU64(3);
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t s = static_cast<size_t>(t); s < ops.size();
             s += static_cast<size_t>(threads)) {
          for (const Op& op : ops[s]) {
            state.AddMention(op.gid, op.pos, {op.emb.data(), op.emb.size()});
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(state));

    // Verdicts (no footprint change, but the dirty list churns).
    for (int gid : state.DirtyGids()) {
      if (rng.NextBernoulli(0.5)) {
        state.SetLabel(gid, static_cast<CandidateLabel>(rng.NextInt(0, 3)));
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(state));

    // Evict + prune: edges drop their symbol references, dead symbol ids
    // are recycled by the next round's registrations.
    const int symbols_before = state.num_live_symbols();
    for (int k = rng.NextInt(0, 8); k > 0 && !live.empty(); --k) {
      const size_t v = rng.NextU64(live.size());
      state.Evict(live[v]);
      state.Prune(live[v]);
      live[v] = live.back();
      live.pop_back();
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(state));
    }
    symbol_deaths += std::max(0, symbols_before - state.num_live_symbols());
    if (rng.NextBernoulli(0.05)) {
      state.AppendTombstone();
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(state));
    }
  }
  EXPECT_GT(symbol_deaths, 0)
      << "no symbol died; the churn no longer exercises id recycling";
}

TEST(AccountingTest, ShardedStateChurnAtEveryShardAndThreadCount) {
  for (const int shards : {1, 4, 13}) {
    for (const int threads : {1, 4}) {
      ASSERT_NO_FATAL_FAILURE(
          ChurnShardedState(shards, threads, 100 + shards * 10 + threads));
    }
  }
}

// ------------------------------------------------- Governed pipeline --

TEST(AccountingTest, GovernedPipelineAtEveryShardAndThreadCount) {
  const Dataset d = ChurnStream(480, 41);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (const int shards : {1, 4, 13}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("S=" + std::to_string(shards) +
                   " T=" + std::to_string(threads));
      MockLocalSystem mock(ChurnRules(), /*dim=*/6);
      PhraseEmbedder pe(6, 4);
      Globalizer g(&mock, &pe, nullptr,
                   Retaining(GovernedOptions(shards, threads)));
      for (size_t b = 0; b < batches; ++b) {
        ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
        ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g)) << "batch " << b;
      }
      const GlobalizerOutput out = g.Finalize().value();
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g));
      EXPECT_GT(out.num_evicted, 0u);
      EXPECT_GT(out.num_pruned_nodes, 0u);
      EXPECT_GT(out.num_trimmed, 0u);
    }
  }
}

// The governor decides on GovernedBytes(), which charges per-shard
// structures by gid-level counts: after every batch its figure, its
// evictions and the surviving gids are those of the one-shard run, at every
// shard and thread count.
TEST(AccountingTest, GovernorFigureAndEvictionsMatchAtEveryShardCount) {
  const Dataset d = ChurnStream(480, 43);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  struct Trace {
    std::vector<size_t> governed;
    std::vector<uint64_t> evicted;
    std::vector<bool> live;
  };
  auto run = [&](int shards, int threads) {
    MockLocalSystem mock(ChurnRules(), /*dim=*/6);
    PhraseEmbedder pe(6, 4);
    Globalizer g(&mock, &pe, nullptr, GovernedOptions(shards, threads));
    Trace trace;
    for (size_t b = 0; b < batches; ++b) {
      EXPECT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
      trace.governed.push_back(g.memory_governor().governed_bytes());
      trace.evicted.push_back(g.memory_governor().stats().evicted_candidates);
    }
    const ShardedGlobalState& state = g.global_state();
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      trace.live.push_back(state.Contains(gid));
    }
    return trace;
  };
  const Trace want = run(1, 1);
  ASSERT_GT(want.evicted.back(), 0u);
  for (const int shards : {2, 4, 13}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("S=" + std::to_string(shards) +
                   " T=" + std::to_string(threads));
      const Trace got = run(shards, threads);
      EXPECT_EQ(got.governed, want.governed);
      EXPECT_EQ(got.evicted, want.evicted);
      EXPECT_EQ(got.live, want.live);
    }
  }
}

/// A candidate keeps only a count; the TweetBase keeps its mentions. For
/// every live gid, num_mentions is the number of TweetBase mentions carrying
/// it and last_mention_pos the largest tweet index among them.
void ExpectCountsMatchTheTweetBase(const Globalizer& g) {
  const ShardedGlobalState& state = g.global_state();
  const TweetBase& tweets = g.tweet_base();
  std::vector<uint32_t> count(state.num_candidates(), 0);
  std::vector<uint64_t> last(state.num_candidates(), 0);
  for (size_t i = 0; i < tweets.size(); ++i) {
    for (const RecordedMention& m : tweets.mentions(i)) {
      if (m.candidate_id < 0) continue;
      ASSERT_LT(m.candidate_id, state.num_candidates());
      ++count[m.candidate_id];
      last[m.candidate_id] = i;
    }
  }
  int live = 0;
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    ++live;
    EXPECT_EQ(state.at(gid).num_mentions, count[gid]) << "gid " << gid;
    EXPECT_EQ(state.at(gid).last_mention_pos, last[gid]) << "gid " << gid;
  }
  EXPECT_GT(live, 0);
}

TEST(AccountingTest, MentionCountsMatchTheTweetBase) {
  const Dataset d = ChurnStream(480, 53);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (const bool governed : {false, true}) {
    for (const int shards : {1, 3}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(governed ? "governed" : "ungoverned") +
                     " S=" + std::to_string(shards) +
                     " T=" + std::to_string(threads));
        GlobalizerOptions opt = GovernedOptions(shards, threads);
        if (!governed) opt.memory = MemoryGovernorOptions();
        MockLocalSystem mock(ChurnRules(), /*dim=*/6);
        PhraseEmbedder pe(6, 4);
        Globalizer g(&mock, &pe, nullptr, opt);
        for (size_t b = 0; b < batches; ++b) {
          ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
          ASSERT_NO_FATAL_FAILURE(ExpectCountsMatchTheTweetBase(g))
              << "batch " << b;
        }
        EXPECT_EQ(g.memory_governor().stats().evicted_candidates > 0,
                  governed);
      }
    }
  }
}

TEST(AccountingTest, CheckpointRestoreIntoADifferentShardCount) {
  const Dataset d = ChurnStream(320, 43);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const std::string path = ::testing::TempDir() + "emd_accounting.ckpt";
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  Globalizer saved(&mock, &pe, nullptr, Retaining(GovernedOptions(4, 4)));
  for (size_t b = 0; b < batches / 2; ++b) {
    ASSERT_TRUE(saved.ProcessBatch(BatchAt(d, b)).ok());
  }
  ASSERT_GT(saved.memory_governor().stats().evicted_candidates, 0u);
  ASSERT_TRUE(saved.SaveCheckpoint(path).ok());

  for (const int shards : {1, 13}) {
    SCOPED_TRACE("restored into S=" + std::to_string(shards));
    Globalizer g(&mock, &pe, nullptr, Retaining(GovernedOptions(shards, 4)));
    ASSERT_TRUE(g.RestoreCheckpoint(path).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g));
    for (size_t b = batches / 2; b < batches; ++b) {
      ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g)) << "batch " << b;
    }
  }
  std::remove(path.c_str());
}

/// Saves `g` to `path` and returns its state section (SaveStateSection).
std::string SavedStateSection(const Globalizer& g, const std::string& path) {
  Result<std::string> state = SaveStateSection(g, path);
  EXPECT_TRUE(state.ok()) << state.status();
  return state.ok() ? *std::move(state) : std::string();
}

// Candidates store no mention list; the writer rebuilds each from the
// TweetBase. A restored governed, sharded state with eviction holes must
// re-save to the same state bytes.
TEST(AccountingTest, SaveRestoreSaveReproducesTheStateSection) {
  const Dataset d = ChurnStream(320, 59);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const std::string path = ::testing::TempDir() + "emd_accounting_resave.ckpt";
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  Globalizer saved(&mock, &pe, nullptr, Retaining(GovernedOptions(3, 4)));
  for (size_t b = 0; b < batches; ++b) {
    ASSERT_TRUE(saved.ProcessBatch(BatchAt(d, b)).ok());
  }
  ASSERT_GT(saved.memory_governor().stats().evicted_candidates, 0u);
  const std::string first = SavedStateSection(saved, path);

  Globalizer restored(&mock, &pe, nullptr, Retaining(GovernedOptions(3, 4)));
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  const std::string second = SavedStateSection(restored, path);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second) << "state sections differ";
  std::remove(path.c_str());
}

// Retention and decay are options that reach every shard, at construction
// and at restore alike: a 3-shard run resumed from a checkpoint holds the
// same record bytes and writes the same next checkpoint state as the run
// that was never interrupted. Ungoverned, but pooling with decay (a restore
// that lost the half-life would write other embedding sums): after a resume
// a governor's evictions follow byte figures and a sweep schedule that a
// restore does not yet reproduce exactly.
TEST(AccountingTest, ResumedShardedRetainingRunMatchesAnUninterruptedOne) {
  const Dataset d = ChurnStream(320, 61);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const std::string path = ::testing::TempDir() + "emd_accounting_retain.ckpt";
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  GlobalizerOptions opt = Retaining(GovernedOptions(3, 4));
  opt.memory = MemoryGovernorOptions{
      .decay_half_life_tweets = opt.memory.decay_half_life_tweets};

  Globalizer whole(&mock, &pe, nullptr, opt);
  for (size_t b = 0; b < batches; ++b) {
    ASSERT_TRUE(whole.ProcessBatch(BatchAt(d, b)).ok());
  }

  {
    Globalizer first(&mock, &pe, nullptr, opt);
    for (size_t b = 0; b < batches / 2; ++b) {
      ASSERT_TRUE(first.ProcessBatch(BatchAt(d, b)).ok());
    }
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());
  }
  Globalizer resumed(&mock, &pe, nullptr, opt);
  ASSERT_TRUE(resumed.RestoreCheckpoint(path).ok());
  for (size_t b = batches / 2; b < batches; ++b) {
    ASSERT_TRUE(resumed.ProcessBatch(BatchAt(d, b)).ok());
  }

  const ShardedGlobalState& a = whole.global_state();
  const ShardedGlobalState& b = resumed.global_state();
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  // Record bytes: every retained embedding, float for float, and every
  // shard's byte total (restore grows the mention vectors as AddMention
  // does, so the capacities agree too).
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.ShardApproxBytes(s), b.ShardApproxBytes(s)) << "shard " << s;
  }
  size_t retained_off_shard_0 = 0;
  for (int gid = 0; gid < a.num_candidates(); ++gid) {
    ASSERT_EQ(a.Contains(gid), b.Contains(gid)) << "gid " << gid;
    if (!a.Contains(gid)) continue;
    const auto& want = a.at(gid).mention_embeddings;
    const auto& got = b.at(gid).mention_embeddings;
    ASSERT_EQ(want.size(), got.size()) << "gid " << gid;
    for (size_t m = 0; m < want.size(); ++m) {
      ASSERT_EQ(want[m].size(), got[m].size()) << "gid " << gid;
      EXPECT_EQ(std::memcmp(want[m].data(), got[m].data(), want[m].size() * sizeof(float)), 0)
          << "gid " << gid << " mention " << m;
    }
    if (a.ShardOf(gid) != 0) retained_off_shard_0 += want.size();
  }
  EXPECT_GT(retained_off_shard_0, 0u) << "only shard 0 retained embeddings";
  const std::string want = SavedStateSection(whole, path);
  const std::string got = SavedStateSection(resumed, path);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_TRUE(want == got) << "state sections differ";
  std::remove(path.c_str());
}

// Each tweet is appended to the TweetBase once, with its final mentions, so
// a restore that replays the saved records rebuilds the live store exactly.
// A governed churn run (trims and evictions) killed after any batch and
// restored into a fresh Globalizer holds the uninterrupted run's TweetBase
// at that batch: the same bytes, flags and mentions.
TEST(AccountingTest, GovernedRestoreRebuildsTheTweetBaseExactly) {
  const Dataset d = ChurnStream(240, 67);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const std::string path = ::testing::TempDir() + "emd_accounting_tweets.ckpt";
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  Globalizer whole(&mock, &pe, nullptr, GovernedOptions(3, 4));
  for (size_t b = 0; b < batches; ++b) {
    SCOPED_TRACE("killed after batch " + std::to_string(b));
    ASSERT_TRUE(whole.ProcessBatch(BatchAt(d, b)).ok());
    ASSERT_TRUE(whole.SaveCheckpoint(path).ok());
    Globalizer restored(&mock, &pe, nullptr, GovernedOptions(3, 4));
    ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
    const TweetBase& want = whole.tweet_base();
    const TweetBase& got = restored.tweet_base();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.ApproxBytes(), want.ApproxBytes());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.at(i).trimmed, want.at(i).trimmed) << "record " << i;
      const std::span<const RecordedMention> a = want.mentions(i);
      const std::span<const RecordedMention> m = got.mentions(i);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), m.begin(), m.end()))
          << "record " << i;
    }
    // The restore derives every gid's postings through Add.
    for (int gid = 0; gid < whole.global_state().num_candidates(); ++gid) {
      EXPECT_EQ(Postings(got, gid), Postings(want, gid)) << "gid " << gid;
    }
  }
  const MemoryGovernorStats& gov = whole.memory_governor().stats();
  EXPECT_GT(gov.evicted_candidates, 0u);
  EXPECT_GT(gov.trimmed_tweets, 0u);
  std::remove(path.c_str());
}

/// A hand-made v5 checkpoint (kMentionExtraction, one shard) whose gid 0 is
/// live and labelled kEntity, and whose gids 1-3 are tombstones with the
/// three kinds of evicted byte: 0 (never evicted), 1 (evicted while
/// unlabeled) and kNonEntity + 1 (evicted with a label). Its metrics block is
/// empty, so the state section is everything but the last 8 + 4 bytes. The
/// tweet's one token ends at char `token_end`; `trimmed` is its trimmed
/// byte, which a record holding tokens must not set. With `unscored_begin`
/// the tweet records a second mention, of no candidate, spanning tokens
/// [*unscored_begin, *unscored_begin + 1).
std::string BuildEvictedMarksCheckpoint(
    uint64_t token_end = 11, uint8_t trimmed = 0,
    std::optional<uint64_t> unscored_begin = std::nullopt) {
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);  // 'EMDG'
  binio::AppendU32(&buf, 5);           // version
  binio::AppendU8(&buf, 1);            // mode = kMentionExtraction
  binio::AppendU64(&buf, 1);           // processed_tweets
  binio::AppendU32(&buf, 0);           // num_quarantined
  binio::AppendU32(&buf, 0);           // num_degraded
  binio::AppendU8(&buf, 0);            // classifier_degraded
  for (int i = 0; i < 5; ++i) binio::AppendU32(&buf, 0);  // resilience
  binio::AppendU64(&buf, 2);  // evicted_candidates
  for (int i = 0; i < 3; ++i) binio::AppendU64(&buf, 0);

  // Candidate keys: gid 0 live in shard 0, gids 1-3 tombstoned.
  binio::AppendU32(&buf, 1);  // shard_count
  binio::AppendU32(&buf, 4);  // num_gids
  for (const uint8_t live : {1, 0, 0, 0}) binio::AppendU8(&buf, live);
  binio::AppendU32(&buf, 1);  // shard 0 count
  binio::AppendU32(&buf, 0);  // gid
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU32(&buf, 1);  // token length

  // TweetBase: one tweet, one mention of gid 0.
  binio::AppendU64(&buf, 1);
  binio::AppendI64(&buf, 42);  // tweet_id
  binio::AppendI32(&buf, 0);   // sentence_id
  binio::AppendU8(&buf, 0);    // quarantined
  binio::AppendU8(&buf, trimmed);
  binio::AppendU32(&buf, 1);   // tokens
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU64(&buf, token_end - 11);
  binio::AppendU64(&buf, token_end);
  binio::AppendU8(&buf, 0);   // kWord
  binio::AppendU32(&buf, unscored_begin ? 2 : 1);  // mentions
  binio::AppendU64(&buf, 0);  // span.begin
  binio::AppendU64(&buf, 1);  // span.end
  binio::AppendI32(&buf, 0);  // candidate_id
  binio::AppendU8(&buf, 1);   // locally_detected
  if (unscored_begin) {
    binio::AppendU64(&buf, *unscored_begin);
    binio::AppendU64(&buf, *unscored_begin + 1);
    binio::AppendI32(&buf, -1);
    binio::AppendU8(&buf, 0);
  }

  // CandidateBase: one slot per gid.
  binio::AppendU64(&buf, 4);
  binio::AppendU8(&buf, 1);  // gid 0 present
  binio::AppendString(&buf, "coronavirus");
  binio::AppendI32(&buf, 1);  // num_tokens
  binio::AppendU32(&buf, 1);  // mentions
  binio::AppendU64(&buf, 0);  // tweet_index
  binio::AppendU64(&buf, 0);
  binio::AppendU64(&buf, 1);
  binio::AppendU8(&buf, 1);
  binio::AppendI32(&buf, 1);  // embedding_sum [1, 2]
  binio::AppendI32(&buf, 2);
  binio::AppendF32(&buf, 1.f);
  binio::AppendF32(&buf, 2.f);
  binio::AppendI32(&buf, 1);    // embedding_count
  binio::AppendF64(&buf, 1.0);  // embedding_weight
  binio::AppendU64(&buf, 0);    // last_update_pos
  binio::AppendU64(&buf, 0);    // last_mention_pos
  binio::AppendU8(&buf, static_cast<uint8_t>(CandidateLabel::kEntity));
  binio::AppendF32(&buf, 0.75f);  // entity_probability
  binio::AppendU32(&buf, 0);      // mention_embeddings
  for (const uint8_t evicted :
       {uint8_t{0}, uint8_t{1},
        uint8_t(static_cast<uint8_t>(CandidateLabel::kNonEntity) + 1)}) {
    binio::AppendU8(&buf, 0);  // absent
    binio::AppendU8(&buf, evicted);
  }

  // Metrics block: empty.
  binio::AppendU32(&buf, 0);
  binio::AppendU32(&buf, 0);
  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  return buf;
}

// The evicted byte of a dead slot restores into the label column and the
// evicted mark: never evicted, evicted unlabeled and evicted with a label
// stay apart, and a re-save writes the same state section.
TEST(AccountingTest, SaveRestoreSaveKeepsTheEvictedMarks) {
  const std::string path = ::testing::TempDir() + "emd_accounting_marks.ckpt";
  const std::string fixture = BuildEvictedMarksCheckpoint();
  ASSERT_TRUE(WriteStringToFile(path, fixture).ok());
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MockLocalSystem mock(ChurnRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.RestoreCheckpoint(path).ok());

  const ShardedGlobalState& state = g.global_state();
  ASSERT_EQ(state.num_candidates(), 4);
  EXPECT_TRUE(state.Contains(0));
  EXPECT_FALSE(state.WasEvicted(0));
  EXPECT_EQ(state.Label(0), CandidateLabel::kEntity);
  EXPECT_FALSE(state.WasEvicted(1));
  EXPECT_EQ(state.Label(1), CandidateLabel::kUnlabeled);
  EXPECT_TRUE(state.WasEvicted(2));
  EXPECT_EQ(state.Label(2), CandidateLabel::kUnlabeled);
  EXPECT_TRUE(state.WasEvicted(3));
  EXPECT_EQ(state.Label(3), CandidateLabel::kNonEntity);
  for (int gid = 1; gid < 4; ++gid) EXPECT_TRUE(state.IsTombstone(gid));

  const std::string resaved = SavedStateSection(g, path);
  const std::string want = fixture.substr(0, fixture.size() - 8 - 4);
  ASSERT_EQ(resaved.size(), want.size());
  EXPECT_TRUE(resaved == want) << "state sections differ";
  std::remove(path.c_str());
}

// ------------------------------------------------- Golden checkpoint --

/// tests/data/golden_v5.ckpt, written by golden_checkpoint_writer.cc (the
/// command is at its top): trimmed and untrimmed records, one quarantined
/// tweet, tokens longer than 15 chars, tombstones and retained mention
/// embeddings, over 2 shards.
const char kGoldenCheckpoint[] = EMD_TEST_DATA_DIR "/golden_v5.ckpt";

// The golden fixture restores, and re-saves to the very same state section:
// the TweetBase's compact layout reads back every token it was given. So
// does a fixture the writer's pipeline writes from this tree, which pins
// GoldenOptions(): under a budget whose governor trims every tweet, or
// evicts nothing, the fresh fixture fails the coverage checks.
TEST(AccountingTest, GoldenCheckpointRestoresAndResavesItsStateSection) {
  const std::string fresh = ::testing::TempDir() + "emd_golden_fresh.ckpt";
  ASSERT_TRUE(WriteGoldenCheckpoint(fresh).ok());
  for (const std::string& file : {std::string(kGoldenCheckpoint), fresh}) {
    SCOPED_TRACE(file);
    const std::string fixture = ReadFileToString(file).value();
    MockLocalSystem mock(ChurnRules(), /*dim=*/6);
    PhraseEmbedder pe(6, 4);
    Globalizer g(&mock, &pe, nullptr, GoldenOptions());
    ASSERT_TRUE(g.RestoreCheckpoint(file).ok());

    // What the fixture covers.
    const TweetBase& tweets = g.tweet_base();
    ASSERT_EQ(tweets.size(), 112u);
    size_t trimmed = 0, quarantined = 0, long_tokens = 0;
    for (size_t i = 0; i < tweets.size(); ++i) {
      trimmed += tweets.at(i).trimmed;
      quarantined += tweets.at(i).quarantined;
      const TweetBase::Tokens tokens = tweets.tokens(i);
      for (size_t t = 0; t < tokens.size(); ++t) {
        long_tokens += tokens[t].text.size() > 15;
      }
    }
    EXPECT_GT(trimmed, 0u);
    EXPECT_LT(trimmed, tweets.size());
    EXPECT_EQ(quarantined, 1u);
    EXPECT_GT(long_tokens, 0u);
    const ShardedGlobalState& state = g.global_state();
    size_t retained = 0, tombstones = 0;
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      tombstones += state.IsTombstone(gid);
      if (state.Contains(gid)) {
        retained += state.at(gid).mention_embeddings.size();
      }
    }
    EXPECT_GT(retained, 0u);
    EXPECT_GT(tombstones, 0u);
    EXPECT_GT(state.ShardLiveCandidates(1), 0);

    const std::string path = ::testing::TempDir() + "emd_golden_resave.ckpt";
    const std::string resaved = SavedStateSection(g, path);
    std::remove(path.c_str());
    const std::string want = fixture.substr(0, fixture.size() - 8 - 4);
    ASSERT_EQ(resaved.size(), want.size());
    EXPECT_TRUE(resaved == want) << "state sections differ";
  }
  std::remove(fresh.c_str());
}

// The TweetBase keeps token source offsets in 32 bits: a checkpoint whose
// offsets do not fit is refused as corrupt rather than truncated, and so is
// a trimmed record that still holds tokens.
TEST(AccountingTest, RestoreRefusesTokenOffsetsPast32Bits) {
  const std::string path = ::testing::TempDir() + "emd_accounting_offsets.ckpt";
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MockLocalSystem mock(ChurnRules());
  auto restore = [&](const std::string& bytes) {
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    Globalizer g(&mock, nullptr, nullptr, opt);
    return g.RestoreCheckpoint(path);
  };
  const uint64_t kLast = 0xFFFFFFFFull;
  EXPECT_TRUE(restore(BuildEvictedMarksCheckpoint(kLast)).ok());
  EXPECT_EQ(restore(BuildEvictedMarksCheckpoint(kLast + 1)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(restore(BuildEvictedMarksCheckpoint(kLast + 12)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(restore(BuildEvictedMarksCheckpoint(11, /*trimmed=*/1)).code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// The TweetBase keeps mention spans in 32 bits too: a checkpoint whose span
// ends do not fit is refused as corrupt rather than truncated. The mention
// names no candidate, so only the TweetBase section reads it.
TEST(AccountingTest, RestoreRefusesMentionSpansPast32Bits) {
  const std::string path = ::testing::TempDir() + "emd_accounting_spans.ckpt";
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MockLocalSystem mock(ChurnRules());
  auto restore = [&](const std::string& bytes) {
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    Globalizer g(&mock, nullptr, nullptr, opt);
    return g.RestoreCheckpoint(path);
  };
  const uint64_t kLast = 0xFFFFFFFFull;
  EXPECT_TRUE(restore(BuildEvictedMarksCheckpoint(11, 0, kLast - 1)).ok());
  EXPECT_TRUE(restore(BuildEvictedMarksCheckpoint(11, 0, 3)).ok());
  EXPECT_EQ(restore(BuildEvictedMarksCheckpoint(11, 0, kLast)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(restore(BuildEvictedMarksCheckpoint(11, 0, kLast + 7)).code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Checks that `out` emits exactly each tweet's in-range Local EMD spans of
// `mock`, and that there are more of them than tweets.
void ExpectLocalSpans(const Dataset& d, MockLocalSystem* mock,
                      const GlobalizerOutput& out) {
  ASSERT_EQ(out.mentions.size(), d.tweets.size());
  size_t emitted = 0;
  for (size_t i = 0; i < d.tweets.size(); ++i) {
    const std::vector<Token>& tokens = d.tweets[i].tokens;
    std::vector<TokenSpan> want;
    for (const TokenSpan& span : mock->Process(tokens).mentions) {
      if (span.begin < span.end && span.end <= tokens.size()) {
        want.push_back(span);
      }
    }
    EXPECT_EQ(out.mentions[i], want) << "tweet " << i;
    emitted += want.size();
  }
  EXPECT_GT(emitted, d.tweets.size());
}

// kLocalOnly emits exactly each tweet's in-range Local EMD spans, read back
// from the flat mention array: checked against the local system itself.
TEST(AccountingTest, LocalOnlyFinalizeEmitsTheLocalSpans) {
  const Dataset d = ChurnStream(200, 47);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    MockLocalSystem mock(ChurnRules());
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kLocalOnly;
    opt.batch_size = kBatch;
    opt.num_threads = threads;
    Globalizer g(&mock, nullptr, nullptr, opt);
    for (size_t b = 0; b < batches; ++b) {
      ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    }
    const GlobalizerOutput out = g.Finalize().value();
    ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g.tweet_base()));
    ExpectLocalSpans(d, &mock, out);
  }
}

// Token embeddings are staged beside their batch, never in the TweetBase:
// a deep kLocalOnly stream's TweetBase accounts exactly the bytes of the
// same stream run by a non-deep system after every batch, its running bytes
// match the recount, and the output is still exactly the local spans.
TEST(AccountingTest, DeepLocalOnlyTweetBaseHoldsNoEmbeddings) {
  const Dataset d = ChurnStream(200, 47);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    MockLocalSystem deep(ChurnRules(), /*dim=*/6);
    MockLocalSystem shallow(ChurnRules());
    ASSERT_TRUE(deep.is_deep());
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kLocalOnly;
    opt.batch_size = kBatch;
    opt.num_threads = threads;
    Globalizer g(&deep, nullptr, nullptr, opt);
    Globalizer reference(&shallow, nullptr, nullptr, opt);
    for (size_t b = 0; b < batches; ++b) {
      ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
      ASSERT_TRUE(reference.ProcessBatch(BatchAt(d, b)).ok());
      ASSERT_EQ(g.tweet_base().ApproxBytes(),
                reference.tweet_base().ApproxBytes())
          << "batch " << b;
      ASSERT_NO_FATAL_FAILURE(ExpectByteTotalsMatchRecount(g.tweet_base()));
    }
    ExpectLocalSpans(d, &deep, g.Finalize().value());
  }
}

// The merge barrier's rewrite of each batch (the TweetBase tail): every
// stored mention is a re-scan match, and it is locally_detected exactly when
// Local EMD produced that span. A multi-word entity is detected in full only
// when capitalized but by its first word always, so a lowercase mention's
// partial local span is extended to the registered phrase (§V-A) and is not
// local; recovered mentions with no local span at all occur too.
TEST(AccountingTest, MergeMarksExactlyTheLocalSpansLocallyDetected) {
  std::vector<MockLocalSystem::Rule> rules;
  for (const auto& phrase : Entities()) {
    rules.push_back({.phrase = phrase, .require_capitalized = true});
    if (phrase.size() > 1) rules.push_back({.phrase = phrase, .partial = true});
  }
  const Dataset d = ChurnStream(200, 53);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  for (const int shards : {1, 4}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("S=" + std::to_string(shards) +
                   " T=" + std::to_string(threads));
      MockLocalSystem mock(rules, /*dim=*/6);
      PhraseEmbedder pe(6, 4);
      GlobalizerOptions opt;
      opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
      opt.batch_size = kBatch;
      opt.shard_count = shards;
      opt.num_threads = threads;
      Globalizer g(&mock, &pe, nullptr, opt);
      for (size_t b = 0; b < batches; ++b) {
        ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
      }
      const TweetBase& tweets = g.tweet_base();
      size_t local = 0, extended = 0, recovered = 0;
      for (size_t i = 0; i < tweets.size(); ++i) {
        const std::vector<TokenSpan> spans =
            mock.Process(d.tweets[i].tokens).mentions;
        for (const RecordedMention& m : tweets.mentions(i)) {
          ASSERT_GE(m.candidate_id, 0) << "tweet " << i;
          const bool was_local =
              std::find(spans.begin(), spans.end(), m.span) != spans.end();
          EXPECT_EQ(m.locally_detected, was_local) << "tweet " << i;
          const bool same_start =
              std::any_of(spans.begin(), spans.end(), [&](const TokenSpan& s) {
                return s.begin == m.span.begin;
              });
          ++(was_local ? local : same_start ? extended : recovered);
        }
      }
      EXPECT_GT(local, 0u);
      EXPECT_GT(extended, 0u);
      EXPECT_GT(recovered, 0u);
    }
  }
}

}  // namespace
}  // namespace emd
