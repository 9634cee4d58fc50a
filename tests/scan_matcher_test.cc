// Candidate matcher tests (DESIGN §12, ctest label `scan`): SymbolTable
// refcount/recycle semantics and its InternIndex checked against a map and
// free-list model (also from concurrent readers), the subword split against
// a map-backed vocabulary, the CTrie's symbol-keyed edges, the sharded
// first-token-dispatch scan agreeing with a naive longest-match reference
// (ReferenceScan below) — on fixed corpora and under a randomized fuzz with
// insert/evict/rebuild churn and non-ASCII tokens — the pipeline digest
// across shard counts {1,4,13} x thread counts {1,4}, eviction unregistering
// dispatch/symbol state, checkpoint restore rebuilding the symbol table, and
// a zero-steady-state-allocation guarantee for the scan loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

// GCC cannot see that the replacement operator new/delete below are a
// matched malloc/free pair and warns at every inlined delete site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<long> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include "core/ctrie.h"
#include "core/global_state.h"
#include "core/globalizer.h"
#include "emd/subword.h"
#include "mock_local_system.h"
#include "stream/datasets.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "text/vocabulary.h"
#include "util/crc32.h"
#include "util/intern_index.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

std::vector<Token> Toks(const std::string& text) {
  std::vector<Token> out;
  for (const std::string& w : Split(text)) {
    Token t;
    t.text = w;
    out.push_back(t);
  }
  return out;
}

void ExpectSameMentions(const std::vector<ExtractedMention>& expected,
                        const std::vector<ExtractedMention>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i].span == actual[i].span)
        << what << " mention " << i << ": [" << expected[i].span.begin << ","
        << expected[i].span.end << ") vs [" << actual[i].span.begin << ","
        << actual[i].span.end << ")";
    EXPECT_EQ(expected[i].candidate_id, actual[i].candidate_id)
        << what << " mention " << i;
  }
}

// Test-only §V-A oracle: left to right, the longest window whose folded text
// is a live candidate key wins — no trie, no symbols, no shards.
std::vector<ExtractedMention> ReferenceScan(const ShardedGlobalState& state,
                                            const std::vector<Token>& tokens) {
  std::unordered_map<std::string, int> live;  // folded key -> gid
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.IsTombstone(gid)) live.emplace(state.CandidateKey(gid), gid);
  }
  std::vector<ExtractedMention> out;
  size_t i = 0;
  while (i < tokens.size()) {
    ExtractedMention best{{i, i}, CTrie::kNoCandidate};
    std::string key;
    for (size_t j = i; j < tokens.size(); ++j) {
      key += (j > i ? " " : "") + ToLowerAscii(tokens[j].text);
      auto it = live.find(key);
      if (it != live.end()) best = {{i, j + 1}, it->second};
    }
    if (best.candidate_id == CTrie::kNoCandidate) {
      ++i;
    } else {
      out.push_back(best);
      i = best.span.end;
    }
  }
  return out;
}

// ----------------------------------------------------------- SymbolTable --

TEST(SymbolTableTest, AcquireLookupReleaseRecyclesIds) {
  SymbolTable syms;
  const int32_t a = syms.Acquire("andy");
  const int32_t b = syms.Acquire("beshear");
  EXPECT_NE(a, b);
  EXPECT_EQ(syms.Acquire("andy"), a);  // second reference, same id
  EXPECT_EQ(syms.Lookup("andy"), a);
  EXPECT_EQ(syms.Lookup("missing"), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.text(a), "andy");
  EXPECT_EQ(syms.ref_count(a), 2u);
  EXPECT_EQ(syms.num_live(), 2);

  syms.Release(a);
  EXPECT_EQ(syms.Lookup("andy"), a);  // one reference still held
  syms.Release(a);
  EXPECT_EQ(syms.Lookup("andy"), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.num_live(), 1);

  // The dead id slot is recycled for the next distinct token; the id space
  // stays dense under churn.
  const int32_t c = syms.Acquire("kentucky");
  EXPECT_EQ(c, a);
  EXPECT_EQ(syms.text(c), "kentucky");
  EXPECT_EQ(syms.capacity(), 2);
}

// Model of the symbol table the index must reproduce: a string-keyed map plus
// an id free list reused last-in first-out, as SymbolTable kept before it
// moved onto InternIndex.
struct SymbolModel {
  std::unordered_map<std::string, int32_t> ids;
  std::vector<std::string> texts;
  std::vector<uint32_t> refs;
  std::vector<int32_t> free_ids;

  int32_t Acquire(const std::string& key) {
    auto it = ids.find(key);
    if (it != ids.end()) {
      ++refs[it->second];
      return it->second;
    }
    int32_t sym;
    if (!free_ids.empty()) {
      sym = free_ids.back();
      free_ids.pop_back();
    } else {
      sym = static_cast<int32_t>(texts.size());
      texts.emplace_back();
      refs.push_back(0);
    }
    texts[sym] = key;
    refs[sym] = 1;
    ids.emplace(key, sym);
    return sym;
  }
  void Release(int32_t sym) {
    if (--refs[sym] > 0) return;
    ids.erase(texts[sym]);
    texts[sym].clear();
    free_ids.push_back(sym);
  }
  int32_t Lookup(const std::string& key) const {
    auto it = ids.find(key);
    return it == ids.end() ? SymbolTable::kNoSymbol : it->second;
  }
};

// Keys of every length class the index packs differently: empty, short,
// exactly 8 and 16 bytes (hash word boundaries), and over 15 bytes (past the
// std::string inline buffer).
std::string DifferentialKey(Rng* rng, int pool) {
  const int k = rng->NextInt(0, pool - 1);
  switch (k % 5) {
    case 0: return k == 0 ? std::string() : "k" + std::to_string(k);
    case 1: return "eightby" + std::to_string(k % 10);
    case 2: return "sixteen-bytes-" + std::to_string(10 + k % 90);
    case 3: return "a-rather-long-key-past-fifteen-bytes-" + std::to_string(k);
    default: return std::string(1 + k % 23, static_cast<char>('a' + k % 26)) +
                    std::to_string(k);
  }
}

TEST(SymbolTableTest, MatchesAMapAndFreeListModelAcrossRebuilds) {
  Rng rng(2027);
  SymbolTable syms;
  SymbolModel model;
  std::vector<int32_t> held;  // one entry per reference taken
  size_t last_bytes = syms.ApproxBytes();
  int shrinks = 0;  // a rebuild that drops erased keys shrinks the arena
  for (int step = 0; step < 60000; ++step) {
    // Grow to ~600 references, then churn around that size, so the table
    // crosses many tombstone rebuilds at a steady live count.
    const double dice = rng.NextDouble();
    const double acquire = held.size() < 600 ? 0.6 : 0.45;
    if (held.empty() || dice < acquire) {
      const std::string key = DifferentialKey(&rng, 1500);
      const int32_t want = model.Acquire(key);
      ASSERT_EQ(syms.Acquire(key), want) << "step " << step << " key " << key;
      held.push_back(want);
    } else if (dice < acquire + 0.05) {
      const int32_t sym = held[rng.NextU64(held.size())];
      syms.Retain(sym);
      ++model.refs[sym];
      held.push_back(sym);
    } else if (dice < 0.95) {
      const size_t k = rng.NextU64(held.size());
      syms.Release(held[k]);
      model.Release(held[k]);
      held[k] = held.back();
      held.pop_back();
    } else {
      const std::string key = DifferentialKey(&rng, 1500);
      ASSERT_EQ(syms.Lookup(key), model.Lookup(key)) << "step " << step;
    }
    ASSERT_EQ(syms.ApproxBytes(), syms.RecountBytes()) << "step " << step;
    ASSERT_EQ(syms.num_live(), static_cast<int>(model.ids.size()));
    ASSERT_EQ(syms.capacity(), static_cast<int>(model.texts.size()));
    if (syms.ApproxBytes() < last_bytes) ++shrinks;
    last_bytes = syms.ApproxBytes();
    if (step % 997 == 0) {
      for (int32_t sym = 0; sym < syms.capacity(); ++sym) {
        ASSERT_EQ(syms.text(sym), model.texts[sym]) << "sym " << sym;
        ASSERT_EQ(syms.ref_count(sym), model.refs[sym]) << "sym " << sym;
        if (model.refs[sym] > 0) {
          ASSERT_EQ(syms.Lookup(model.texts[sym]), sym);
        }
      }
    }
  }
  EXPECT_GE(shrinks, 3) << "too few rebuilds crossed";

  // A key whose slot became a tombstone is found again once re-interned:
  // under its old id when that id was the last freed, else under whatever
  // id the free list hands out.
  for (int32_t sym : held) syms.Release(sym);
  EXPECT_EQ(syms.num_live(), 0);
  const int32_t a = syms.Acquire("a-key-longer-than-fifteen-bytes");
  syms.Release(a);
  EXPECT_EQ(syms.Lookup("a-key-longer-than-fifteen-bytes"), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.Acquire("a-key-longer-than-fifteen-bytes"), a);
  const int32_t empty = syms.Acquire("");
  EXPECT_EQ(syms.Lookup(""), empty);
  syms.Release(a);
  syms.Release(empty);
  EXPECT_EQ(syms.Acquire("other"), empty);
  EXPECT_EQ(syms.Acquire("a-key-longer-than-fifteen-bytes"), a);
  EXPECT_EQ(syms.Lookup(""), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.ApproxBytes(), syms.RecountBytes());
}

TEST(InternIndexTest, InternEraseFindMatchAMapAndFreeListModel) {
  Rng rng(31);
  InternIndex index;
  SymbolModel model;  // refcounts stay at 1: every Erase drops the key
  for (int step = 0; step < 40000; ++step) {
    const std::string key = DifferentialKey(&rng, 800);
    const int32_t have = model.Lookup(key);
    if (have != SymbolTable::kNoSymbol && rng.NextBernoulli(0.5)) {
      index.Erase(have);
      model.Release(have);
    } else if (have == SymbolTable::kNoSymbol && rng.NextBernoulli(0.5)) {
      ASSERT_EQ(index.Intern(key), model.Acquire(key)) << "step " << step;
    } else {
      ASSERT_EQ(index.Find(key), have) << "step " << step;
      if (have != SymbolTable::kNoSymbol) {
        ASSERT_EQ(index.Intern(key), have);
      }
    }
    ASSERT_EQ(index.num_live(), static_cast<int32_t>(model.ids.size()));
    ASSERT_EQ(index.size(), static_cast<int32_t>(model.texts.size()));
    ASSERT_EQ(index.ApproxBytes(), index.RecountBytes()) << "step " << step;
  }
  for (int32_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(index.live(i), model.refs[i] > 0);
    EXPECT_EQ(index.key(i), model.texts[i]);
  }
}

// Find is read-only: four threads probe one index (with erased keys and
// tombstones in it) while nothing writes, and each sees every answer the
// single-threaded model gives. Under TSan this is also the race check.
TEST(SymbolTableTest, LookupFromFourReadersWhileNoWriterRuns) {
  Rng rng(404);
  SymbolTable syms;
  SymbolModel model;
  std::vector<int32_t> held;
  for (int step = 0; step < 6000; ++step) {
    if (held.empty() || rng.NextBernoulli(0.6)) {
      const std::string key = DifferentialKey(&rng, 3000);
      held.push_back(model.Acquire(key));
      syms.Acquire(key);
    } else {
      const size_t k = rng.NextU64(held.size());
      syms.Release(held[k]);
      model.Release(held[k]);
      held[k] = held.back();
      held.pop_back();
    }
  }
  std::vector<std::string> keys;
  std::vector<int32_t> want;
  for (int k = 0; k < 3000; ++k) {
    Rng key_rng(static_cast<uint64_t>(k));
    keys.push_back(DifferentialKey(&key_rng, 3000));
    want.push_back(model.Lookup(keys.back()));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int pass = 0; pass < 20; ++pass) {
        for (size_t k = 0; k < keys.size(); ++k) {
          if (syms.Lookup(keys[k]) != want[k]) ++mismatches[r];
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

// Split over a D4-like stream gives the piece ids of the same greedy longest
// match run against a plain map from piece text to id.
TEST(SubwordSplitTest, MatchesAMapBackedVocabularyOverADLikeStream) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 150;
  copt.seed = 5;
  const EntityCatalog catalog = EntityCatalog::Build(copt);
  const SubwordTokenizer tok =
      SubwordTokenizer::Build(BuildTrainingCorpus(catalog, 600, 11));
  std::unordered_map<std::string, int> pieces;
  for (int id = 0; id < tok.vocab_size(); ++id) {
    pieces.emplace(std::string(tok.vocab().Token(id)), id);
  }
  auto reference = [&pieces](const std::string& word) {
    const std::string lower = ToLowerAscii(word);
    std::vector<int> ids;
    if (lower.empty()) return std::vector<int>{Vocabulary::kUnkId};
    size_t pos = 0;
    while (pos < lower.size()) {
      size_t best_len = 1;
      int best_id = Vocabulary::kUnkId;
      for (size_t len = lower.size() - pos; len >= 1; --len) {
        auto it = pieces.find((pos == 0 ? "" : "##") + lower.substr(pos, len));
        if (it != pieces.end()) {
          best_len = len;
          best_id = it->second;
          break;
        }
      }
      ids.push_back(best_id);
      pos += best_len;
    }
    return ids;
  };

  DatasetSuiteOptions sopt;
  sopt.scale = 5000.0 / 6000.0;
  sopt.seed = 11;
  Dataset d4 = BuildD4(catalog, sopt);
  ASSERT_GE(d4.tweets.size(), 4990u);
  size_t words = 0, multi_piece = 0;
  for (const AnnotatedTweet& tweet : d4.tweets) {
    for (const Token& t : tweet.tokens) {
      const std::vector<int> got = tok.Split(t.text).piece_ids;
      ASSERT_EQ(got, reference(t.text)) << "word " << t.text;
      ++words;
      multi_piece += got.size() > 1;
    }
  }
  for (const std::string w : {"", "\xc3\x89" "cole", "Supercalifragilistic", "##x"}) {
    EXPECT_EQ(tok.Split(w).piece_ids, reference(w)) << "word " << w;
  }
  EXPECT_GT(words, 50000u);
  EXPECT_GT(multi_piece, 0u);
}

// --------------------------------------------------- CTrie symbol edges --

TEST(CTrieSymbolTest, StepSymbolFollowsInsertedEdges) {
  SymbolTable syms;
  CTrie trie(&syms);
  trie.Insert({"New", "York"});
  trie.Insert({"new", "york", "times"});
  trie.Insert({"boston"});

  const int n1 = trie.StepSymbol(trie.root(), syms.Lookup("new"));
  ASSERT_NE(n1, CTrie::kNoNode);
  EXPECT_EQ(trie.RootChildForSymbol(syms.Lookup("new")), n1);
  EXPECT_EQ(trie.CandidateAt(n1), CTrie::kNoCandidate);

  const int n2 = trie.StepSymbol(n1, syms.Lookup("york"));
  ASSERT_NE(n2, CTrie::kNoNode);
  EXPECT_EQ(trie.CandidateAt(n2), trie.Find({"NEW", "york"}));
  const int n3 = trie.StepSymbol(n2, syms.Lookup("times"));
  ASSERT_NE(n3, CTrie::kNoNode);
  EXPECT_EQ(trie.CandidateAt(n3), trie.Find({"new", "york", "times"}));

  // Unknown token: Lookup yields kNoSymbol, which matches no edge.
  EXPECT_EQ(syms.Lookup("chicago"), SymbolTable::kNoSymbol);
  EXPECT_EQ(trie.StepSymbol(trie.root(), SymbolTable::kNoSymbol),
            CTrie::kNoNode);
  // A symbol that exists but labels no edge at this node.
  EXPECT_EQ(trie.StepSymbol(n1, syms.Lookup("boston")), CTrie::kNoNode);
}

TEST(CTrieSymbolTest, PruneReleasesSymbolsWithTheirEdges) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int ny = trie.Insert({"new", "york"});
  const int nyt = trie.Insert({"new", "york", "times"});
  // Edges: new, york, times — "new"/"york" shared by both candidates.
  EXPECT_EQ(syms.num_live(), 3);

  trie.Prune(nyt);  // only the "times" suffix edge disappears
  EXPECT_EQ(syms.Lookup("times"), SymbolTable::kNoSymbol);
  EXPECT_NE(syms.Lookup("york"), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.num_live(), 2);

  trie.Prune(ny);
  EXPECT_EQ(syms.Lookup("new"), SymbolTable::kNoSymbol);
  EXPECT_EQ(syms.num_live(), 0);
}

TEST(CTrieSymbolTest, InsertAddsEdgeForSymbolInternedElsewhere) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int yt = trie.Insert({"york", "times"});
  // "york" is interned (a root edge) but is not yet a child of "new": the
  // Insert must create that edge rather than treat the symbol as present.
  const int ny = trie.Insert({"new", "york"});
  EXPECT_NE(ny, yt);
  EXPECT_EQ(trie.Find({"new", "york"}), ny);
  EXPECT_EQ(trie.Find({"york", "times"}), yt);
  EXPECT_EQ(syms.ref_count(syms.Lookup("york")), 2u);  // one per edge
  EXPECT_EQ(syms.num_live(), 3);

  trie.Prune(yt);
  EXPECT_EQ(trie.Find({"new", "york"}), ny);
  trie.Prune(ny);
  EXPECT_EQ(syms.num_live(), 0);
  EXPECT_EQ(trie.num_live_candidates(), 0);
  EXPECT_EQ(trie.num_live_nodes(), 1);  // just the root
}

// ----------------------------------------------- fixed-corpus reference --

TEST(ScanMatcherTest, FixedCorpusIdenticalAcrossMatchersAndShardCounts) {
  const std::vector<std::vector<std::string>> phrases = {
      {"andy", "beshear"}, {"andy"},          {"kentucky"},
      {"new", "york"},     {"new", "york", "times"},
      {"café"},            {"zürich", "airport"}};
  const std::vector<std::string> corpus = {
      "Andy Beshear spoke in KENTUCKY today",
      "the New York Times covered andy",
      "new york new york times andy beshear",
      "Café prices in Zürich Airport rising",
      "nothing matches in this tweet at all",
      "andy",
      "",
  };
  for (int shards : {1, 4, 13}) {
    ShardedGlobalState state(shards);
    for (const auto& p : phrases) state.Insert(p);
    size_t mentions = 0;
    for (const std::string& text : corpus) {
      const auto tokens = Toks(text);
      const auto found = state.Extract(tokens);
      ExpectSameMentions(ReferenceScan(state, tokens), found,
                         "shards=" + std::to_string(shards) + " tweet '" +
                             text + "'");
      mentions += found.size();
    }
    EXPECT_EQ(mentions, 10u) << "shards=" << shards;
  }
}

// ------------------------------------------------------------- fuzzing --

// Randomized churn: every state (3 shard counts) receives the identical
// insert/evict/scan sequence; every scan must agree with ReferenceScan over
// the live keys (gid spaces are equal across shard counts). Vocabulary
// includes non-ASCII tokens (ASCII-only case folding must still match
// byte-for-byte) and tweets inject registered phrases under random casing
// between in-vocab and out-of-vocab noise.
TEST(ScanMatcherFuzzTest, BitIdentityUnderInsertEvictChurn) {
  Rng rng(20260808);
  std::vector<std::string> vocab;
  for (int i = 0; i < 160; ++i) vocab.push_back("tok" + std::to_string(i));
  const std::vector<std::string> non_ascii = {"café",  "zürich", "naïve",
                                              "日本",  "Ωmega",  "łódź"};
  vocab.insert(vocab.end(), non_ascii.begin(), non_ascii.end());

  const std::vector<int> shard_counts = {1, 4, 13};
  std::vector<std::unique_ptr<ShardedGlobalState>> states;
  for (int sc : shard_counts) {
    states.push_back(std::make_unique<ShardedGlobalState>(sc));
  }
  ShardedGlobalState& reference = *states[0];

  std::vector<std::vector<std::string>> registered;
  auto random_phrase = [&] {
    std::vector<std::string> phrase(static_cast<size_t>(rng.NextInt(1, 4)));
    for (auto& w : phrase) w = vocab[rng.NextU64(vocab.size())];
    return phrase;
  };
  auto random_tweet = [&] {
    std::vector<Token> tokens;
    while (tokens.size() < 12) {
      const double dice = rng.NextDouble();
      if (dice < 0.3 && !registered.empty()) {
        for (const auto& w : registered[rng.NextU64(registered.size())]) {
          Token t;
          const int casing = rng.NextInt(0, 2);
          t.text = casing == 0 ? w
                   : casing == 1 ? ToUpperAscii(w)
                                 : Capitalize(w);
          tokens.push_back(std::move(t));
        }
      } else {
        Token t;
        t.text = dice < 0.8 ? vocab[rng.NextU64(vocab.size())]
                            : "oov" + std::to_string(rng.NextU64(1 << 16));
        tokens.push_back(std::move(t));
      }
    }
    tokens.resize(12);
    return tokens;
  };

  for (int round = 0; round < 8; ++round) {
    // Insert a batch of phrases into every state identically (gid spaces
    // stay equal across shard counts: discovery-order assignment).
    for (int k = 0; k < 24; ++k) {
      const auto phrase = random_phrase();
      const int before = reference.num_candidates();
      for (auto& state : states) {
        const int gid = state->Insert(phrase);
        state->GetOrCreate(gid);
      }
      if (reference.num_candidates() > before) registered.push_back(phrase);
    }
    // Evict + prune a few random live gids from every state (the memory
    // governor's order of operations).
    for (int k = 0; k < 8; ++k) {
      const int gid = rng.NextInt(0, reference.num_candidates() - 1);
      if (reference.IsTombstone(gid)) continue;
      for (auto& state : states) {
        state->Evict(gid);
        state->Prune(gid);
      }
    }
    // Scan: every state must reproduce the reference exactly.
    for (int t = 0; t < 32; ++t) {
      const auto tokens = random_tweet();
      const auto expected = ReferenceScan(reference, tokens);
      for (size_t s = 0; s < states.size(); ++s) {
        ExpectSameMentions(
            expected, states[s]->Extract(tokens),
            "round " + std::to_string(round) + " state " + std::to_string(s));
      }
    }
  }
  EXPECT_GT(reference.num_candidates(), 100);
  EXPECT_LT(reference.num_live_candidates(), reference.num_candidates());

  // Rebuild-restore interleaving: reconstruct each layout the way checkpoint
  // restore does (live keys re-inserted in gid order, tombstones appended as
  // holes) and require the rebuilt scan to still match the live reference —
  // this is exactly the path that rebuilds the symbol table from the tries.
  for (int sc : shard_counts) {
    ShardedGlobalState rebuilt(sc);
    for (int gid = 0; gid < reference.num_candidates(); ++gid) {
      if (reference.IsTombstone(gid)) {
        rebuilt.AppendTombstone();
      } else {
        rebuilt.Insert(Split(reference.CandidateKey(gid)));
      }
    }
    for (int t = 0; t < 16; ++t) {
      const auto tokens = random_tweet();
      ExpectSameMentions(ReferenceScan(reference, tokens),
                         rebuilt.Extract(tokens),
                         "rebuilt shards=" + std::to_string(sc));
    }
  }
}

// ------------------------------------------- eviction unregisters index --

TEST(ScanMatcherTest, PruneUnregistersDispatchAndRecyclesSymbols) {
  ShardedGlobalState state(1);
  const int g1 = state.Insert({"shared", "alpha"});
  const int g2 = state.Insert({"shared", "beta"});
  state.Insert({"solo"});
  const SymbolTable& syms = state.symbols();
  const int32_t shared_sym = syms.Lookup("shared");
  ASSERT_NE(shared_sym, SymbolTable::kNoSymbol);
  EXPECT_EQ(state.DispatchFanout(shared_sym), 1);
  EXPECT_EQ(state.num_live_symbols(), 4);

  // First prune: the shared first-token edge survives via "shared beta".
  state.Prune(g1);
  EXPECT_EQ(state.DispatchFanout(shared_sym), 1);
  EXPECT_EQ(syms.Lookup("alpha"), SymbolTable::kNoSymbol);
  ASSERT_EQ(state.Extract(Toks("shared beta and shared alpha")).size(), 1u);
  EXPECT_EQ(state.Extract(Toks("shared beta"))[0].candidate_id, g2);

  // Second prune: the root edge dies, the dispatch entry must go with it and
  // the symbol id becomes recyclable.
  state.Prune(g2);
  EXPECT_EQ(state.DispatchFanout(shared_sym), 0);
  EXPECT_EQ(syms.Lookup("shared"), SymbolTable::kNoSymbol);
  EXPECT_EQ(state.num_live_symbols(), 1);  // just "solo"
  EXPECT_TRUE(state.Extract(Toks("shared beta")).empty());

  // A recycled symbol id starts with a clean dispatch slot.
  const int g4 = state.Insert({"gamma", "delta"});
  const auto mentions = state.Extract(Toks("gamma delta then solo"));
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].candidate_id, g4);
  EXPECT_TRUE(mentions[0].span == (TokenSpan{0, 2}));
}

// ----------------------------------------------- Globalizer + pipeline --

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

std::vector<MockLocalSystem::Rule> ScanRules() {
  return {{.phrase = {"coronavirus"}}, {.phrase = {"andy", "beshear"}},
          {.phrase = {"kentucky"}},    {.phrase = {"louisville"}},
          {.phrase = {"vaccine"}},     {.phrase = {"frankfort"}}};
}

Dataset ScanStream(int copies) {
  Dataset d;
  d.name = "scan";
  long id = 1;
  for (int c = 0; c < copies; ++c) {
    d.tweets.push_back(MakeTweet(id++, "the Coronavirus keeps spreading"));
    d.tweets.push_back(MakeTweet(id++, "Andy Beshear spoke in Kentucky today"));
    d.tweets.push_back(MakeTweet(id++, "cases rising in Louisville again"));
    d.tweets.push_back(MakeTweet(id++, "the Vaccine arrives in Frankfort soon"));
    d.tweets.push_back(MakeTweet(id++, "andy beshear kentucky vaccine update"));
  }
  return d;
}

TEST(ScanMatcherPipelineTest, DigestIdenticalAcrossShardsThreads) {
  uint32_t baseline = 0;
  bool have_baseline = false;
  for (int shards : {1, 4, 13}) {
    for (int threads : {1, 4}) {
      GlobalizerOptions opt;
      opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
      opt.batch_size = 8;
      opt.shard_count = shards;
      opt.num_threads = threads;
      MockLocalSystem mock(ScanRules());
      Globalizer g(&mock, nullptr, nullptr, opt);
      ASSERT_TRUE(g.Run(ScanStream(6)).ok());
      const uint32_t digest = MentionDigest(g.Finalize().value());
      if (!have_baseline) {
        baseline = digest;
        have_baseline = true;
      }
      EXPECT_EQ(digest, baseline)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ScanMatcherPipelineTest, CheckpointRestoreRebuildsSymbolTable) {
  const std::string path = TempPath("scan_matcher_ckpt.bin");
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.shard_count = 4;
  MockLocalSystem mock(ScanRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.Run(ScanStream(3)).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  ASSERT_TRUE(g.Run(ScanStream(2)).ok());
  const uint32_t want = MentionDigest(g.Finalize().value());

  // Restore into a different shard count: the symbol table and dispatch
  // table rebuild from the re-inserted keys (the v5 format carries no symbol
  // section), and the continued stream must produce the identical mentions.
  GlobalizerOptions ropt = opt;
  ropt.shard_count = 13;
  MockLocalSystem rmock(ScanRules());
  Globalizer restored(&rmock, nullptr, nullptr, ropt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_GT(restored.global_state().num_live_symbols(), 0);
  ASSERT_TRUE(restored.Run(ScanStream(2)).ok());
  EXPECT_EQ(MentionDigest(restored.Finalize().value()), want);
  std::filesystem::remove(path);
}

// ------------------------------------------------ zero-allocation scan --

TEST(ScanMatcherTest, SteadyStateScanIsAllocationFree) {
  ShardedGlobalState state(4);
  Rng rng(77);
  std::vector<std::vector<std::string>> phrases;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> phrase(static_cast<size_t>(rng.NextInt(1, 3)));
    for (auto& w : phrase) w = "word" + std::to_string(rng.NextInt(0, 120));
    state.Insert(phrase);
    phrases.push_back(std::move(phrase));
  }
  std::vector<std::vector<Token>> tweets;
  for (int t = 0; t < 8; ++t) {
    std::vector<Token> tokens;
    while (tokens.size() < 16) {
      for (const auto& w : phrases[rng.NextU64(phrases.size())]) {
        Token tok;
        tok.text = rng.NextBernoulli(0.5) ? ToUpperAscii(w) : w;
        tokens.push_back(std::move(tok));
      }
      Token noise;
      noise.text = "Noise" + std::to_string(rng.NextInt(0, 99));
      tokens.push_back(std::move(noise));
    }
    tokens.resize(16);
    tweets.push_back(std::move(tokens));
  }

  ShardedGlobalState::ScanScratch scratch;
  std::vector<ExtractedMention> out;
  size_t mentions = 0;
  // Warm-up: scratch buffers and the output vector grow to steady state
  // (and the obs counters lazily register).
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& tokens : tweets) {
      state.ExtractInto(tokens, &scratch, &out);
      mentions += out.size();
    }
  }
  ASSERT_GT(mentions, 0u);  // the loop under test does real matching

  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 5; ++pass) {
    for (const auto& tokens : tweets) {
      state.ExtractInto(tokens, &scratch, &out);
    }
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "scan allocated in steady state";

  // The same holds for the vocabulary probe the subword split makes per
  // candidate piece: a warm Vocabulary::Id allocates nothing, hit or miss.
  Vocabulary vocab;
  for (const auto& phrase : phrases) {
    for (const auto& w : phrase) vocab.Add(w);
  }
  int hits = 0;
  const long vocab_before = g_allocations.load(std::memory_order_relaxed);
  for (const auto& tokens : tweets) {
    for (const Token& t : tokens) hits += vocab.Id(t.text) != Vocabulary::kUnkId;
  }
  const long vocab_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(vocab_after - vocab_before, 0) << "Vocabulary::Id allocated";
  EXPECT_GT(hits, 0);
}

// The candidate key registration stores (and routes by) is the folded
// tokens joined the way it always was: a space before a token only once the
// key is non-empty, so leading empty tokens add no space.
TEST(ScanMatcherTest, RegistrationKeyJoinsFoldedTokensAsBefore) {
  const std::vector<std::vector<std::string>> phrases = {
      {"New", "York"}, {"", "X"}, {"A", "", "B"}, {"", "", "c"},
      {"\xc3\x89" "cole", "Normale"}, {"UPPER", "lower", "MiXeD"}};
  for (const int shards : {1, 4}) {
    ShardedGlobalState state(shards);
    for (const auto& phrase : phrases) {
      std::string want;
      for (const auto& w : phrase) {
        if (!want.empty()) want += ' ';
        want += ToLowerAscii(w);
      }
      const int gid = state.Insert(phrase);
      EXPECT_EQ(state.CandidateKey(gid), want);
      EXPECT_EQ(state.Insert(phrase), gid);
      EXPECT_EQ(state.Find(phrase), gid);
    }
    // Find routes on the same join; adding or dropping an empty token gives
    // another trie path, so the lookup misses.
    EXPECT_EQ(state.Find({"", "new", "york"}), CTrie::kNoCandidate);
    EXPECT_EQ(state.Find({"X"}), CTrie::kNoCandidate);
    EXPECT_EQ(state.Find({""}), CTrie::kNoCandidate);
    EXPECT_EQ(state.Find({}), CTrie::kNoCandidate);
  }
}

// Registration folds each phrase once into member scratch and builds a key
// only for a new candidate: re-registering known candidates, through either
// overload, allocates nothing once warm.
TEST(ScanMatcherTest, ReRegisteringAKnownCandidateIsAllocationFree) {
  ShardedGlobalState state(4);
  const std::vector<Token> tokens = Toks(
      "Andy Beshear spoke in NEW YORK CITY about the Extraordinarily-Long-Phrase "
      "candidate word7 word8");
  std::vector<TokenSpan> spans;
  for (size_t b = 0; b < tokens.size(); ++b) {
    for (size_t e = b + 1; e <= std::min(tokens.size(), b + 4); ++e) spans.push_back({b, e});
  }
  const std::vector<std::string> words = {"Some", "Long", "Candidate", "Phrase"};
  std::vector<int> gids;
  for (const TokenSpan& span : spans) gids.push_back(state.Insert(tokens, span));
  const int words_gid = state.Insert(words);
  const int candidates = state.num_candidates();

  std::vector<int> again(gids.size());
  int words_again = -1;
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < spans.size(); ++i) again[i] = state.Insert(tokens, spans[i]);
    words_again = state.Insert(words);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "re-registration allocated";
  EXPECT_EQ(again, gids);
  EXPECT_EQ(words_again, words_gid);
  EXPECT_EQ(state.num_candidates(), candidates);
}

}  // namespace
}  // namespace emd
