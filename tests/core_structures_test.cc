// Tests for the Global EMD data structures: BIO codec, CTrie, the §V-A
// candidate re-scan (ShardedGlobalState::Extract), the syntactic embedder,
// TweetBase/CandidateBase, and mention-level metrics. Includes parameterized
// property sweeps.

#include <gtest/gtest.h>

#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/global_state.h"
#include "core/syntactic_embedder.h"
#include "core/tweet_base.h"
#include "text/bio.h"
#include "eval/metrics.h"
#include "stream/datasets.h"
#include "stream/entity_catalog.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

std::vector<Token> Toks(const std::string& text) {
  return TweetTokenizer().Tokenize(text);
}

// ------------------------------------------------------------------- BIO

TEST(BioTest, EncodeDecodeBasic) {
  std::vector<TokenSpan> spans = {{1, 3}, {4, 5}};
  auto labels = SpansToBio(spans, 6);
  EXPECT_EQ(labels, (std::vector<int>{kO, kB, kI, kO, kB, kO}));
  EXPECT_EQ(BioToSpans(labels), spans);
}

TEST(BioTest, AdjacentSpansStaySeparate) {
  std::vector<TokenSpan> spans = {{0, 2}, {2, 3}};
  auto labels = SpansToBio(spans, 3);
  EXPECT_EQ(labels, (std::vector<int>{kB, kI, kB}));
  EXPECT_EQ(BioToSpans(labels), spans);
}

TEST(BioTest, DanglingInsideOpensSpan) {
  EXPECT_EQ(BioToSpans({kO, kI, kI, kO}), (std::vector<TokenSpan>{{1, 3}}));
}

TEST(BioTest, OverlappingSpansFirstWins) {
  std::vector<TokenSpan> spans = {{0, 3}, {2, 4}};
  auto labels = SpansToBio(spans, 4);
  EXPECT_EQ(BioToSpans(labels), (std::vector<TokenSpan>{{0, 3}}));
}

class BioRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BioRoundTripTest, RandomNonOverlappingSpansRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = 1 + rng.NextU64(20);
    std::vector<TokenSpan> spans;
    size_t pos = 0;
    while (pos < n) {
      if (rng.NextBernoulli(0.4)) {
        size_t len = 1 + rng.NextU64(3);
        len = std::min(len, n - pos);
        spans.push_back({pos, pos + len});
        pos += len;
        ++pos;  // gap so adjacent spans cannot merge ambiguity
      } else {
        ++pos;
      }
    }
    EXPECT_EQ(BioToSpans(SpansToBio(spans, n)), spans);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BioRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------------- CTrie

TEST(CTrieTest, InsertFindCaseInsensitive) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int id = trie.Insert({"Andy", "Beshear"});
  EXPECT_EQ(trie.Find({"andy", "beshear"}), id);
  EXPECT_EQ(trie.Find({"ANDY", "BESHEAR"}), id);
  EXPECT_EQ(trie.Find({"andy"}), CTrie::kNoCandidate);
  EXPECT_EQ(trie.CandidateKey(id), "andy beshear");
  EXPECT_EQ(trie.CandidateLength(id), 2);
}

TEST(CTrieTest, ReinsertReturnsSameId) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int a = trie.Insert({"coronavirus"});
  const int b = trie.Insert({"CORONAVIRUS"});
  EXPECT_EQ(a, b);
  EXPECT_EQ(trie.num_candidates(), 1);
}

TEST(CTrieTest, PrefixCandidatesCoexist) {
  SymbolTable syms;
  CTrie trie(&syms);
  const int shorter = trie.Insert({"andy"});
  const int longer = trie.Insert({"andy", "beshear"});
  EXPECT_NE(shorter, longer);
  EXPECT_EQ(trie.Find({"andy"}), shorter);
  EXPECT_EQ(trie.Find({"andy", "beshear"}), longer);
  EXPECT_EQ(trie.max_candidate_length(), 2);
}

TEST(CTrieTest, StepTraversal) {
  SymbolTable syms;
  CTrie trie(&syms);
  trie.Insert({"New", "York", "City"});
  // Edges are keyed by the symbol of the case-folded token.
  auto step = [&](int node, const std::string& tok) {
    return trie.StepSymbol(node, syms.Lookup(ToLowerAscii(tok)));
  };
  int node = trie.root();
  node = step(node, "New");
  ASSERT_NE(node, CTrie::kNoNode);
  EXPECT_EQ(trie.CandidateAt(node), CTrie::kNoCandidate);
  node = step(node, "YORK");
  ASSERT_NE(node, CTrie::kNoNode);
  node = step(node, "city");
  ASSERT_NE(node, CTrie::kNoNode);
  EXPECT_NE(trie.CandidateAt(node), CTrie::kNoCandidate);
  EXPECT_EQ(step(trie.root(), "boston"), CTrie::kNoNode);
  // Interned (as the child of "new"), but not a root edge.
  EXPECT_EQ(step(trie.root(), "york"), CTrie::kNoNode);
}

class CTriePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CTriePropertyTest, EveryInsertedCandidateIsFindable) {
  Rng rng(GetParam());
  SymbolTable syms;
  CTrie trie(&syms);
  std::vector<std::pair<std::vector<std::string>, int>> inserted;
  const std::vector<std::string> words = {"alpha", "beta", "gamma", "delta", "eps"};
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> phrase;
    const int len = rng.NextInt(1, 3);
    for (int k = 0; k < len; ++k) phrase.push_back(words[rng.NextU64(words.size())]);
    inserted.emplace_back(phrase, trie.Insert(phrase));
  }
  for (const auto& [phrase, id] : inserted) {
    EXPECT_EQ(trie.Find(phrase), id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CTriePropertyTest, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------- candidate re-scan (§V-A)

TEST(CandidateScanTest, FindsAllCaseVariants) {
  ShardedGlobalState state;
  const int id = state.Insert({"coronavirus"});
  auto tokens = Toks("the Coronavirus and CORONAVIRUS and coronavirus spread");
  auto mentions = state.Extract(tokens);
  ASSERT_EQ(mentions.size(), 3u);
  for (const auto& m : mentions) EXPECT_EQ(m.candidate_id, id);
}

TEST(CandidateScanTest, LongestMatchWins) {
  ShardedGlobalState state;
  state.Insert({"andy"});
  const int full = state.Insert({"andy", "beshear"});
  auto mentions = state.Extract(Toks("governor Andy Beshear spoke"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].candidate_id, full);
  EXPECT_EQ(mentions[0].span, (TokenSpan{1, 3}));
}

TEST(CandidateScanTest, PartialExtractionCorrection) {
  // Local EMD found only "Andy" here but the full string was registered from
  // another tweet: the re-scan returns the full mention (§V-A example).
  ShardedGlobalState state;
  state.Insert({"Andy", "Beshear"});
  auto mentions = state.Extract(Toks("andy beshear says schools stay closed"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].span, (TokenSpan{0, 2}));
}

TEST(CandidateScanTest, FallsBackToShorterCandidateOnLongerMiss) {
  ShardedGlobalState state;
  const int shorter = state.Insert({"andy"});
  state.Insert({"andy", "beshear"});
  auto mentions = state.Extract(Toks("Andy spoke today"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].candidate_id, shorter);
}

TEST(CandidateScanTest, NonOverlappingLeftToRight) {
  ShardedGlobalState state;
  state.Insert({"us"});
  state.Insert({"us", "open"});
  auto mentions = state.Extract(Toks("US Open starts as US fans arrive"));
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].span, (TokenSpan{0, 2}));  // "US Open"
  EXPECT_EQ(mentions[1].span, (TokenSpan{4, 5}));  // "US"
}

TEST(CandidateScanTest, EmptyTrieFindsNothing) {
  ShardedGlobalState state;
  EXPECT_TRUE(state.Extract(Toks("nothing to see here")).empty());
}

TEST(CandidateScanTest, MidWindowRestartFindsLaterCandidate) {
  // A failed long window must not swallow a candidate starting inside it.
  ShardedGlobalState state;
  state.Insert({"new", "york"});
  state.Insert({"york", "times"});
  auto mentions = state.Extract(Toks("the new york times building"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].span, (TokenSpan{1, 3}));  // longest from leftmost start
}

// --------------------------------------------------------- SyntacticEmbedder

TEST(SyntacticEmbedderTest, ProperCapitalization) {
  auto tokens = Toks("today Andy Beshear warned everyone");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {1, 3}),
            SyntacticCategory::kProperCapitalization);
}

TEST(SyntacticEmbedderTest, StartOfSentenceCap) {
  auto tokens = Toks("Beshear says stay home");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {0, 1}),
            SyntacticCategory::kStartOfSentenceCap);
}

TEST(SyntacticEmbedderTest, SubstringCapitalization) {
  auto tokens = Toks("meeting with Andy beshear today");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {2, 4}),
            SyntacticCategory::kSubstringCapitalization);
}

TEST(SyntacticEmbedderTest, FullCapitalization) {
  auto tokens = Toks("cases rise in the US again");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {4, 5}),
            SyntacticCategory::kFullCapitalization);
}

TEST(SyntacticEmbedderTest, NoCapitalization) {
  auto tokens = Toks("the coronavirus keeps Spreading fast");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {1, 2}),
            SyntacticCategory::kNoCapitalization);
}

TEST(SyntacticEmbedderTest, NonDiscriminativeAllCapsSentence) {
  auto tokens = Toks("WE JUST PASSED ITALY WITH CASES");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {3, 4}),
            SyntacticCategory::kNonDiscriminative);
}

TEST(SyntacticEmbedderTest, NonDiscriminativeAllLowerSentence) {
  auto tokens = Toks("we just passed italy with cases");
  EXPECT_EQ(ClassifyMentionSyntax(tokens, {3, 4}),
            SyntacticCategory::kNonDiscriminative);
}

TEST(SyntacticEmbedderTest, OneHotEmbedding) {
  auto tokens = Toks("today Andy Beshear warned everyone");
  // Every float of the row is written, whatever it held before.
  Mat e(1, kNumSyntacticCategories);
  e.Fill(7.f);
  SyntacticEmbedding(ClassifyMentionSyntax(tokens, {1, 3}), {e.data(), e.size()});
  float sum = 0;
  for (int j = 0; j < e.cols(); ++j) sum += e(0, j);
  EXPECT_FLOAT_EQ(sum, 1.f);
  EXPECT_FLOAT_EQ(e(0, 0), 1.f);
}

/// The per-mention form: it walks the whole sentence for every mention to
/// decide whether casing is informative.
SyntacticCategory PerMentionCategory(const std::vector<Token>& tokens,
                                     const TokenSpan& span) {
  int words = 0, caps = 0, uppers = 0, lowers = 0;
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kWord || !HasAlpha(t.text)) continue;
    ++words;
    if (IsAllUpper(t.text)) ++uppers;
    if (IsAllLower(t.text)) ++lowers;
    if (!t.text.empty() && IsUpperAscii(t.text[0])) ++caps;
  }
  if (words == 0 || uppers == words || lowers == words || caps == words) {
    return SyntacticCategory::kNonDiscriminative;
  }
  int span_caps = 0, full_caps = 0, alpha_tokens = 0;
  for (size_t t = span.begin; t < span.end; ++t) {
    const std::string& text = tokens[t].text;
    if (!HasAlpha(text)) continue;
    ++alpha_tokens;
    if (!text.empty() && IsUpperAscii(text[0])) ++span_caps;
    if (IsAllUpper(text)) ++full_caps;
  }
  if (alpha_tokens == 0) return SyntacticCategory::kNoCapitalization;
  if (full_caps == alpha_tokens) return SyntacticCategory::kFullCapitalization;
  if (span_caps == alpha_tokens) {
    return span.length() == 1 && span.begin == 0
               ? SyntacticCategory::kStartOfSentenceCap
               : SyntacticCategory::kProperCapitalization;
  }
  if (span_caps > 0) return SyntacticCategory::kSubstringCapitalization;
  return SyntacticCategory::kNoCapitalization;
}

// The sentence's casing class, computed once per tweet, gives every span the
// category of the per-mention form: over generated tweets as they come and
// recased all-caps, all-lower and title case, every span up to six tokens.
TEST(SyntacticEmbedderTest, SentenceCasingOnceMatchesThePerMentionForm) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = 13;
  const EntityCatalog catalog = EntityCatalog::Build(copt);
  DatasetSuiteOptions sopt;
  sopt.scale = 0.1;
  const Dataset d = BuildD1(catalog, sopt);
  ASSERT_GE(d.tweets.size(), 100u);
  auto recase = [](std::vector<Token> tokens, int mode) {
    for (Token& t : tokens) {
      if (mode == 1) t.text = ToUpperAscii(t.text);
      if (mode == 2) t.text = ToLowerAscii(t.text);
      if (mode == 3 && !t.text.empty()) {
        t.text = ToLowerAscii(t.text);
        t.text[0] = ToUpperAscii(t.text.substr(0, 1))[0];
      }
    }
    return tokens;
  };
  int seen[kNumSyntacticCategories] = {};
  for (const AnnotatedTweet& tweet : d.tweets) {
    for (int mode = 0; mode < 4; ++mode) {
      const std::vector<Token> tokens = recase(tweet.tokens, mode);
      const bool informative = SentenceCasingInformative(tokens);
      if (mode > 0) {
        EXPECT_FALSE(informative) << "recased tweet " << tweet.tweet_id;
      }
      for (size_t b = 0; b < tokens.size(); ++b) {
        for (size_t e = b + 1; e <= tokens.size() && e <= b + 6; ++e) {
          const SyntacticCategory want = PerMentionCategory(tokens, {b, e});
          ASSERT_EQ(ClassifyMentionSyntax(tokens, {b, e}, informative), want)
              << "mode " << mode << " span [" << b << ", " << e << ")";
          ASSERT_EQ(ClassifyMentionSyntax(tokens, {b, e}), want);
          ++seen[static_cast<int>(want)];
        }
      }
    }
  }
  for (int c = 0; c < kNumSyntacticCategories; ++c) {
    EXPECT_GT(seen[c], 0) << "category " << c << " never produced";
  }
}

// --------------------------------------------------------- Candidate/Tweet base

TEST(CandidateBaseTest, IncrementalPoolingEqualsBatchMean) {
  CandidateBase base;
  base.GetOrCreate(0);
  Rng rng(3);
  Mat sum(1, 4);
  const int n = 7;
  for (int i = 0; i < n; ++i) {
    Mat e(1, 4);
    e.InitGaussian(&rng, 1.f);
    sum.Add(e);
    base.AddMention(0, 0, {e.data(), e.size()});
  }
  Mat mean = sum;
  mean.Scale(1.f / n);
  Mat global = base.at(0).GlobalEmbedding();
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(global(0, j), mean(0, j), 1e-5);
  EXPECT_EQ(base.at(0).num_mentions, 7u);
}

TEST(CandidateBaseTest, RetainMentionEmbeddings) {
  CandidateBase base(/*decay_half_life_tweets=*/0,
                     /*retain_mention_embeddings=*/true);
  base.GetOrCreate(0);
  const float a[] = {1, 2};
  const float b[] = {3, 4};
  base.AddMention(0, 0, a);
  base.AddMention(0, 0, b);
  ASSERT_EQ(base.at(0).mention_embeddings.size(), 2u);
  EXPECT_FLOAT_EQ(base.at(0).mention_embeddings[1](0, 1), 4.f);
}

TEST(TweetBaseTest, TokensReadBackAcrossSegments) {
  TweetBase base;
  const std::vector<Token> tokens = Toks("Andy Beshear spoke in Kentucky");
  const size_t n = TweetBase::kSegmentRecords + 3;
  for (size_t i = 0; i < n; ++i) {
    TweetRecord rec;
    rec.tweet_id = static_cast<long>(i);
    rec.quarantined = i % 7 == 0;
    base.Add(rec, std::span(tokens).first(i % (tokens.size() + 1)));
  }
  ASSERT_EQ(base.size(), n);
  auto expect_tokens = [&](size_t i) {
    const TweetBase::Tokens got = base.tokens(i);
    ASSERT_EQ(got.size(), i % (tokens.size() + 1)) << "record " << i;
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].text, tokens[t].text);
      EXPECT_EQ(got[t].begin, tokens[t].begin);
      EXPECT_EQ(got[t].end, tokens[t].end);
      EXPECT_EQ(got[t].kind, tokens[t].kind);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(base.at(i).tweet_id, static_cast<long>(i));
    EXPECT_EQ(base.at(i).quarantined, i % 7 == 0);
    ASSERT_NO_FATAL_FAILURE(expect_tokens(i));
  }
  // A trim ending inside the second segment keeps the records after it.
  const size_t end = TweetBase::kSegmentRecords + 1;
  EXPECT_EQ(base.TrimTokens(end), end);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(base.at(i).trimmed, i < end);
    if (i < end) {
      EXPECT_TRUE(base.tokens(i).empty()) << "record " << i;
    } else {
      ASSERT_NO_FATAL_FAILURE(expect_tokens(i));
    }
  }
  EXPECT_EQ(base.ApproxBytes(), base.RecountBytes());
}

// ------------------------------------------------------------------ Metrics

TEST(MetricsTest, PerfectPrediction) {
  Dataset d;
  AnnotatedTweet t;
  t.tokens = Toks("Andy Beshear spoke in Kentucky");
  t.gold = {{{0, 2}, 1}, {{4, 5}, 2}};
  d.tweets.push_back(t);
  PrfScores s = EvaluateMentions(d, {{{0, 2}, {4, 5}}});
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_EQ(s.tp, 2);
}

TEST(MetricsTest, PartialOverlapIsNotAMatch) {
  Dataset d;
  AnnotatedTweet t;
  t.tokens = Toks("Andy Beshear spoke");
  t.gold = {{{0, 2}, 1}};
  d.tweets.push_back(t);
  PrfScores s = EvaluateMentions(d, {{{0, 1}}});  // only "Andy"
  EXPECT_EQ(s.tp, 0);
  EXPECT_EQ(s.fp, 1);
  EXPECT_EQ(s.fn, 1);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
}

TEST(MetricsTest, HandComputedPrf) {
  Dataset d;
  for (int i = 0; i < 2; ++i) {
    AnnotatedTweet t;
    t.tokens = Toks("a b c d e");
    t.gold = {{{0, 1}, 1}, {{2, 3}, 2}};
    d.tweets.push_back(t);
  }
  // Tweet 0: predict one correct + one wrong; tweet 1: nothing.
  PrfScores s = EvaluateMentions(d, {{{0, 1}, {4, 5}}, {}});
  EXPECT_EQ(s.tp, 1);
  EXPECT_EQ(s.fp, 1);
  EXPECT_EQ(s.fn, 3);
  EXPECT_DOUBLE_EQ(s.precision, 0.5);
  EXPECT_DOUBLE_EQ(s.recall, 0.25);
}

TEST(MetricsTest, UniqueSurfaceDeduplicates) {
  Dataset d;
  for (int i = 0; i < 3; ++i) {
    AnnotatedTweet t;
    t.tokens = Toks("Coronavirus spreads fast");
    t.gold = {{{0, 1}, 1}};
    d.tweets.push_back(t);
  }
  PrfScores s =
      EvaluateUniqueSurfaces(d, {{{0, 1}}, {}, {}});  // found once out of 3
  EXPECT_DOUBLE_EQ(s.f1, 1.0) << "unique-surface counts the form once";
}

TEST(MetricsTest, EmptyPredictions) {
  Dataset d;
  AnnotatedTweet t;
  t.tokens = Toks("x y");
  t.gold = {{{0, 1}, 1}};
  d.tweets.push_back(t);
  PrfScores s = EvaluateMentions(d, {{}});
  EXPECT_DOUBLE_EQ(s.precision, 0.0);
  EXPECT_DOUBLE_EQ(s.recall, 0.0);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
}

}  // namespace
}  // namespace emd
