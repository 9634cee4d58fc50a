// Edge-case battery across modules: tokenizer corner inputs, dropout
// statistics, embedding pad-row invariants, re-scan boundary conditions,
// Finalize idempotence, and diagnostic-count consistency.

#include <gtest/gtest.h>

#include "core/globalizer.h"
#include "mock_local_system.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/optimizer.h"
#include "text/tweet_tokenizer.h"
#include "util/rng.h"

namespace emd {
namespace {

// ------------------------------------------------------------- tokenizer

TEST(TokenizerEdgeTest, LoneMarkersArePunct) {
  TweetTokenizer tok;
  auto a = tok.Tokenize("# and @ alone");
  EXPECT_EQ(a[0].kind, TokenKind::kPunct);
  EXPECT_EQ(a[2].kind, TokenKind::kPunct);
}

TEST(TokenizerEdgeTest, AbbreviationWithPeriods) {
  TweetTokenizer tok;
  auto a = tok.Tokenize("the U.S. economy");
  ASSERT_GE(a.size(), 3u);
  EXPECT_EQ(a[1].text, "U.S.");
}

TEST(TokenizerEdgeTest, EmoticonAfterWordIsNotEaten) {
  TweetTokenizer tok;
  // "word:D" — ':D' must not be split out of a word context wrongly; the
  // tokenizer requires a boundary before an emoticon.
  auto a = tok.Tokenize("ratio:D stays");
  EXPECT_EQ(a[0].text, "ratio");
  // ':D' follows a word char boundary via punctuation fallback.
}

TEST(TokenizerEdgeTest, HashtagMarkerSplitOption) {
  TweetTokenizerOptions opt;
  opt.keep_hashtag_marker = false;
  TweetTokenizer tok(opt);
  auto a = tok.Tokenize("#covid news");
  ASSERT_GE(a.size(), 3u);
  EXPECT_EQ(a[0].text, "#");
  EXPECT_EQ(a[1].text, "covid");
}

TEST(TokenizerEdgeTest, NumberWithSeparators) {
  TweetTokenizer tok;
  auto a = tok.Tokenize("cases hit 1,234 today");
  EXPECT_EQ(a[2].kind, TokenKind::kNumber);
  EXPECT_EQ(a[2].text, "1,234");
}

TEST(TokenizerEdgeTest, ValidUtf8GroupsIntoWordTokens) {
  TweetTokenizer tok;
  // "café" mixes ASCII and a two-byte sequence; "日本" is two three-byte
  // sequences grouped into one word token.
  auto a = tok.Tokenize("caf\xC3\xA9 \xE6\x97\xA5\xE6\x9C\xAC news");
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].text, "caf");
  EXPECT_EQ(a[1].text, "\xC3\xA9");
  EXPECT_EQ(a[1].kind, TokenKind::kWord);
  EXPECT_EQ(a[2].text, "\xE6\x97\xA5\xE6\x9C\xAC");
  EXPECT_EQ(a[2].kind, TokenKind::kWord);
  EXPECT_EQ(a[3].text, "news");
}

TEST(TokenizerEdgeTest, InvalidUtf8BytesNeverReachTokens) {
  TweetTokenizer tok;
  // Stray continuation byte, truncated 3-byte sequence, overlong encoding of
  // '/', and a lone 0xFF — all dropped; surrounding ASCII survives.
  auto a = tok.Tokenize("ok \x80 mid\xE6\x97 end \xC0\xAF\xFF done");
  std::vector<std::string> texts;
  for (const Token& t : a) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"ok", "mid", "end", "done"}));
  for (const Token& t : a) {
    for (char c : t.text) {
      EXPECT_LT(static_cast<unsigned char>(c), 0x80u)
          << "invalid byte leaked into token \"" << t.text << "\"";
    }
  }
}

TEST(TokenizerEdgeTest, Utf16SurrogateEncodingIsRejected) {
  TweetTokenizer tok;
  // ED A0 80 encodes U+D800, a UTF-16 surrogate — invalid in UTF-8.
  auto a = tok.Tokenize("a \xED\xA0\x80 b");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].text, "a");
  EXPECT_EQ(a[1].text, "b");
}

TEST(TokenizerEdgeTest, OversizedTokenSplitsAtCap) {
  TweetTokenizerOptions opt;
  opt.max_token_bytes = 8;
  TweetTokenizer tok(opt);
  auto a = tok.Tokenize(std::string(20, 'a'));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].text.size(), 8u);
  EXPECT_EQ(a[1].text.size(), 8u);
  EXPECT_EQ(a[2].text.size(), 4u);
  // Offsets stay exact across the split.
  EXPECT_EQ(a[1].begin, 8u);
  EXPECT_EQ(a[2].end, 20u);
}

TEST(TokenizerEdgeTest, TokenCapRespectsUtf8Boundaries) {
  TweetTokenizerOptions opt;
  opt.max_token_bytes = 5;
  TweetTokenizer tok(opt);
  // Three two-byte sequences (6 bytes): the cap must cut at 4 bytes, never
  // down the middle of a sequence.
  auto a = tok.Tokenize("\xC3\xA9\xC3\xA9\xC3\xA9");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].text, "\xC3\xA9\xC3\xA9");
  EXPECT_EQ(a[1].text, "\xC3\xA9");
}

TEST(TokenizerEdgeTest, OversizedTweetTruncatesAtUtf8Boundary) {
  TweetTokenizerOptions opt;
  opt.max_text_bytes = 10;
  TweetTokenizer tok(opt);
  // Byte 10 falls inside the final two-byte sequence; the whole sequence
  // must be dropped rather than leaving a torn lead byte.
  auto a = tok.Tokenize("abcdefgh \xC3\xA9xyz");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].text, "abcdefgh");
}

// --------------------------------------------------------------- dropout

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5f);
  Rng rng(1);
  Mat x(4, 8);
  x.InitGaussian(&rng, 1.f);
  Mat y = drop.Forward(x, /*training=*/false, &rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(x.data()[i], y.data()[i]);
  // Backward in eval mode is identity too.
  Mat dy(4, 8);
  dy.Fill(1.f);
  Mat dx = drop.Backward(dy);
  for (size_t i = 0; i < dx.size(); ++i) EXPECT_FLOAT_EQ(dx.data()[i], 1.f);
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  Dropout drop(0.3f);
  Rng rng(2);
  Mat x(1, 20000);
  x.Fill(1.f);
  Mat y = drop.Forward(x, /*training=*/true, &rng);
  double mean = 0;
  int zeros = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    mean += y.data()[i];
    if (y.data()[i] == 0.f) ++zeros;
  }
  mean /= y.size();
  EXPECT_NEAR(mean, 1.0, 0.03) << "inverted dropout must preserve expectation";
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.3, 0.02);
}

TEST(DropoutTest, ZeroRateIsAlwaysIdentity) {
  Dropout drop(0.f);
  Rng rng(3);
  Mat x(2, 4);
  x.InitGaussian(&rng, 1.f);
  Mat y = drop.Forward(x, /*training=*/true, &rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(x.data()[i], y.data()[i]);
}

// ------------------------------------------------------------- embedding

TEST(EmbeddingTest, PadRowStaysZeroThroughTraining) {
  Rng rng(4);
  Embedding emb(6, 3, &rng);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(emb.table()(0, j), 0.f);
  ParamSet params;
  emb.CollectParams(&params);
  AdamOptimizer adam(0.1f);
  for (int step = 0; step < 5; ++step) {
    params.ZeroGrads();
    Mat out = emb.Forward({0, 2, 0, 3});
    Mat dy(4, 3);
    dy.Fill(1.f);
    emb.Backward(dy);
    // Pad-row grads must be zero so the optimizer cannot move it.
    adam.Step(&params);
  }
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(emb.table()(0, j), 0.f);
}

// ------------------------------------------------------------ extractor

TEST(ExtractorEdgeTest, CandidateAtSentenceEnd) {
  ShardedGlobalState state;
  state.Insert({"beshear"});
  auto toks = TweetTokenizer().Tokenize("a statement from Beshear");
  auto mentions = state.Extract(toks);
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].span.end, toks.size());
}

TEST(ExtractorEdgeTest, CandidateLongerThanSentence) {
  ShardedGlobalState state;
  state.Insert({"one", "two", "three", "four"});
  auto toks = TweetTokenizer().Tokenize("one two three");
  EXPECT_TRUE(state.Extract(toks).empty());
}

TEST(ExtractorEdgeTest, EmptySentence) {
  ShardedGlobalState state;
  state.Insert({"x"});
  EXPECT_TRUE(state.Extract({}).empty());
}

TEST(ExtractorEdgeTest, RepeatedAdjacentMentions) {
  ShardedGlobalState state;
  state.Insert({"goal"});
  auto toks = TweetTokenizer().Tokenize("goal goal goal");
  EXPECT_EQ(state.Extract(toks).size(), 3u);
}

// ----------------------------------------------------------- globalizer

AnnotatedTweet Tw(long id, const std::string& text) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  return t;
}

TEST(GlobalizerEdgeTest, FinalizeMentionsAreStableAcrossCalls) {
  Dataset d;
  d.tweets = {Tw(1, "Beshear spoke about coronavirus"),
              Tw(2, "more on beshear and Coronavirus")};
  MockLocalSystem mock({{.phrase = {"beshear"}, .require_capitalized = true},
                        {.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data(), d.tweets.size())).ok());
  GlobalizerOutput a = g.Finalize().value();
  GlobalizerOutput b = g.Finalize().value();
  EXPECT_EQ(a.mentions, b.mentions);
}

TEST(GlobalizerEdgeTest, DiagnosticCountsAreConsistent) {
  Dataset d;
  d.tweets = {Tw(1, "Beshear spoke in Northfield today"),
              Tw(2, "beshear and northfield again tonight"),
              Tw(3, "Beshear warns Northfield residents")};
  MockLocalSystem mock({{.phrase = {"beshear"}, .require_capitalized = true},
                        {.phrase = {"northfield"}, .require_capitalized = true}});
  EntityClassifier clf({.input_dim = 7});
  std::vector<ClassifierExample> examples;
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    Mat pos(1, 6);
    pos(0, 0) = 1;
    examples.push_back({EntityClassifier::MakeFeatures(pos, 1), true});
    Mat neg(1, 6);
    neg(0, 4) = 1;
    examples.push_back({EntityClassifier::MakeFeatures(neg, 1), false});
  }
  clf.Train(examples, {.max_epochs = 40});
  Globalizer g(&mock, nullptr, &clf, {});
  GlobalizerOutput out = g.Run(d).value();
  EXPECT_EQ(out.num_candidates,
            out.num_entity + out.num_non_entity + out.num_ambiguous);
  EXPECT_GE(out.num_candidates, 2);
}

TEST(GlobalizerEdgeTest, EmptyDataset) {
  Dataset d;
  MockLocalSystem mock({});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(d).value();
  EXPECT_TRUE(out.mentions.empty());
  EXPECT_EQ(out.num_candidates, 0);
}

TEST(GlobalizerEdgeTest, TweetsWithNoTokens) {
  Dataset d;
  AnnotatedTweet empty;
  empty.tweet_id = 1;
  d.tweets.push_back(empty);
  d.tweets.push_back(Tw(2, "Beshear speaks"));
  MockLocalSystem mock({{.phrase = {"beshear"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(d).value();
  ASSERT_EQ(out.mentions.size(), 2u);
  EXPECT_TRUE(out.mentions[0].empty());
  EXPECT_EQ(out.mentions[1].size(), 1u);
}

}  // namespace
}  // namespace emd
