#include <gtest/gtest.h>

#include "text/token.h"
#include "text/tweet_tokenizer.h"
#include "text/vocabulary.h"

namespace emd {
namespace {

std::vector<std::string> Texts(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const auto& t : tokens) out.push_back(t.text);
  return out;
}

TEST(TweetTokenizerTest, BasicWordsAndPunct) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("Beshear says hello , world .");
  EXPECT_EQ(Texts(t),
            (std::vector<std::string>{"Beshear", "says", "hello", ",", "world", "."}));
  EXPECT_EQ(t[3].kind, TokenKind::kPunct);
}

TEST(TweetTokenizerTest, MentionsHashtagsUrls) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("@user1 check #Covid19 at https://t.co/abc now");
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].kind, TokenKind::kMention);
  EXPECT_EQ(t[0].text, "@user1");
  EXPECT_EQ(t[2].kind, TokenKind::kHashtag);
  EXPECT_EQ(t[2].text, "#Covid19");
  EXPECT_EQ(t[4].kind, TokenKind::kUrl);
  EXPECT_EQ(t[4].text, "https://t.co/abc");
}

TEST(TweetTokenizerTest, UrlDropsTrailingSentencePunct) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("see www.example.com.");
  ASSERT_GE(t.size(), 2u);
  EXPECT_EQ(t[1].text, "www.example.com");
  EXPECT_EQ(t[1].kind, TokenKind::kUrl);
}

TEST(TweetTokenizerTest, Emoticons) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("great news :) sad day :(");
  EXPECT_EQ(t[2].kind, TokenKind::kEmoticon);
  EXPECT_EQ(t.back().kind, TokenKind::kEmoticon);
}

TEST(TweetTokenizerTest, ContractionsStayTogether) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("he's asking mayors");
  EXPECT_EQ(t[0].text, "he's");
}

TEST(TweetTokenizerTest, HyphenatedWord) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("BY-PASS the city");
  EXPECT_EQ(t[0].text, "BY-PASS");
}

TEST(TweetTokenizerTest, PunctRunsCollapse) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("wow!!! ok??");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1].text, "!!!");
  EXPECT_EQ(t[3].text, "??");
}

TEST(TweetTokenizerTest, NumbersClassified) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("cases up 1234 today");
  EXPECT_EQ(t[2].kind, TokenKind::kNumber);
}

TEST(TweetTokenizerTest, OffsetsMatchSource) {
  TweetTokenizer tok;
  const std::string text = "WE JUST BY-PASS Italy WITH #CORONAVIRUS :)";
  auto tokens = tok.Tokenize(text);
  for (const auto& t : tokens) {
    ASSERT_LE(t.end, text.size());
    EXPECT_EQ(text.substr(t.begin, t.end - t.begin), t.text);
  }
}

TEST(TweetTokenizerTest, EmptyAndWhitespaceOnly) {
  TweetTokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("   \t\n").empty());
}

TEST(TokenTest, SpanText) {
  TweetTokenizer tok;
  auto t = tok.Tokenize("Andy Beshear says");
  EXPECT_EQ(SpanText(t, {0, 2}), "Andy Beshear");
  EXPECT_EQ(TokensText(t), "Andy Beshear says");
}

TEST(VocabularyTest, ReservedIds) {
  Vocabulary v;
  EXPECT_EQ(v.size(), 2);
  EXPECT_EQ(v.Id("<pad>"), Vocabulary::kPadId);
  EXPECT_EQ(v.Id("<unk>"), Vocabulary::kUnkId);
  EXPECT_EQ(v.Id("missing"), Vocabulary::kUnkId);
}

TEST(VocabularyTest, AddAndLookup) {
  Vocabulary v;
  int id = v.Add("virus");
  EXPECT_EQ(v.Add("virus"), id);  // idempotent
  EXPECT_EQ(v.Id("virus"), id);
  EXPECT_EQ(v.Token(id), "virus");
  EXPECT_EQ(v.Find("virus"), id);
  EXPECT_EQ(v.Find("other"), Vocabulary::kAbsent);
}

TEST(VocabularyTest, FromCountsOrdersAndPrunes) {
  std::unordered_map<std::string, int> counts = {
      {"common", 10}, {"mid", 5}, {"rare", 1}};
  Vocabulary v = Vocabulary::FromCounts(counts, 2);
  EXPECT_NE(v.Find("common"), Vocabulary::kAbsent);
  EXPECT_NE(v.Find("mid"), Vocabulary::kAbsent);
  EXPECT_EQ(v.Find("rare"), Vocabulary::kAbsent);
  EXPECT_LT(v.Id("common"), v.Id("mid"));  // higher count -> earlier id
}

TEST(VocabularyTest, SerializeRoundTrip) {
  Vocabulary v;
  v.Add("alpha");
  v.Add("beta");
  auto r = Vocabulary::Deserialize(v.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), v.size());
  EXPECT_EQ(r->Id("beta"), v.Id("beta"));
}

TEST(VocabularyTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Vocabulary::Deserialize("not a vocab").ok());
  EXPECT_FALSE(Vocabulary::Deserialize("").ok());
}

}  // namespace
}  // namespace emd
