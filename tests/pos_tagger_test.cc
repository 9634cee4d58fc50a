// PosTagger tests against a reference: ReferencePosTagger below is the same
// model in its plainest form (one std::string key per feature, one
// string-keyed weight map). Trained on the same corpus the two must agree on
// every weight and every tag, on generated streams
// (D4-like and novel-heavy options) and on edge tokens: literal <s>/</s>,
// empty text, 1-3 character words, non-ASCII bytes, words past the
// small-string size and every forced kind. A tagger saved by one loads into
// the other with the same tags. Also: warm Tag's heap allocations do not
// grow with the tweet's length.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
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

#include "emd/pos_tagger.h"
#include "stream/datasets.h"
#include "stream/entity_catalog.h"
#include "stream/tweet_generator.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

bool KindForcesTag(const Token& tok, PosTag* tag) {
  switch (tok.kind) {
    case TokenKind::kMention:
      *tag = PosTag::kMention;
      return true;
    case TokenKind::kHashtag:
      *tag = PosTag::kHashtag;
      return true;
    case TokenKind::kUrl:
      *tag = PosTag::kUrl;
      return true;
    case TokenKind::kEmoticon:
      *tag = PosTag::kEmoticon;
      return true;
    case TokenKind::kPunct:
      *tag = PosTag::kPunct;
      return true;
    case TokenKind::kNumber:
      *tag = PosTag::kNum;
      return true;
    default:
      return false;
  }
}

// The string-feature tagger, kept as the oracle.
class ReferencePosTagger {
 public:
  std::vector<std::string> Features(const std::vector<Token>& tokens, size_t t,
                                    PosTag prev_tag) const {
    std::string lower, ctx;
    ToLowerAsciiInto(tokens[t].text, &lower);
    std::vector<std::string> feats;
    feats.reserve(12);
    feats.push_back("w=" + lower);
    feats.push_back("shape=" + WordShape(tokens[t].text));
    if (lower.size() >= 2) feats.push_back("suf2=" + lower.substr(lower.size() - 2));
    if (lower.size() >= 3) feats.push_back("suf3=" + lower.substr(lower.size() - 3));
    feats.push_back(std::string("cap=") +
                    (IsUpperAscii(tokens[t].text.empty() ? 'a' : tokens[t].text[0])
                         ? "1"
                         : "0"));
    feats.push_back(std::string("start=") + (t == 0 ? "1" : "0"));
    feats.push_back(std::string("prev_tag=") + PosTagName(prev_tag));
    if (t > 0) {
      ToLowerAsciiInto(tokens[t - 1].text, &ctx);
    } else {
      ctx = "<s>";
    }
    feats.push_back("prev_w=" + ctx);
    if (t + 1 < tokens.size()) {
      ToLowerAsciiInto(tokens[t + 1].text, &ctx);
    } else {
      ctx = "</s>";
    }
    feats.push_back("next_w=" + ctx);
    feats.push_back("bias");
    return feats;
  }

  int Predict(const std::vector<std::string>& feats) const {
    std::vector<float> scores(kNumPosTags, 0.f);
    for (const auto& f : feats) {
      auto it = weights_.find(f);
      if (it == weights_.end()) continue;
      for (int k = 0; k < kNumPosTags; ++k) scores[k] += it->second[k];
    }
    int best = 0;
    for (int k = 1; k < kNumPosTags; ++k) {
      if (scores[k] > scores[best]) best = k;
    }
    return best;
  }

  void Train(const Dataset& corpus, const PosTaggerTrainOptions& options = {}) {
    std::unordered_map<std::string, std::vector<float>> totals;
    std::unordered_map<std::string, std::vector<long>> stamps;
    long step = 0;
    Rng rng(options.seed);

    auto update = [&](const std::string& feat, int tag, float delta) {
      auto& w = weights_[feat];
      auto& tot = totals[feat];
      auto& st = stamps[feat];
      if (w.empty()) {
        w.assign(kNumPosTags, 0.f);
        tot.assign(kNumPosTags, 0.f);
        st.assign(kNumPosTags, 0);
      }
      tot[tag] += static_cast<float>(step - st[tag]) * w[tag];
      st[tag] = step;
      w[tag] += delta;
    };

    std::vector<size_t> order(corpus.tweets.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      rng.Shuffle(&order);
      for (size_t idx : order) {
        const AnnotatedTweet& tweet = corpus.tweets[idx];
        EMD_CHECK_EQ(tweet.silver_pos.size(), tweet.tokens.size());
        PosTag prev = PosTag::kPunct;
        for (size_t t = 0; t < tweet.tokens.size(); ++t) {
          PosTag forced;
          if (KindForcesTag(tweet.tokens[t], &forced)) {
            prev = forced;
            continue;
          }
          ++step;
          const auto feats = Features(tweet.tokens, t, prev);
          const int pred = Predict(feats);
          const int gold = static_cast<int>(tweet.silver_pos[t]);
          if (pred != gold) {
            for (const auto& f : feats) {
              update(f, gold, 1.f);
              update(f, pred, -1.f);
            }
          }
          prev = static_cast<PosTag>(pred);
        }
      }
    }
    for (auto& [feat, w] : weights_) {
      auto& tot = totals[feat];
      auto& st = stamps[feat];
      for (int k = 0; k < kNumPosTags; ++k) {
        tot[k] += static_cast<float>(step - st[k]) * w[k];
        w[k] = step > 0 ? tot[k] / static_cast<float>(step) : w[k];
      }
    }
  }

  std::vector<PosTag> Tag(const std::vector<Token>& tokens) const {
    std::vector<PosTag> tags(tokens.size(), PosTag::kNoun);
    PosTag prev = PosTag::kPunct;
    for (size_t t = 0; t < tokens.size(); ++t) {
      PosTag forced;
      if (KindForcesTag(tokens[t], &forced)) {
        tags[t] = forced;
        prev = forced;
        continue;
      }
      tags[t] = static_cast<PosTag>(Predict(Features(tokens, t, prev)));
      prev = tags[t];
    }
    return tags;
  }

  bool Save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << weights_.size() << "\n";
    for (const auto& [feat, w] : weights_) {
      out << feat;
      for (float v : w) out << ' ' << v;
      out << "\n";
    }
    return static_cast<bool>(out);
  }

  bool Load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    size_t n = 0;
    in >> n;
    weights_.clear();
    for (size_t i = 0; i < n; ++i) {
      std::string feat;
      in >> feat;
      std::vector<float> w(kNumPosTags);
      for (auto& v : w) in >> v;
      if (!in) return false;
      weights_.emplace(std::move(feat), std::move(w));
    }
    return true;
  }

 private:
  std::unordered_map<std::string, std::vector<float>> weights_;
};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> SortedLines(const std::string& path) {
  auto lines = ReadLines(path);
  EMD_CHECK(lines.ok());
  std::vector<std::string> out = std::move(lines).value();
  std::sort(out.begin(), out.end());
  return out;
}

Token Tok(std::string text, TokenKind kind = TokenKind::kWord) {
  Token t;
  t.text = std::move(text);
  t.kind = kind;
  return t;
}

// Tweets of edge tokens, silver-tagged at random among the tags no kind
// forces, so training gives the edge words weights of their own.
std::vector<AnnotatedTweet> EdgeTweets(uint64_t seed) {
  const std::vector<Token> pool = {
      Tok("<s>"),  Tok("</s>"),  Tok(""),   Tok("a"),   Tok("B"),   Tok("of"),
      Tok("Ok"),   Tok("tHe"),   Tok("x1"), Tok("caf\xc3\xa9"), Tok("\xe2\x80\x9cQuote"),
      Tok("\xf0\x9f\x98\x80"),   Tok("Supercalifragilistic"),
      Tok("internationalization"), Tok("ABCDEFGHIJKLMNOPQRST"),
      Tok("@user", TokenKind::kMention), Tok("#tag", TokenKind::kHashtag),
      Tok("https://t.co/x", TokenKind::kUrl), Tok(":)", TokenKind::kEmoticon),
      Tok("!", TokenKind::kPunct),  Tok("42", TokenKind::kNumber)};
  Rng rng(seed);
  std::vector<AnnotatedTweet> out;
  for (int i = 0; i < 300; ++i) {
    AnnotatedTweet tweet;
    const int len = rng.NextInt(1, 12);
    for (int t = 0; t < len; ++t) {
      tweet.tokens.push_back(pool[rng.NextU64(pool.size())]);
      tweet.silver_pos.push_back(static_cast<PosTag>(rng.NextInt(0, 6)));
    }
    out.push_back(std::move(tweet));
  }
  // Every edge token alone, and the sentinels' spellings at both ends.
  for (const Token& tok : pool) {
    AnnotatedTweet tweet;
    tweet.tokens = {tok};
    tweet.silver_pos = {PosTag::kNoun};
    out.push_back(std::move(tweet));
  }
  AnnotatedTweet ends;
  ends.tokens = {Tok("</s>"), Tok("mid"), Tok("<s>")};
  ends.silver_pos = {PosTag::kFunc, PosTag::kNoun, PosTag::kFunc};
  out.push_back(std::move(ends));
  return out;
}

std::vector<AnnotatedTweet> StreamTweets(const EntityCatalog& catalog,
                                         const TweetGeneratorOptions& base,
                                         int per_topic, uint64_t seed) {
  std::vector<AnnotatedTweet> out;
  for (int topic = 0; topic < static_cast<int>(Topic::kNumTopics); ++topic) {
    TweetGeneratorOptions o = base;
    o.seed = seed * 31 + static_cast<uint64_t>(topic);
    TweetGenerator gen(&catalog, static_cast<Topic>(topic), o);
    for (int i = 0; i < per_topic; ++i) out.push_back(gen.Next());
  }
  return out;
}

TweetGeneratorOptions D4Like() {
  TweetGeneratorOptions g;
  g.pool_size = 160;
  g.zipf_exponent = 1.1;
  return g;
}

TweetGeneratorOptions NovelHeavy() {
  TweetGeneratorOptions g;
  g.pool_size = 700;
  g.zipf_exponent = 0.5;
  g.novel_pool_bias = 0.95;
  g.rare_word_prob = 0.45;
  g.slang_share = 0.2;
  return g;
}

// Counts tweets the two taggers tag differently; prints the first.
template <typename A, typename B>
int Mismatches(const A& a, const B& b, const std::vector<AnnotatedTweet>& tweets) {
  int bad = 0;
  for (const auto& tweet : tweets) {
    if (a.Tag(tweet.tokens) == b.Tag(tweet.tokens)) continue;
    if (bad++ == 0) {
      std::string text;
      for (const auto& t : tweet.tokens) text += "[" + t.text + "]";
      ADD_FAILURE() << "first mismatch: " << text;
    }
  }
  return bad;
}

EntityCatalog Catalog(uint64_t seed) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 150;
  copt.seed = seed;
  return EntityCatalog::Build(copt);
}

TEST(PosTaggerReferenceTest, TagMatchesReferenceOnStreamsAndEdgeTokens) {
  const EntityCatalog catalog = Catalog(17);
  Dataset train = BuildTrainingCorpus(catalog, 600, 23);
  for (auto& tweet : EdgeTweets(1)) train.tweets.push_back(std::move(tweet));

  PosTagger tagger;
  ReferencePosTagger reference;
  tagger.Train(train, {.epochs = 3});
  reference.Train(train, {.epochs = 3});

  std::vector<AnnotatedTweet> tweets = StreamTweets(catalog, D4Like(), 600, 5);
  const size_t d4 = tweets.size();
  for (auto& t : StreamTweets(catalog, NovelHeavy(), 600, 6)) tweets.push_back(std::move(t));
  for (auto& t : EdgeTweets(2)) tweets.push_back(std::move(t));
  tweets.emplace_back();  // no tokens at all
  ASSERT_GE(d4, 3000u);
  ASSERT_GE(tweets.size() - d4, 3000u);
  EXPECT_EQ(Mismatches(tagger, reference, tweets), 0);

  // What each saves, the other loads, tagging alike (the benchmark tags
  // with a tagger loaded from its model cache).
  const std::string path = TempPath("emd_pos_ref_test.model");
  const std::string ref_path = TempPath("emd_pos_ref_test_ref.model");
  ASSERT_TRUE(tagger.Save(path).ok());
  ASSERT_TRUE(reference.Save(ref_path));
  EXPECT_EQ(SortedLines(path), SortedLines(ref_path));
  PosTagger loaded;
  ReferencePosTagger ref_loaded;
  ASSERT_TRUE(loaded.Load(ref_path).ok());
  ASSERT_TRUE(ref_loaded.Load(path));
  EXPECT_EQ(Mismatches(loaded, ref_loaded, tweets), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(ref_path);
}

// The emd_systems_test world: same catalog, corpus and epochs.
TEST(PosTaggerReferenceTest, TrainMatchesReferenceOnSystemsWorld) {
  const EntityCatalog catalog = Catalog(5);
  const Dataset train = BuildTrainingCorpus(catalog, 600, 11);
  PosTagger tagger;
  ReferencePosTagger reference;
  tagger.Train(train, {.epochs = 3});
  reference.Train(train, {.epochs = 3});

  const std::string path = TempPath("emd_pos_world_test.model");
  const std::string ref_path = TempPath("emd_pos_world_test_ref.model");
  ASSERT_TRUE(tagger.Save(path).ok());
  ASSERT_TRUE(reference.Save(ref_path));
  const auto lines = SortedLines(path);
  EXPECT_GT(lines.size(), 1000u);
  EXPECT_EQ(lines, SortedLines(ref_path));

  const Dataset held = BuildTrainingCorpus(catalog, 200, 999);
  DatasetSuiteOptions sopt;
  sopt.scale = 0.15;
  const Dataset d1 = BuildD1(catalog, sopt);
  EXPECT_EQ(Mismatches(tagger, reference, held.tweets), 0);
  EXPECT_EQ(Mismatches(tagger, reference, d1.tweets), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(ref_path);
}

TEST(PosTaggerAllocationTest, WarmTagAllocationsDoNotGrowWithLength) {
  const EntityCatalog catalog = Catalog(5);
  PosTagger tagger;
  tagger.Train(BuildTrainingCorpus(catalog, 200, 11), {.epochs = 1});
  // Short words stay in the small-string buffer; the words repeat, so some
  // hit the index and some miss it.
  const std::vector<std::string> words = {"the", "Cat", "sat", "on", "mat", "zzq", "Ok"};
  auto tweet = [&](size_t n) {
    std::vector<Token> tokens;
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(i % 9 == 8 ? Tok("!", TokenKind::kPunct) : Tok(words[i % words.size()]));
    }
    return tokens;
  };
  const std::vector<Token> short_tweet = tweet(5);
  const std::vector<Token> long_tweet = tweet(50);
  auto allocations = [&](const std::vector<Token>& tokens) {
    const long before = g_allocations.load(std::memory_order_relaxed);
    const std::vector<PosTag> tags = tagger.Tag(tokens);
    const long after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(tags.size(), tokens.size());
    return after - before;
  };
  allocations(short_tweet);  // warm-up
  allocations(long_tweet);
  const long short_allocs = allocations(short_tweet);
  EXPECT_EQ(allocations(long_tweet), short_allocs);
  EXPECT_LE(short_allocs, 1) << "only the returned tag vector";
}

}  // namespace
}  // namespace emd
