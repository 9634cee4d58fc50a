// Tests for the four Local EMD instantiations and their shared substrates
// (PosTagger, subword tokenizer), on a small fresh world. Training runs are
// deliberately tiny; the assertions target behaviour, not benchmark scores.

#include <gtest/gtest.h>

#include <filesystem>

#include "emd/aguilar_net.h"
#include "emd/mini_bertweet.h"
#include "emd/np_chunker.h"
#include "emd/pos_tagger.h"
#include "emd/subword.h"
#include "emd/twitter_nlp.h"
#include "text/tweet_tokenizer.h"
#include "eval/metrics.h"
#include "stream/datasets.h"
#include "stream/gazetteer.h"
#include "util/string_util.h"

namespace emd {
namespace {

struct World {
  EntityCatalog catalog;
  Gazetteer gazetteer;
  Dataset train;
  Dataset test;
  PosTagger tagger;

  static World Make() {
    EntityCatalogOptions copt;
    copt.entities_per_topic = 150;
    copt.seed = 5;
    World w{EntityCatalog::Build(copt), {}, {}, {}, {}};
    w.gazetteer = Gazetteer::Build(w.catalog);
    w.train = BuildTrainingCorpus(w.catalog, 600, 11);
    DatasetSuiteOptions sopt;
    sopt.scale = 0.15;
    w.test = BuildD1(w.catalog, sopt);
    w.tagger.Train(w.train, {.epochs = 3});
    return w;
  }
};

World& SharedWorld() {
  static World* w = new World(World::Make());
  return *w;
}

double MentionF1(const Dataset& data, LocalEmdSystem* system) {
  std::vector<std::vector<TokenSpan>> pred;
  for (const auto& tweet : data.tweets) {
    pred.push_back(system->Process(tweet.tokens).mentions);
  }
  return EvaluateMentions(data, pred).f1;
}

TEST(PosTaggerTest, LearnsSilverTags) {
  World& w = SharedWorld();
  EXPECT_GT(w.tagger.Accuracy(w.train), 0.85);
  // Held-out (same distribution): still decent.
  Dataset held = BuildTrainingCorpus(w.catalog, 100, 999);
  EXPECT_GT(w.tagger.Accuracy(held), 0.75);
}

TEST(PosTaggerTest, ForcedKindsAlwaysCorrect) {
  World& w = SharedWorld();
  Token hash{.text = "#covid", .kind = TokenKind::kHashtag};
  Token url{.text = "https://x.co", .kind = TokenKind::kUrl};
  Token punct{.text = "!", .kind = TokenKind::kPunct};
  auto tags = w.tagger.Tag({hash, url, punct});
  EXPECT_EQ(tags[0], PosTag::kHashtag);
  EXPECT_EQ(tags[1], PosTag::kUrl);
  EXPECT_EQ(tags[2], PosTag::kPunct);
}

TEST(PosTaggerTest, SaveLoadPreservesTags) {
  World& w = SharedWorld();
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_pos_test.model").string();
  ASSERT_TRUE(w.tagger.Save(path).ok());
  PosTagger loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 20; ++i) {
    const auto& tokens = w.test.tweets[i].tokens;
    EXPECT_EQ(w.tagger.Tag(tokens), loaded.Tag(tokens));
  }
  std::filesystem::remove(path);
}

TEST(NpChunkerTest, ProjectsCapitalizedNounChunks) {
  World& w = SharedWorld();
  NpChunkerSystem chunker(&w.tagger);
  for (const auto& tweet : w.train.tweets) {
    for (const auto& tok : tweet.tokens) {
      if (tok.kind == TokenKind::kWord) chunker.AddLexiconWord(ToLowerAscii(tok.text));
    }
  }
  EXPECT_FALSE(chunker.is_deep());
  EXPECT_EQ(chunker.embedding_dim(), 0);
  const double f1 = MentionF1(w.test, &chunker);
  // Weak but not useless — the paper's chunker sits at F1 0.33-0.56.
  EXPECT_GT(f1, 0.15);
  EXPECT_LT(f1, 0.75);
}

TEST(TwitterNlpTest, TrainsAndBeatsChunker) {
  World& w = SharedWorld();
  static TwitterNlpSystem* tnlp = [] {
    auto* sys = new TwitterNlpSystem(&SharedWorld().tagger, &SharedWorld().gazetteer);
    sys->Train(SharedWorld().train, {.epochs = 3});
    return sys;
  }();
  EXPECT_TRUE(tnlp->trained());
  const double f1 = MentionF1(w.test, tnlp);
  EXPECT_GT(f1, 0.4);

  // Save/load roundtrip reproduces outputs exactly.
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_tnlp_test.model").string();
  ASSERT_TRUE(tnlp->Save(path).ok());
  TwitterNlpSystem loaded(&w.tagger, &w.gazetteer);
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 30; ++i) {
    const auto& tokens = w.test.tweets[i].tokens;
    EXPECT_EQ(tnlp->Process(tokens).mentions, loaded.Process(tokens).mentions);
  }
  std::filesystem::remove(path);
}

TEST(AguilarNetTest, TrainsEmitsEmbeddingsAndRoundTrips) {
  World& w = SharedWorld();
  static AguilarNetSystem* net = [] {
    AguilarNetOptions opt;
    opt.word_dim = 24;
    opt.lstm_hidden = 16;
    opt.dense_dim = 32;
    auto* sys = new AguilarNetSystem(&SharedWorld().tagger, &SharedWorld().gazetteer,
                                     opt);
    Dataset small = SharedWorld().train;
    small.tweets.resize(300);
    sys->Train(small, {.epochs = 3});
    return sys;
  }();
  EXPECT_TRUE(net->is_deep());
  EXPECT_EQ(net->embedding_dim(), 32);

  LocalEmdResult r = net->Process(w.test.tweets[0].tokens);
  EXPECT_EQ(r.token_embeddings.rows(),
            static_cast<int>(w.test.tweets[0].tokens.size()));
  EXPECT_EQ(r.token_embeddings.cols(), 32);

  const double f1 = MentionF1(w.test, net);
  EXPECT_GT(f1, 0.3);

  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_aguilar_test.model").string();
  ASSERT_TRUE(net->Save(path).ok());
  AguilarNetOptions opt;
  opt.word_dim = 24;
  opt.lstm_hidden = 16;
  opt.dense_dim = 32;
  AguilarNetSystem loaded(&w.tagger, &w.gazetteer, opt);
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 15; ++i) {
    const auto& tokens = w.test.tweets[i].tokens;
    EXPECT_EQ(net->Process(tokens).mentions, loaded.Process(tokens).mentions);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wv");
  std::filesystem::remove(path + ".cv");
}

TEST(MiniBertweetTest, TrainsEmitsEmbeddingsAndRoundTrips) {
  World& w = SharedWorld();
  static MiniBertweetSystem* net = [] {
    MiniBertweetOptions opt;
    opt.d_model = 32;
    opt.num_heads = 2;
    opt.d_ff = 64;
    opt.num_layers = 1;
    auto* sys = new MiniBertweetSystem(opt);
    Dataset small = SharedWorld().train;
    small.tweets.resize(300);
    sys->Train(small, {.epochs = 3});
    return sys;
  }();
  EXPECT_TRUE(net->is_deep());
  EXPECT_EQ(net->embedding_dim(), 32);
  LocalEmdResult r = net->Process(w.test.tweets[0].tokens);
  EXPECT_EQ(r.token_embeddings.rows(),
            static_cast<int>(w.test.tweets[0].tokens.size()));

  const double f1 = MentionF1(w.test, net);
  EXPECT_GT(f1, 0.2);

  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_bertweet_test.model").string();
  ASSERT_TRUE(net->Save(path).ok());
  MiniBertweetOptions opt;
  opt.d_model = 32;
  opt.num_heads = 2;
  opt.d_ff = 64;
  opt.num_layers = 1;
  MiniBertweetSystem loaded(opt);
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 15; ++i) {
    const auto& tokens = w.test.tweets[i].tokens;
    EXPECT_EQ(net->Process(tokens).mentions, loaded.Process(tokens).mentions);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".sv");
}

TEST(SubwordTest, SplitCoversAnyAsciiWord) {
  World& w = SharedWorld();
  SubwordTokenizer st = SubwordTokenizer::Build(w.train, 3);
  for (const std::string word : {"coronavirus", "xyzzyplugh", "a", "Beshear42"}) {
    auto split = st.Split(word);
    EXPECT_FALSE(split.empty());
    for (int id : split) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, st.vocab_size());
    }
  }
}

TEST(SubwordTest, FrequentWordIsSinglePiece) {
  World& w = SharedWorld();
  SubwordTokenizer st = SubwordTokenizer::Build(w.train, 3);
  EXPECT_EQ(st.Split("the").size(), 1u);
}

TEST(SubwordTest, SerializeRoundTrip) {
  World& w = SharedWorld();
  SubwordTokenizer st = SubwordTokenizer::Build(w.train, 3);
  auto r = SubwordTokenizer::Deserialize(st.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->vocab_size(), st.vocab_size());
  EXPECT_EQ(r->Split("coronavirus"), st.Split("coronavirus"));
}

TEST(CapClassifierTest, DistinguishesInformativeCasing) {
  World& w = SharedWorld();
  CapClassifier cap;
  cap.Train(w.train);
  TweetTokenizer tok;
  const float informative = cap.Informative(tok.Tokenize("Andy spoke to the press"));
  const float allcaps = cap.Informative(tok.Tokenize("EVERYTHING IS IN CAPS HERE"));
  EXPECT_GT(informative, allcaps);
}

}  // namespace
}  // namespace emd
