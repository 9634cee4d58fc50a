// Additional coverage: optimizer details, loss gradients in probability
// space, vocabulary ordering ties, CoNLL multi-sentence ids, topic routing
// stats, CTrie scaling, and recall monotonicity of mention extraction.

#include <gtest/gtest.h>

#include <set>

#include "core/globalizer.h"
#include "eval/metrics.h"
#include "mock_local_system.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "stream/conll_io.h"
#include "stream/datasets.h"
#include "stream/topic_classifier.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "text/vocabulary.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

TEST(OptimizerDetailTest, WeightDecayShrinksUnusedWeights) {
  Mat w(1, 1), g(1, 1);
  w(0, 0) = 1.f;
  ParamSet params;
  params.Register("w", &w, &g);
  SgdOptimizer sgd(0.1f, /*momentum=*/0.f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 50; ++i) {
    params.ZeroGrads();  // no task gradient: pure decay
    sgd.Step(&params);
  }
  EXPECT_LT(w(0, 0), 0.7f);
  EXPECT_GT(w(0, 0), 0.f);
}

TEST(OptimizerDetailTest, MomentumAcceleratesDescent) {
  auto run = [](float momentum) {
    Mat w(1, 1), g(1, 1);
    w(0, 0) = 10.f;
    ParamSet params;
    params.Register("w", &w, &g);
    SgdOptimizer sgd(0.01f, momentum);
    for (int i = 0; i < 40; ++i) {
      g(0, 0) = 2.f * w(0, 0);
      sgd.Step(&params);
      params.ZeroGrads();
    }
    return std::fabs(w(0, 0));
  };
  EXPECT_LT(run(0.9f), run(0.f));
}

TEST(LossDetailTest, BceProbSpaceGradient) {
  Mat prob(1, 2, {0.7f, 0.2f});
  Mat target(1, 2, {1.f, 0.f});
  Mat dprob;
  const double base = BceLoss(prob, target, &dprob);
  EXPECT_GT(base, 0);
  constexpr double kEps = 1e-4;
  for (int i = 0; i < 2; ++i) {
    Mat scratch;
    const float orig = prob.data()[i];
    prob.data()[i] = orig + static_cast<float>(kEps);
    const double up = BceLoss(prob, target, &scratch);
    prob.data()[i] = orig - static_cast<float>(kEps);
    const double down = BceLoss(prob, target, &scratch);
    prob.data()[i] = orig;
    EXPECT_NEAR(dprob.data()[i], (up - down) / (2 * kEps), 1e-2);
  }
}

TEST(VocabularyDetailTest, CountTiesBreakLexicographically) {
  std::unordered_map<std::string, int> counts = {{"zeta", 3}, {"alpha", 3}};
  Vocabulary v = Vocabulary::FromCounts(counts, 1);
  EXPECT_LT(v.Id("alpha"), v.Id("zeta"));
}

TEST(ConllDetailTest, ExplicitIdsSurviveRoundTrip) {
  const std::string text =
      "# id = 42\nAndy\tB\nspoke\tO\n\n# id = 99\nhello\tO\n\n";
  auto parsed = DatasetFromConll(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->tweets[0].tweet_id, 42);
  EXPECT_EQ(parsed->tweets[1].tweet_id, 99);
  // And back out.
  auto again = DatasetFromConll(DatasetToConll(*parsed));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->tweets[1].tweet_id, 99);
}

TEST(CTrieScaleTest, ThousandsOfCandidates) {
  SymbolTable syms;
  CTrie trie(&syms);
  Rng rng(5);
  std::vector<std::pair<std::vector<std::string>, int>> all;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::string> phrase;
    const int len = rng.NextInt(1, 3);
    for (int k = 0; k < len; ++k) {
      phrase.push_back("w" + std::to_string(rng.NextU64(400)));
    }
    all.emplace_back(phrase, trie.Insert(phrase));
  }
  for (const auto& [phrase, id] : all) EXPECT_EQ(trie.Find(phrase), id);
  EXPECT_LE(trie.num_candidates(), 5000);
  EXPECT_GE(trie.max_candidate_length(), 1);
}

// Mention extraction can only add or extend detections relative to what local
// EMD found — in extraction mode, every gold span the local system detected
// somewhere remains covered everywhere it occurs.
TEST(RecallMonotonicityTest, ExtractionModeNeverLosesCoveredSurfaces) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = 12;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  DatasetSuiteOptions sopt;
  sopt.scale = 0.06;
  Dataset stream = BuildD1(catalog, sopt);

  std::vector<MockLocalSystem::Rule> rules;
  for (int id : catalog.TopicEntityIds(Topic::kPolitics)) {
    const Entity& e = catalog.entity(id);
    std::vector<std::string> phrase;
    for (const auto& t : e.name_tokens) phrase.push_back(ToLowerAscii(t));
    rules.push_back({.phrase = phrase, .require_capitalized = true});
    if (rules.size() >= 50) break;
  }
  auto run = [&](GlobalizerOptions::Mode mode) {
    MockLocalSystem mock(rules);
    GlobalizerOptions opt;
    opt.mode = mode;
    Globalizer g(&mock, nullptr, nullptr, opt);
    return g.Run(stream).value();
  };
  PrfScores local =
      EvaluateMentions(stream, run(GlobalizerOptions::Mode::kLocalOnly).mentions);
  PrfScores extraction = EvaluateMentions(
      stream, run(GlobalizerOptions::Mode::kMentionExtraction).mentions);
  EXPECT_GE(extraction.recall, local.recall);
}

TEST(TopicRoutingTest, RoutedStreamsRetainGold) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = 13;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  Dataset train = BuildTrainingCorpus(catalog, 400, 14);
  TopicClassifier clf;
  clf.Train(train);
  DatasetSuiteOptions sopt;
  sopt.scale = 0.03;
  Dataset mixed = BuildD4(catalog, sopt);
  size_t gold_before = 0;
  for (const auto& t : mixed.tweets) gold_before += t.gold.size();
  size_t gold_after = 0;
  for (const auto& s : clf.Route(mixed)) {
    for (const auto& t : s.tweets) gold_after += t.gold.size();
  }
  EXPECT_EQ(gold_before, gold_after);
}

TEST(MetricsDetailTest, DuplicatePredictionsCountOnce) {
  Dataset d;
  AnnotatedTweet t;
  t.tokens = TweetTokenizer().Tokenize("Andy spoke");
  t.gold = {{{0, 1}, 1}};
  d.tweets.push_back(t);
  // The same span predicted twice must not double-count as tp.
  PrfScores s = EvaluateMentions(d, {{{0, 1}, {0, 1}}});
  EXPECT_EQ(s.tp, 1);
  EXPECT_EQ(s.fp, 0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
}

}  // namespace
}  // namespace emd
