// Parameterized property sweeps over the pipeline invariants:
//  * tokenizer offsets always reconstruct the source,
//  * incremental pooling == batch mean regardless of arrival order/batching,
//  * candidate re-scan outputs are sorted, non-overlapping, and all true
//    occurrences of registered candidates are covered,
//  * syntactic categories partition all mentions,
//  * Globalizer's full-mode output is a subset of extraction-mode output.

#include <gtest/gtest.h>

#include <set>

#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/globalizer.h"
#include "core/syntactic_embedder.h"
#include "mock_local_system.h"
#include "stream/datasets.h"
#include "stream/tweet_generator.h"
#include "text/tweet_tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededTest, TokenizerOffsetsReconstructArbitraryAscii) {
  Rng rng(GetParam());
  TweetTokenizer tokenizer;
  const std::string charset =
      "abcdefghijXYZ0129 @#:./!?'-()$%&*~  \t";
  for (int iter = 0; iter < 200; ++iter) {
    std::string text;
    const int len = rng.NextInt(0, 60);
    for (int i = 0; i < len; ++i) text += charset[rng.NextU64(charset.size())];
    auto tokens = tokenizer.Tokenize(text);
    size_t prev_end = 0;
    for (const auto& t : tokens) {
      ASSERT_FALSE(t.text.empty());
      ASSERT_GE(t.begin, prev_end);
      ASSERT_LE(t.end, text.size());
      ASSERT_LT(t.begin, t.end);
      EXPECT_EQ(text.substr(t.begin, t.end - t.begin), t.text);
      prev_end = t.end;
    }
  }
}

TEST_P(SeededTest, PoolingIsOrderAndBatchInvariant) {
  Rng rng(GetParam());
  const int n = rng.NextInt(2, 30);
  std::vector<Mat> embeddings;
  for (int i = 0; i < n; ++i) {
    Mat e(1, 5);
    e.InitGaussian(&rng, 1.f);
    embeddings.push_back(std::move(e));
  }
  auto pooled = [&](const std::vector<size_t>& order) {
    CandidateBase base;
    base.GetOrCreate(0);
    for (size_t i : order) {
      base.AddMention(0, 0, {embeddings[i].data(), embeddings[i].size()});
    }
    return base.at(0).GlobalEmbedding();
  };
  std::vector<size_t> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  Mat forward = pooled(order);
  rng.Shuffle(&order);
  Mat shuffled = pooled(order);
  for (int j = 0; j < 5; ++j) EXPECT_NEAR(forward(0, j), shuffled(0, j), 1e-4);
}

TEST_P(SeededTest, ExtractorOutputsSortedNonOverlappingAndComplete) {
  Rng rng(GetParam());
  EntityCatalogOptions copt;
  copt.entities_per_topic = 80;
  copt.seed = GetParam() * 3 + 1;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  TweetGeneratorOptions gopt;
  gopt.seed = GetParam() * 5 + 2;
  TweetGenerator gen(&catalog, Topic::kSports, gopt);

  ShardedGlobalState state;
  std::vector<AnnotatedTweet> tweets;
  for (int i = 0; i < 80; ++i) {
    tweets.push_back(gen.Next());
    for (const auto& g : tweets.back().gold) {
      state.Insert(tweets.back().tokens, g.span);
    }
  }
  for (const auto& tweet : tweets) {
    const auto mentions = state.Extract(tweet.tokens);
    size_t prev_end = 0;
    for (const auto& m : mentions) {
      ASSERT_GE(m.span.begin, prev_end) << "overlap or disorder";
      ASSERT_LT(m.span.begin, m.span.end);
      ASSERT_LE(m.span.end, tweet.tokens.size());
      ASSERT_GE(m.candidate_id, 0);
      prev_end = m.span.end;
    }
    // Completeness: every gold span that was registered as a candidate is
    // covered by some extracted mention (possibly a longer superstring).
    for (const auto& g : tweet.gold) {
      bool covered = false;
      for (const auto& m : mentions) {
        if (m.span.begin <= g.span.begin && m.span.end >= g.span.end) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "registered candidate occurrence missed: "
                           << SpanText(tweet.tokens, g.span);
    }
  }
}

TEST_P(SeededTest, SyntacticCategoriesPartitionMentions) {
  Rng rng(GetParam());
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = GetParam() * 7 + 3;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  TweetGeneratorOptions gopt;
  gopt.seed = GetParam() * 11 + 4;
  TweetGenerator gen(&catalog, Topic::kHealth, gopt);
  int histogram[kNumSyntacticCategories] = {};
  for (int i = 0; i < 300; ++i) {
    AnnotatedTweet t = gen.Next();
    for (const auto& g : t.gold) {
      Mat e(1, kNumSyntacticCategories);
      SyntacticEmbedding(ClassifyMentionSyntax(t.tokens, g.span),
                         {e.data(), e.size()});
      float sum = 0;
      int hot = -1;
      for (int j = 0; j < e.cols(); ++j) {
        sum += e(0, j);
        if (e(0, j) == 1.f) hot = j;
      }
      ASSERT_FLOAT_EQ(sum, 1.f);
      ASSERT_GE(hot, 0);
      ++histogram[hot];
    }
  }
  // The generator's noise model must exercise several categories.
  int used = 0;
  for (int c : histogram) used += c > 0 ? 1 : 0;
  EXPECT_GE(used, 4);
}

TEST_P(SeededTest, FullModeOutputIsSubsetOfExtractionMode) {
  Rng rng(GetParam());
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = GetParam() * 13 + 5;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  DatasetSuiteOptions sopt;
  sopt.scale = 0.04;
  sopt.seed = GetParam();
  Dataset stream = BuildD1(catalog, sopt);

  // Mock local system: detect any capitalized unigram from the catalog plus
  // some junk words.
  std::vector<MockLocalSystem::Rule> rules;
  for (int id : catalog.TopicEntityIds(Topic::kPolitics)) {
    const Entity& e = catalog.entity(id);
    if (e.name_tokens.size() == 1) {
      rules.push_back({.phrase = {ToLowerAscii(e.name_tokens[0])},
                       .require_capitalized = true});
    }
    if (rules.size() >= 40) break;
  }
  auto run = [&](GlobalizerOptions::Mode mode, const EntityClassifier* clf) {
    MockLocalSystem mock(rules);
    GlobalizerOptions opt;
    opt.mode = mode;
    Globalizer g(&mock, nullptr, clf, opt);
    return g.Run(stream).value();
  };
  // A blunt classifier: everything ambiguous except clearly lowercase junk.
  EntityClassifier clf({.input_dim = 7});
  std::vector<ClassifierExample> examples;
  for (int i = 0; i < 100; ++i) {
    Mat pos(1, 6);
    pos(0, 0) = 1;
    examples.push_back({EntityClassifier::MakeFeatures(pos, 1), true});
    Mat neg(1, 6);
    neg(0, 4) = 1;
    examples.push_back({EntityClassifier::MakeFeatures(neg, 1), false});
  }
  clf.Train(examples, {.max_epochs = 50});

  GlobalizerOutput extraction = run(GlobalizerOptions::Mode::kMentionExtraction,
                                    nullptr);
  GlobalizerOutput full = run(GlobalizerOptions::Mode::kFull, &clf);
  ASSERT_EQ(extraction.mentions.size(), full.mentions.size());
  for (size_t i = 0; i < full.mentions.size(); ++i) {
    std::set<TokenSpan> ext(extraction.mentions[i].begin(),
                            extraction.mentions[i].end());
    for (const auto& span : full.mentions[i]) {
      EXPECT_TRUE(ext.count(span))
          << "full mode produced a mention extraction mode did not";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace emd
