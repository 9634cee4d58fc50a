// Pipeline tests for the Globalizer using the scripted MockLocalSystem:
// mention recovery, partial-extraction correction, false-positive removal by
// the classifier, ablation-mode ordering, batching/incremental equivalence.

#include <gtest/gtest.h>

#include "core/classifier_training.h"
#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "eval/metrics.h"
#include "mock_local_system.h"
#include "text/tweet_tokenizer.h"

namespace emd {
namespace {

AnnotatedTweet MakeTweet(long id, const std::string& text,
                         std::vector<TokenSpan> gold_spans = {}) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  for (const auto& s : gold_spans) t.gold.push_back({s, static_cast<int>(s.begin)});
  return t;
}

Dataset CovidStream() {
  // The Fig. 1 scenario: "Coronavirus" detected only when capitalized; the
  // stream repeats it in all case variants.
  Dataset d;
  d.name = "covid";
  d.streaming = true;
  d.tweets = {
      MakeTweet(1, "the Coronavirus keeps spreading", {{1, 2}}),
      MakeTweet(2, "worried about coronavirus cases", {{2, 3}}),
      MakeTweet(3, "CORONAVIRUS cases rising again", {{0, 1}}),
      MakeTweet(4, "the Coronavirus response was slow", {{1, 2}}),
  };
  return d;
}

TEST(GlobalizerTest, LocalOnlyReportsRawDetections) {
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kLocalOnly;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(CovidStream()).value();
  // Capitalized in tweets 1, 4 only ("CORONAVIRUS" counts: first char upper).
  EXPECT_EQ(out.mentions[0].size(), 1u);
  EXPECT_EQ(out.mentions[1].size(), 0u);
  EXPECT_EQ(out.mentions[2].size(), 1u);
  EXPECT_EQ(out.mentions[3].size(), 1u);
}

TEST(GlobalizerTest, MentionExtractionRecoversMissedLowercase) {
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(CovidStream()).value();
  // The lowercase mention in tweet 2 is recovered from the CTrie.
  EXPECT_EQ(out.mentions[1].size(), 1u);
  EXPECT_EQ(out.mentions[1][0], (TokenSpan{2, 3}));
  PrfScores s = EvaluateMentions(CovidStream(), out.mentions);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

TEST(GlobalizerTest, PartialExtractionIsCorrected) {
  // Tweet A detects the full "Andy Beshear"; tweet B detects only "Andy".
  // The extractor upgrades B's partial detection to the full candidate.
  Dataset d;
  d.tweets = {
      MakeTweet(1, "governor Andy Beshear spoke", {{1, 3}}),
      MakeTweet(2, "Andy Beshear closed schools", {{0, 2}}),
  };
  MockLocalSystem mock({
      {.phrase = {"andy", "beshear"}, .require_capitalized = false},
      {.phrase = {"andy", "beshear"}, .partial = true},
  });
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(d).value();
  ASSERT_EQ(out.mentions[1].size(), 1u);
  EXPECT_EQ(out.mentions[1][0], (TokenSpan{0, 2})) << "partial span extended";
}

// Trains a tiny classifier that separates "appears capitalized somewhere"
// from "always lowercase" syntactic distributions.
EntityClassifier TrainToyClassifier() {
  EntityClassifierOptions copt;
  copt.input_dim = 7;
  EntityClassifier clf(copt);
  std::vector<ClassifierExample> examples;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    // Entities: mostly proper-capitalized mass; the remainder may be
    // start-of-sentence or lowercase mentions.
    Mat e(1, 6);
    const float cap = rng.NextFloat(0.55f, 1.f);
    e(0, 0) = cap;
    if (rng.NextBernoulli(0.5)) {
      e(0, 1) = 1.f - cap;
    } else {
      e(0, 4) = 1.f - cap;
    }
    examples.push_back({EntityClassifier::MakeFeatures(e, 1), true});
    // Junk: mostly lowercase mass; the remainder is emphasis or
    // sentence-start capitalization.
    Mat j(1, 6);
    const float low = rng.NextFloat(0.6f, 1.f);
    j(0, 4) = low;
    j(0, rng.NextBernoulli(0.5) ? 0 : 1) = 1.f - low;
    examples.push_back({EntityClassifier::MakeFeatures(j, 1), false});
  }
  EntityClassifierTrainOptions topt;
  topt.max_epochs = 200;
  clf.Train(examples, topt);
  return clf;
}

TEST(GlobalizerTest, FullModeRemovesConsistentlyLowercaseFalsePositives) {
  // "breaking" is detected by the mock as an FP whenever capitalized; it also
  // occurs lowercase throughout the stream, so its global syntactic
  // distribution is junk-like. "Beshear" is a real entity, capitalized.
  Dataset d;
  d.tweets = {
      MakeTweet(1, "Breaking story about Beshear today", {{3, 4}}),
      MakeTweet(2, "More breaking updates arriving now"),
      MakeTweet(3, "Still breaking coverage from Beshear", {{4, 5}}),
      MakeTweet(4, "Again breaking reports tonight"),
      MakeTweet(5, "Beshear responds to Capitol questions", {{0, 1}}),
  };
  MockLocalSystem mock({
      {.phrase = {"breaking"}, .require_capitalized = true},
      {.phrase = {"beshear"}, .require_capitalized = true},
  });
  EntityClassifier clf = TrainToyClassifier();
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  Globalizer g(&mock, nullptr, &clf, opt);
  GlobalizerOutput out = g.Run(d).value();
  PrfScores s = EvaluateMentions(d, out.mentions);
  EXPECT_DOUBLE_EQ(s.precision, 1.0) << "the capitalized 'Breaking' FP is removed";
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_GE(out.num_non_entity, 1);
}

TEST(GlobalizerTest, AblationOrderingOnInconsistentStream) {
  // local-only <= +mention-extraction on recall (Fig. 6 ordering).
  Dataset d = CovidStream();
  auto run = [&](GlobalizerOptions::Mode mode) {
    MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
    GlobalizerOptions opt;
    opt.mode = mode;
    Globalizer g(&mock, nullptr, nullptr, opt);
    return EvaluateMentions(d, g.Run(d).value().mentions);
  };
  PrfScores local = run(GlobalizerOptions::Mode::kLocalOnly);
  PrfScores extraction = run(GlobalizerOptions::Mode::kMentionExtraction);
  EXPECT_GT(extraction.recall, local.recall);
  EXPECT_GE(extraction.f1, local.f1);
}

TEST(GlobalizerTest, BatchedRunEqualsSingleBatchOnOutputsForLateCandidates) {
  // Candidates discovered in batch 2 do not retroactively re-scan batch 1
  // (incremental semantics), while a single batch covers everything.
  Dataset d;
  d.tweets = {
      MakeTweet(1, "talk about coronavirus spreading", {{2, 3}}),   // lowercase only
      MakeTweet(2, "the Coronavirus response intensifies", {{1, 2}}),
  };
  auto run = [&](size_t batch_size) {
    MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    opt.batch_size = batch_size;
    Globalizer g(&mock, nullptr, nullptr, opt);
    return g.Run(d).value();
  };
  GlobalizerOutput one_batch = run(10);
  GlobalizerOutput two_batches = run(1);
  // Single batch recovers the earlier lowercase mention; per-tweet batches
  // cannot (the candidate was unknown when tweet 1's batch was scanned).
  EXPECT_EQ(one_batch.mentions[0].size(), 1u);
  EXPECT_EQ(two_batches.mentions[0].size(), 0u);
  EXPECT_EQ(two_batches.mentions[1].size(), 1u);
}

TEST(GlobalizerTest, DeepSystemRequiresPhraseEmbedder) {
  MockLocalSystem deep_mock({}, /*dim=*/8);
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  EXPECT_DEATH(Globalizer(&deep_mock, nullptr, nullptr, opt), "Phrase Embedder");
}

TEST(GlobalizerTest, DeepEmbeddingsPooledThroughPhraseEmbedder) {
  MockLocalSystem deep_mock({{.phrase = {"beshear"}, .require_capitalized = false}},
                            /*dim=*/8);
  PhraseEmbedder pe(8, 4);
  Dataset d;
  d.tweets = {
      MakeTweet(1, "Beshear spoke again", {{0, 1}}),
      MakeTweet(2, "meeting with Beshear now", {{2, 3}}),
  };
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&deep_mock, &pe, nullptr, opt);
  g.Run(d).value();
  const ShardedGlobalState& state = g.global_state();
  ASSERT_TRUE(state.Contains(0));
  const CandidateRecord& rec = state.at(0);
  EXPECT_EQ(rec.embedding_count, 2);
  EXPECT_EQ(rec.GlobalEmbedding().cols(), 4);
}

TEST(GlobalizerTest, TimingFieldsPopulated) {
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(CovidStream()).value();
  EXPECT_GE(out.local_seconds, 0.0);
  EXPECT_GE(out.global_seconds, 0.0);
  EXPECT_EQ(mock.calls(), 4);
}

TEST(GlobalizerTest, MinEvidenceShieldsSingletonsFromBeta) {
  // A singleton true entity whose lone mention looks junk-like must not be
  // erased by a confident-looking non-entity verdict.
  Dataset d;
  d.tweets = {MakeTweet(1, "Tonight we meet kovely downtown", {{3, 4}})};
  MockLocalSystem mock({{.phrase = {"kovely"}}});
  EntityClassifier clf = TrainToyClassifier();  // lowercase -> non-entity
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.min_evidence_mentions = 2;
  opt.low_evidence_beta = 0.f;  // shield unconditionally for this test
  Globalizer g(&mock, nullptr, &clf, opt);
  GlobalizerOutput out = g.Run(d).value();
  ASSERT_EQ(out.mentions[0].size(), 1u) << "singleton kept via ambiguous fallback";

  // With the evidence floor disabled the verdict applies and the mention dies.
  MockLocalSystem mock2({{.phrase = {"kovely"}}});
  opt.min_evidence_mentions = 0;
  Globalizer g2(&mock2, nullptr, &clf, opt);
  GlobalizerOutput out2 = g2.Run(d).value();
  EXPECT_TRUE(out2.mentions[0].empty());
}

TEST(ClassifierTrainingTest, BuildsLabelledExamplesWithPrefixPools) {
  Dataset d;
  d.tweets = {
      MakeTweet(1, "Beshear spoke today", {{0, 1}}),
      MakeTweet(2, "with Beshear again", {{1, 2}}),
      MakeTweet(3, "Beshear responds now", {{0, 1}}),
  };
  MockLocalSystem mock({{.phrase = {"beshear"}}});
  auto examples = BuildClassifierExamples(d, &mock, nullptr, 100);
  // 3 mentions -> prefix pools at 1, 2, and full(3): 3 examples, all positive.
  ASSERT_EQ(examples.size(), 3u);
  for (const auto& ex : examples) {
    EXPECT_TRUE(ex.is_entity);
    EXPECT_EQ(ex.features.cols(), 7);
  }
}

}  // namespace
}  // namespace emd
