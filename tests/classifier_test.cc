// Entity Classifier and Phrase Embedder unit tests.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/entity_classifier.h"
#include "core/phrase_embedder.h"
#include "mock_local_system.h"
#include "nn/kernels/kernels.h"
#include "stream/sts_generator.h"
#include "text/tweet_tokenizer.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace emd {
namespace {

std::vector<ClassifierExample> SeparableExamples(int n, uint64_t seed) {
  std::vector<ClassifierExample> out;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Mat pos(1, 6);
    pos(0, 0) = rng.NextFloat(0.6f, 1.f);
    pos(0, 4) = 1.f - pos(0, 0);
    out.push_back({EntityClassifier::MakeFeatures(pos, rng.NextInt(1, 3)), true});
    Mat neg(1, 6);
    neg(0, 4) = rng.NextFloat(0.6f, 1.f);
    neg(0, 1) = 1.f - neg(0, 4);
    out.push_back({EntityClassifier::MakeFeatures(neg, 1), false});
  }
  return out;
}

TEST(EntityClassifierTest, MakeFeaturesAppendsLength) {
  Mat emb(1, 6);
  emb(0, 2) = 0.5f;
  Mat f = EntityClassifier::MakeFeatures(emb, 2);
  EXPECT_EQ(f.cols(), 7);
  EXPECT_FLOAT_EQ(f(0, 2), 0.5f);
  EXPECT_FLOAT_EQ(f(0, 6), 0.5f);  // 2 tokens / 4
}

TEST(EntityClassifierTest, LearnsSeparableData) {
  EntityClassifier clf({.input_dim = 7});
  auto report = clf.Train(SeparableExamples(400, 1), {.max_epochs = 300});
  EXPECT_GT(report.best_validation_f1, 0.95);
  EXPECT_GT(report.epochs_run, 0);
  EXPECT_EQ(report.num_train + report.num_validation, 800);
}

TEST(EntityClassifierTest, ThresholdsMapToLabels) {
  EntityClassifier clf({.input_dim = 7});
  clf.Train(SeparableExamples(400, 2), {.max_epochs = 300});
  Mat pos(1, 6);
  pos(0, 0) = 0.95f;
  pos(0, 4) = 0.05f;
  EXPECT_EQ(clf.Classify(EntityClassifier::MakeFeatures(pos, 2)),
            CandidateLabel::kEntity);
  Mat neg(1, 6);
  neg(0, 4) = 0.95f;
  neg(0, 1) = 0.05f;
  EXPECT_EQ(clf.Classify(EntityClassifier::MakeFeatures(neg, 1)),
            CandidateLabel::kNonEntity);
}

TEST(EntityClassifierTest, SaveLoadPreservesPredictions) {
  EntityClassifier clf({.input_dim = 7});
  auto examples = SeparableExamples(200, 3);
  clf.Train(examples, {.max_epochs = 100});
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_clf_test.bin").string();
  ASSERT_TRUE(clf.Save(path).ok());
  EntityClassifier loaded({.input_dim = 7});
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(clf.Probability(examples[i].features),
                    loaded.Probability(examples[i].features));
  }
  std::filesystem::remove(path);
}

TEST(EntityClassifierTest, LoadRejectsWrongShape) {
  EntityClassifier clf({.input_dim = 7});
  clf.Train(SeparableExamples(50, 4), {.max_epochs = 10});
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_clf_test2.bin").string();
  ASSERT_TRUE(clf.Save(path).ok());
  EntityClassifier other({.input_dim = 101});
  EXPECT_FALSE(other.Load(path).ok());
  std::filesystem::remove(path);
}

TEST(EntityClassifierTest, TryProbabilitiesScoresEveryRowOrRejectsTheWidth) {
  EntityClassifier clf({.input_dim = 7});
  const std::vector<ClassifierExample> examples = SeparableExamples(50, 5);
  clf.Train(examples, {.max_epochs = 10});
  Mat rows(4, 7);
  for (int i = 0; i < rows.rows(); ++i) {
    rows.SetRow(i, examples[i].features.row(0));
  }
  ForwardArena arena;
  std::vector<float> probs, one;
  ASSERT_TRUE(clf.TryProbabilities(rows, &arena, &probs).ok());
  ASSERT_EQ(probs.size(), 4u);
  for (int i = 0; i < rows.rows(); ++i) {
    EXPECT_GE(probs[i], 0.f);
    EXPECT_LE(probs[i], 1.f);
    ASSERT_TRUE(clf.TryProbabilities(examples[i].features, &arena, &one).ok());
    EXPECT_EQ(one, std::vector<float>{probs[i]}) << "row " << i;
  }

  // A width other than input_dim is rejected before any forward runs, and
  // leaves the output untouched.
  const std::vector<float> kept = probs;
  for (const int width : {6, 8}) {
    Mat bad(4, width);
    EXPECT_TRUE(clf.TryProbabilities(bad, &arena, &probs).IsInvalidArgument())
        << width;
    EXPECT_EQ(probs, kept);
  }
}

TEST(EntityClassifierTest, TryProbabilitiesEvaluatesTheFailpointOncePerCall) {
  EntityClassifier clf({.input_dim = 7});
  Rng rng(7);
  Mat rows(9, 7);
  rows.InitGaussian(&rng, 1.f);
  ForwardArena arena;
  std::vector<float> probs;
  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Unavailable("wedged"), /*skip=*/0,
                         /*max_fires=*/1);
  EXPECT_TRUE(clf.TryProbabilities(rows, &arena, &probs).IsUnavailable());
  EXPECT_TRUE(probs.empty());
  ASSERT_TRUE(clf.TryProbabilities(rows, &arena, &probs).ok());
  EXPECT_EQ(probs.size(), 9u);
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 2);
  failpoint::DisableAll();
}

// ------------------------------------------------------------ PhraseEmbedder

TEST(PhraseEmbedderTest, EmbedSpanEqualsManualPool) {
  PhraseEmbedder pe(4, 3, 7);
  Rng rng(8);
  Mat tokens(5, 4);
  tokens.InitGaussian(&rng, 1.f);
  Mat span_emb = pe.Embed(tokens, {1, 4});
  // Manual: mean rows 1..3 through the same affine map via EmbedAll on the
  // sliced matrix.
  Mat sliced(3, 4);
  for (int r = 0; r < 3; ++r) sliced.SetRow(r, tokens.row(r + 1));
  Mat expected = pe.EmbedAll(sliced);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(span_emb(0, j), expected(0, j), 1e-5);
}

TEST(PhraseEmbedderTest, TryEmbedSpansRejectsBadInputAndInjectedFaults) {
  PhraseEmbedder pe(4, 3, 7);
  Rng rng(12);
  Mat tokens(5, 4);
  tokens.InitGaussian(&rng, 1.f);
  ForwardArena arena;
  Mat out;
  const std::vector<TokenSpan> good = {{0, 2}, {3, 5}};
  ASSERT_TRUE(pe.TryEmbedSpans(tokens, good, &arena, &out).ok());
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 3);

  // One bad span fails the whole call.
  for (const TokenSpan bad : {TokenSpan{2, 2}, TokenSpan{3, 6}}) {
    const std::vector<TokenSpan> spans = {{0, 2}, bad};
    EXPECT_TRUE(pe.TryEmbedSpans(tokens, spans, &arena, &out).IsInvalidArgument())
        << bad.begin << ".." << bad.end;
  }
  Mat narrow(5, 3);
  EXPECT_TRUE(pe.TryEmbedSpans(narrow, good, &arena, &out).IsInvalidArgument());

  // The failpoint is evaluated once per call, however many spans it has.
  failpoint::EnableAfter("core.phrase_embedder.embed",
                         Status::Unavailable("wedged"), /*skip=*/0,
                         /*max_fires=*/1);
  EXPECT_TRUE(pe.TryEmbedSpans(tokens, good, &arena, &out).IsUnavailable());
  EXPECT_TRUE(pe.TryEmbedSpans(tokens, good, &arena, &out).ok());
  EXPECT_EQ(failpoint::HitCount("core.phrase_embedder.embed"), 2);
  failpoint::DisableAll();
}

TEST(PhraseEmbedderTest, TrainingImprovesValidationLoss) {
  // Deep mock: embeddings are deterministic per word, so similar sentences
  // pool to similar vectors — the embedder should learn a projection whose
  // cosine tracks the synthetic scores better than at initialization.
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = 77;
  EntityCatalog catalog = EntityCatalog::Build(copt);
  StsGeneratorOptions sopt;
  sopt.num_train_pairs = 300;
  sopt.num_val_pairs = 80;
  StsData sts = GenerateStsData(catalog, sopt);

  MockLocalSystem deep_mock({}, /*dim=*/16);
  PhraseEmbedder pe(16, 8, 9);
  const double before = pe.Evaluate(&deep_mock, sts.validation);
  PhraseEmbedderTrainOptions topt;
  topt.max_epochs = 40;
  topt.early_stop_patience = 10;
  auto report = pe.Train(&deep_mock, sts, topt);
  EXPECT_LT(report.best_validation_loss, before);
  EXPECT_GT(report.epochs_run, 0);
  const double after = pe.Evaluate(&deep_mock, sts.validation);
  EXPECT_NEAR(after, report.best_validation_loss, 5e-2);
}

TEST(PhraseEmbedderTest, SaveLoadRoundTrip) {
  PhraseEmbedder pe(6, 4, 10);
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_pe_test.bin").string();
  ASSERT_TRUE(pe.Save(path).ok());
  PhraseEmbedder loaded(6, 4, 999);  // different init, overwritten by Load
  ASSERT_TRUE(loaded.Load(path).ok());
  // Load quantizes when the int8 backend is on; run `pe` on the same backend.
  if (kernels::Int8Enabled()) pe.PrepareQuantizedInference();
  EXPECT_EQ(pe.quantized(), loaded.quantized());
  Rng rng(11);
  Mat tokens(3, 6);
  tokens.InitGaussian(&rng, 1.f);
  Mat a = pe.Embed(tokens, {0, 2});
  Mat b = loaded.Embed(tokens, {0, 2});
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(a(0, j), b(0, j));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace emd
