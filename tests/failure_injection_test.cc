// Failure-injection tests: corrupted model files, malformed inputs,
// defensive-check behaviour at API boundaries, failpoint-driven fault
// isolation in the Globalizer, and checkpoint crash-safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>

#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "emd/pos_tagger.h"
#include "emd/twitter_nlp.h"
#include "eval/metrics.h"
#include "mock_local_system.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "stream/batching.h"
#include "stream/conll_io.h"
#include "text/tweet_tokenizer.h"
#include "text/vocabulary.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/file_io.h"

namespace emd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Disarms every failpoint on scope exit so no test leaks armed points.
struct FailpointGuard {
  FailpointGuard() { failpoint::DisableAll(); }
  ~FailpointGuard() { failpoint::DisableAll(); }
};

TEST(FailureInjectionTest, LoadParamsRejectsTruncatedFile) {
  Mat w(4, 4), g(4, 4);
  ParamSet params;
  params.Register("w", &w, &g);
  const std::string path = TempPath("emd_trunc.bin");
  ASSERT_TRUE(SaveParams(params, path).ok());
  // Truncate the file in the middle of the payload.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(WriteStringToFile(path, content->substr(0, content->size() / 2)).ok());
  EXPECT_TRUE(LoadParams(&params, path).IsCorruption());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, LoadParamsRejectsGarbageMagic) {
  const std::string path = TempPath("emd_magic.bin");
  ASSERT_TRUE(WriteStringToFile(path, "this is not a model file at all").ok());
  Mat w(1, 1), g(1, 1);
  ParamSet params;
  params.Register("w", &w, &g);
  EXPECT_TRUE(LoadParams(&params, path).IsCorruption());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, LoadParamsMissingFileIsIoError) {
  Mat w(1, 1), g(1, 1);
  ParamSet params;
  params.Register("w", &w, &g);
  EXPECT_TRUE(LoadParams(&params, "/nonexistent/emd/model.bin").IsIoError());
}

TEST(FailureInjectionTest, PhraseEmbedderLoadWrongDims) {
  PhraseEmbedder small(4, 2);
  const std::string path = TempPath("emd_pe_dims.bin");
  ASSERT_TRUE(small.Save(path).ok());
  PhraseEmbedder big(8, 2);
  EXPECT_FALSE(big.Load(path).ok());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, PosTaggerLoadTruncated) {
  const std::string path = TempPath("emd_pos_trunc.model");
  ASSERT_TRUE(WriteStringToFile(path, "5\nw=only one feature line").ok());
  PosTagger tagger;
  EXPECT_FALSE(tagger.Load(path).ok());
  std::filesystem::remove(path);
}

// A PosTagger model: "<count>\n" then "<feature> <w_0> ... <w_12>\n" lines.
std::string PosWeightLine(const std::string& feature, const std::string& weight = "0.5") {
  std::string line = feature;
  for (int k = 0; k < kNumPosTags; ++k) line += " " + weight;
  return line + "\n";
}

Status LoadPosModel(const std::string& content, PosTagger* tagger) {
  const std::string path = TempPath("emd_pos_corrupt.model");
  EMD_CHECK(WriteStringToFile(path, content).ok());
  Status st = tagger->Load(path);
  std::filesystem::remove(path);
  return st;
}

TEST(FailureInjectionTest, PosTaggerLoadAcceptsWellFormedModel) {
  PosTagger tagger;
  const Status st = LoadPosModel(
      "3\n" + PosWeightLine("bias") + PosWeightLine("w=the") + PosWeightLine("prev_tag=^"),
      &tagger);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerLoadRejectsEmptyFile) {
  PosTagger tagger;
  EXPECT_TRUE(LoadPosModel("", &tagger).IsCorruption());
  EXPECT_FALSE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerLoadRejectsUnparsableHeader) {
  PosTagger tagger;
  EXPECT_TRUE(LoadPosModel("garbage\n" + PosWeightLine("bias"), &tagger).IsCorruption());
  EXPECT_TRUE(LoadPosModel("-1\n" + PosWeightLine("bias"), &tagger).IsCorruption());
  EXPECT_TRUE(LoadPosModel("1x\n" + PosWeightLine("bias"), &tagger).IsCorruption());
  EXPECT_FALSE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerLoadRejectsCountLargerThanFile) {
  // Sized by nothing before the check: a count near SIZE_MAX neither throws
  // from a reservation nor aborts.
  PosTagger tagger;
  EXPECT_TRUE(LoadPosModel("18446744073709551615\n" + PosWeightLine("bias"), &tagger)
                  .IsCorruption());
  EXPECT_TRUE(LoadPosModel("100\n" + PosWeightLine("bias"), &tagger).IsCorruption());
  EXPECT_FALSE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerLoadRejectsShortOrUnparsableWeightLine) {
  PosTagger tagger;
  std::string short_line = "bias";
  for (int k = 0; k + 1 < kNumPosTags; ++k) short_line += " 0.5";
  EXPECT_TRUE(LoadPosModel("2\n" + short_line + "\n" + PosWeightLine("w=the"), &tagger)
                  .IsCorruption());
  EXPECT_TRUE(LoadPosModel("2\n" + PosWeightLine("w=a") + PosWeightLine("w=b", "x"), &tagger)
                  .IsCorruption());
  EXPECT_TRUE(LoadPosModel("1\n" + PosWeightLine("bias", "0.5junk"), &tagger).IsCorruption());
  EXPECT_TRUE(LoadPosModel("1\n" + PosWeightLine("nofeature"), &tagger).IsCorruption());
  EXPECT_TRUE(LoadPosModel("2\n" + PosWeightLine("w=a") + PosWeightLine("w=a"), &tagger)
                  .IsCorruption())
      << "repeated feature";
  EXPECT_FALSE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerLoadRejectsTrailingData) {
  PosTagger tagger;
  EXPECT_TRUE(LoadPosModel("1\n" + PosWeightLine("bias") + "junk\n", &tagger).IsCorruption());
  EXPECT_TRUE(LoadPosModel("1\n" + PosWeightLine("bias") + PosWeightLine("w=a"), &tagger)
                  .IsCorruption());
  EXPECT_FALSE(tagger.trained());
}

TEST(FailureInjectionTest, PosTaggerFailedLoadKeepsTheLoadedModel) {
  PosTagger tagger;
  ASSERT_TRUE(LoadPosModel("1\n" + PosWeightLine("bias"), &tagger).ok());
  Token word;
  word.text = "anything";
  const std::vector<PosTag> before = tagger.Tag({word});
  EXPECT_TRUE(LoadPosModel("2\n" + PosWeightLine("w=a"), &tagger).IsCorruption());
  EXPECT_TRUE(tagger.trained());
  EXPECT_EQ(tagger.Tag({word}), before);
}

// A TwitterNLP feature line: "<feature> <id> <w_B> <w_I> <w_O>\n".
std::string TnlpFeature(const std::string& name, const std::string& id,
                        const std::string& weights = "0.25 -0.5 1") {
  return name + " " + id + " " + weights + "\n";
}

// A TwitterNLP model is the T-CAP weights line, "<count>\n", the feature
// lines, then the CRF lines, which the harness takes from an untrained
// system's Save.
class TwitterNlpModelHarness {
 public:
  TwitterNlpModelHarness() : system_(&tagger_, &gazetteer_) {
    const std::string saved = Saved();
    // Skip the cap-weights line and the "0" feature count.
    crf_lines_ = saved.substr(saved.find('\n', saved.find('\n') + 1) + 1);
  }

  std::string Model(const std::string& count, const std::string& features) const {
    return "0.1 0.2 0.3 0.4\n" + count + "\n" + features + crf_lines_;
  }

  Status Load(const std::string& content) {
    const std::string path = TempPath(FileName("load"));
    EMD_CHECK(WriteStringToFile(path, content).ok());
    Status st = system_.Load(path);
    std::filesystem::remove(path);
    return st;
  }

  std::string Saved() const {
    const std::string path = TempPath(FileName("save"));
    EMD_CHECK(system_.Save(path).ok());
    std::string bytes = ReadFileToString(path).value();
    std::filesystem::remove(path);
    return bytes;
  }

  bool trained() const { return system_.trained(); }
  const std::string& crf_lines() const { return crf_lines_; }

 private:
  // Per-test file names: ctest runs the tests of this file in parallel.
  static std::string FileName(const std::string& what) {
    return std::string("emd_tnlp_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + what +
           ".model";
  }

  PosTagger tagger_;
  Gazetteer gazetteer_;
  TwitterNlpSystem system_;
  std::string crf_lines_;
};

TEST(FailureInjectionTest, TwitterNlpLoadAcceptsWellFormedModelWithIdsInAnyOrder) {
  TwitterNlpModelHarness h;
  const Status st = h.Load(h.Model(
      "3", TnlpFeature("w=andy", "2") + TnlpFeature("bias", "0") + TnlpFeature("gz_b", "1")));
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(h.trained());
  // A saved model loads back to the same lines (Save writes the features in
  // id order, so only their order may differ from the file loaded).
  auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines = SplitKeepEmpty(text, '\n');
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::string saved = h.Saved();
  ASSERT_TRUE(h.Load(saved).ok());
  EXPECT_EQ(sorted_lines(h.Saved()), sorted_lines(saved));
  EXPECT_EQ(sorted_lines(saved),
            sorted_lines(h.Model("3", TnlpFeature("w=andy", "2") + TnlpFeature("bias", "0") +
                                          TnlpFeature("gz_b", "1"))));
}

TEST(FailureInjectionTest, TwitterNlpSaveLoadSaveIsByteIdentical) {
  TwitterNlpModelHarness h;
  // Enough features, listed in a scrambled id order, that hash-map iteration
  // order would differ between the loaded model and its reload.
  constexpr int kFeatures = 200;
  std::string features;
  for (int i = 0; i < kFeatures; ++i) {
    const int id = (i * 37) % kFeatures;
    features += TnlpFeature("w=f" + std::to_string(id), std::to_string(id),
                            std::to_string(id) + " -0.5 0.125");
  }
  ASSERT_TRUE(h.Load(h.Model(std::to_string(kFeatures), features)).ok());
  const std::string first = h.Saved();
  ASSERT_TRUE(h.Load(first).ok());
  const std::string second = h.Saved();
  EXPECT_TRUE(first == second) << "Save -> Load -> Save changed the bytes";
  // The feature lines come in id order.
  const std::vector<std::string> lines = SplitKeepEmpty(first, '\n');
  ASSERT_GT(lines.size(), size_t{2 + kFeatures});
  for (int id = 0; id < kFeatures; ++id) {
    EXPECT_EQ(lines[2 + id].rfind("w=f" + std::to_string(id) + " ", 0), 0u)
        << "line " << 2 + id << ": " << lines[2 + id];
  }
}

TEST(FailureInjectionTest, TwitterNlpLoadRejectsAnIdOutsideTheFeatureCount) {
  TwitterNlpModelHarness h;
  // The id indexes the weight table the count sizes: 2 is one past it.
  EXPECT_TRUE(
      h.Load(h.Model("2", TnlpFeature("bias", "0") + TnlpFeature("w=a", "2"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1", TnlpFeature("bias", "-1"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1", TnlpFeature("bias", "99999999999"))).IsCorruption());
  EXPECT_FALSE(h.trained());
}

TEST(FailureInjectionTest, TwitterNlpLoadRejectsARepeatedFeatureOrId) {
  TwitterNlpModelHarness h;
  EXPECT_TRUE(
      h.Load(h.Model("2", TnlpFeature("w=a", "0") + TnlpFeature("w=a", "1"))).IsCorruption())
      << "repeated feature";
  EXPECT_TRUE(
      h.Load(h.Model("2", TnlpFeature("w=a", "1") + TnlpFeature("w=b", "1"))).IsCorruption())
      << "repeated id";
  EXPECT_FALSE(h.trained());
}

TEST(FailureInjectionTest, TwitterNlpLoadRejectsACountLargerThanTheFileCanHold) {
  TwitterNlpModelHarness h;
  // Sized by nothing before the check: a count near SIZE_MAX neither throws
  // from an allocation nor aborts.
  EXPECT_TRUE(
      h.Load(h.Model("18446744073709551615", TnlpFeature("bias", "0"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1000", TnlpFeature("bias", "0"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("x", TnlpFeature("bias", "0"))).IsCorruption());
  EXPECT_FALSE(h.trained());
}

TEST(FailureInjectionTest, TwitterNlpLoadRejectsAShortLine) {
  TwitterNlpModelHarness h;
  EXPECT_TRUE(h.Load(h.Model("1", TnlpFeature("bias", "0", "0.25 -0.5"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1", TnlpFeature("bias", "0", "0.25 x 1"))).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1", "bias 0\n")).IsCorruption());
  EXPECT_TRUE(h.Load(h.Model("1", "bias\n")).IsCorruption());
  EXPECT_TRUE(h.Load("0.1 0.2 0.3\n1\n" + TnlpFeature("bias", "0") + h.crf_lines())
                  .IsCorruption())
      << "cap weights line one value short";
  std::string model = h.Model("1", TnlpFeature("bias", "0"));
  model.erase(model.rfind(' ', model.size() - 3) + 1);
  model += "\n";
  EXPECT_TRUE(h.Load(model).IsCorruption()) << "CRF line one value short";
  EXPECT_FALSE(h.trained());
}

TEST(FailureInjectionTest, TwitterNlpLoadRejectsTrailingData) {
  TwitterNlpModelHarness h;
  EXPECT_TRUE(h.Load(h.Model("1", TnlpFeature("bias", "0")) + "junk\n").IsCorruption());
  EXPECT_TRUE(
      h.Load(h.Model("1", TnlpFeature("bias", "0", "0.25 -0.5 1 2"))).IsCorruption());
  EXPECT_FALSE(h.trained());
}

TEST(FailureInjectionTest, TwitterNlpFailedLoadKeepsTheLoadedModel) {
  TwitterNlpModelHarness h;
  ASSERT_TRUE(h.Load(h.Model("2", TnlpFeature("bias", "0") + TnlpFeature("w=a", "1"))).ok());
  const std::string before = h.Saved();
  EXPECT_TRUE(
      h.Load(h.Model("2", TnlpFeature("w=b", "0", "9 9 9") + TnlpFeature("w=c", "5")))
          .IsCorruption());
  EXPECT_TRUE(h.trained());
  EXPECT_EQ(h.Saved(), before);  // same map, same iteration order
}

TEST(FailureInjectionTest, VocabularyCorruptHeaders) {
  EXPECT_TRUE(Vocabulary::Deserialize("vocab notanumber\n").status().IsCorruption() ||
              !Vocabulary::Deserialize("vocab notanumber\n").ok());
  EXPECT_FALSE(Vocabulary::Deserialize("vocab 99\n<pad>\n<unk>\n").ok())
      << "declared size larger than payload";
  EXPECT_FALSE(Vocabulary::Deserialize("vocab 3\nwrong\n<unk>\nx\n").ok())
      << "reserved tokens missing";
}

TEST(FailureInjectionTest, ConllParserReportsLineNumbers) {
  const std::string bad = "good\tO\nbadline\n\n";
  auto r = DatasetFromConll(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
}

TEST(FailureInjectionTest, ConllIgnoresCrLf) {
  auto r = DatasetFromConll("Andy\tB\r\nsays\tO\r\n\r\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->tweets[0].tokens[0].text, "Andy");
}

TEST(FailureInjectionDeathTest, MatShapeChecksAbort) {
  Mat a(2, 2), b(3, 3);
  EXPECT_DEATH(a.Add(b), "check failed");
  EXPECT_DEATH(MatMul(a, b), "check failed");
  EXPECT_DEATH(a.at(5, 0), "check failed");
}

TEST(FailureInjectionDeathTest, CandidateBaseUnknownIdAborts) {
  CandidateBase base;
  EXPECT_DEATH(base.at(3), "check failed");
}

TEST(FailureInjectionDeathTest, ResultValueOnErrorAborts) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_DEATH((void)r.value(), "Result::value");
}

TEST(FailureInjectionTest, ClassifierSaveToUnwritablePath) {
  EntityClassifier clf({.input_dim = 7});
  EXPECT_TRUE(clf.Save("/nonexistent/dir/model.bin").IsIoError());
}

// ---------------------------------------------------------------------------
// Failpoint registry.
// ---------------------------------------------------------------------------

TEST(FailpointTest, DisabledPointIsFree) {
  FailpointGuard guard;
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_TRUE(EMD_FAILPOINT("never.armed.point").ok());
  EXPECT_EQ(failpoint::HitCount("never.armed.point"), 0) << "fast path taken";
}

TEST(FailpointTest, EnableAfterSkipsAndCaps) {
  FailpointGuard guard;
  failpoint::EnableAfter("t.reg.op", Status::IoError("boom"), /*skip=*/2,
                         /*max_fires=*/1);
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_TRUE(EMD_FAILPOINT("t.reg.op").ok());   // hit 1: skipped
  EXPECT_TRUE(EMD_FAILPOINT("t.reg.op").ok());   // hit 2: skipped
  const Status fired = EMD_FAILPOINT("t.reg.op");  // hit 3: fires
  EXPECT_TRUE(fired.IsIoError());
  EXPECT_EQ(fired.message(), "boom");
  EXPECT_TRUE(EMD_FAILPOINT("t.reg.op").ok()) << "max_fires=1 exhausted";
  EXPECT_EQ(failpoint::HitCount("t.reg.op"), 4);
  EXPECT_EQ(failpoint::FireCount("t.reg.op"), 1);
}

TEST(FailpointTest, DisableStopsFiringAndDisableAllClears) {
  FailpointGuard guard;
  failpoint::EnableAfter("t.reg.stop", Status::Internal("x"));
  EXPECT_FALSE(EMD_FAILPOINT("t.reg.stop").ok());
  failpoint::Disable("t.reg.stop");
  EXPECT_TRUE(EMD_FAILPOINT("t.reg.stop").ok());
  EXPECT_EQ(failpoint::FireCount("t.reg.stop"), 1) << "counters survive Disable";
  failpoint::DisableAll();
  EXPECT_EQ(failpoint::FireCount("t.reg.stop"), 0);
  EXPECT_FALSE(failpoint::AnyArmed());
}

TEST(FailpointTest, ProbabilityModeIsSeededDeterministic) {
  FailpointGuard guard;
  auto run = [](uint64_t seed) {
    failpoint::EnableWithProbability("t.reg.prob", Status::IoError("p"), 0.5,
                                     seed);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += EMD_FAILPOINT("t.reg.prob").ok() ? '.' : 'X';
    }
    return pattern;
  };
  const std::string a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b) << "same seed, same firing pattern";
  EXPECT_NE(a, c);
  EXPECT_NE(a.find('X'), std::string::npos) << "p=0.5 fires sometimes";
  EXPECT_NE(a.find('.'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Error-isolated execution cycles.
// ---------------------------------------------------------------------------

AnnotatedTweet FiTweet(long id, const std::string& text,
                       std::vector<TokenSpan> gold_spans = {}) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  for (const auto& s : gold_spans) t.gold.push_back({s, static_cast<int>(s.begin)});
  return t;
}

Dataset FiStream() {
  Dataset d;
  d.name = "fi";
  d.tweets = {
      FiTweet(1, "the Coronavirus keeps spreading", {{1, 2}}),
      FiTweet(2, "worried about coronavirus cases", {{2, 3}}),
      FiTweet(3, "CORONAVIRUS cases rising again", {{0, 1}}),
      FiTweet(4, "the Coronavirus response was slow", {{1, 2}}),
  };
  return d;
}

TEST(FailureInjectionTest, LocalSystemFaultQuarantinesOneTweet) {
  FailpointGuard guard;
  // The second tweet's Local EMD dies; the stream must absorb it.
  failpoint::EnableAfter("emd.mock.process", Status::Internal("OOM in tagger"),
                         /*skip=*/1, /*max_fires=*/1);
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  GlobalizerOutput out = g.Run(FiStream()).value();

  EXPECT_EQ(out.num_quarantined, 1);
  ASSERT_EQ(out.mentions.size(), 4u) << "quarantined tweet keeps its slot";
  EXPECT_TRUE(out.mentions[1].empty()) << "no mentions from the dead tweet";
  // The other three tweets still run the full pipeline.
  EXPECT_EQ(out.mentions[0].size(), 1u);
  EXPECT_EQ(out.mentions[2].size(), 1u);
  EXPECT_EQ(out.mentions[3].size(), 1u);
}

TEST(FailureInjectionTest, QuarantineIsolationKeepsRestOfBatchIdentical) {
  FailpointGuard guard;
  auto run = [](bool inject) {
    if (inject) {
      failpoint::EnableAfter("emd.mock.process", Status::Internal("x"),
                             /*skip=*/2, /*max_fires=*/1);
    }
    MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    Globalizer g(&mock, nullptr, nullptr, opt);
    GlobalizerOutput out = g.Run(FiStream()).value();
    failpoint::DisableAll();
    return out;
  };
  GlobalizerOutput clean = run(false);
  GlobalizerOutput faulty = run(true);
  ASSERT_EQ(faulty.num_quarantined, 1);
  for (size_t i = 0; i < clean.mentions.size(); ++i) {
    if (i == 2) continue;  // the quarantined tweet
    EXPECT_EQ(clean.mentions[i], faulty.mentions[i]) << "tweet " << i;
  }
}

TEST(FailureInjectionTest, PhraseEmbedderFaultDegradesToMeanPool) {
  FailpointGuard guard;
  Dataset d;
  d.tweets = {
      FiTweet(1, "Beshear spoke again", {{0, 1}}),
      FiTweet(2, "meeting with Beshear now", {{2, 3}}),
      FiTweet(3, "Beshear responds to questions", {{0, 1}}),
  };
  auto run = [&](bool inject) {
    if (inject) {
      failpoint::EnableAfter("core.phrase_embedder.embed",
                             Status::Internal("embedder wedged"));
    }
    MockLocalSystem deep_mock(
        {{.phrase = {"beshear"}, .require_capitalized = false}}, /*dim=*/8);
    // in_dim == out_dim, so the raw mean-pool fallback is shape-compatible.
    PhraseEmbedder pe(8, 8);
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    Globalizer g(&deep_mock, &pe, nullptr, opt);
    GlobalizerOutput out = g.Run(d).value();
    failpoint::DisableAll();
    return out;
  };
  GlobalizerOutput clean = run(false);
  GlobalizerOutput degraded = run(true);

  // Every tweet's embedding call fails, so every mention degrades.
  size_t mentions = 0;
  for (const auto& m : clean.mentions) mentions += m.size();
  ASSERT_EQ(mentions, 3u);
  EXPECT_EQ(clean.num_degraded, 0);
  EXPECT_EQ(degraded.num_degraded, static_cast<int>(mentions));
  // The degraded cycle completes and detection effectiveness is unharmed:
  // mention output is identical (the fallback only changes embeddings).
  const double clean_f1 = EvaluateMentions(d, clean.mentions).f1;
  const double degraded_f1 = EvaluateMentions(d, degraded.mentions).f1;
  EXPECT_NEAR(degraded_f1, clean_f1, 1e-9);
  EXPECT_EQ(clean.mentions, degraded.mentions);
}

TEST(FailureInjectionTest, PhraseEmbedderRetryCoversOneTweetsCall) {
  // One embedding call per tweet with in-range deep mentions: a single
  // injected fault costs one retry of that call, whatever its mention count,
  // and nothing degrades.
  FailpointGuard guard;
  Dataset d;
  d.tweets = {
      FiTweet(1, "Beshear briefing on coronavirus"),
      FiTweet(2, "nothing to see here"),
      FiTweet(3, "coronavirus and Beshear and coronavirus"),
      FiTweet(4, "meeting with Beshear now"),
  };
  struct Run {
    GlobalizerOutput out;
    std::vector<std::vector<float>> sums;
    int hits = 0;
    int tweets_embedded = 0;
  };
  auto run = [&](bool inject) {
    if (inject) {
      failpoint::EnableAfter("core.phrase_embedder.embed",
                             Status::Unavailable("embedder blip"), /*skip=*/0,
                             /*max_fires=*/1);
    }
    MockLocalSystem deep_mock({{.phrase = {"beshear"}},
                               {.phrase = {"coronavirus"}}},
                              /*dim=*/8);
    PhraseEmbedder pe(8, 4);
    FakeClock clock;
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    opt.resilience.phrase_embedder.max_attempts = 2;
    opt.resilience.clock = &clock;
    Globalizer g(&deep_mock, &pe, nullptr, opt);
    Run r;
    r.out = g.Run(d).value();
    r.hits = failpoint::HitCount("core.phrase_embedder.embed");
    failpoint::DisableAll();
    const ShardedGlobalState& state = g.global_state();
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      const Mat& sum = state.at(gid).embedding_sum;
      r.sums.emplace_back(sum.data(), sum.data() + sum.size());
    }
    for (size_t i = 0; i < g.tweet_base().size(); ++i) {
      if (!g.tweet_base().mentions(i).empty()) ++r.tweets_embedded;
    }
    return r;
  };
  const Run clean = run(false);
  const Run faulty = run(true);

  ASSERT_EQ(clean.tweets_embedded, 3);
  EXPECT_EQ(clean.out.num_retries, 0);
  EXPECT_EQ(faulty.out.num_retries, 1);
  EXPECT_EQ(faulty.out.num_degraded, 0);
  EXPECT_EQ(faulty.hits, faulty.tweets_embedded + 1);
  EXPECT_EQ(clean.out.mentions, faulty.out.mentions);
  ASSERT_EQ(clean.sums.size(), faulty.sums.size());
  for (size_t id = 0; id < clean.sums.size(); ++id) {
    ASSERT_EQ(clean.sums[id].size(), faulty.sums[id].size());
    ASSERT_FALSE(clean.sums[id].empty()) << "candidate " << id;
    EXPECT_EQ(0, std::memcmp(clean.sums[id].data(), faulty.sums[id].data(),
                             clean.sums[id].size() * sizeof(float)))
        << "candidate " << id;
  }
}

TEST(FailureInjectionTest, ClassifierFaultDegradesToMentionExtraction) {
  FailpointGuard guard;
  Dataset d;
  d.tweets = {
      FiTweet(1, "Breaking story about Beshear today", {{3, 4}}),
      FiTweet(2, "More breaking updates arriving now"),
      FiTweet(3, "Still breaking coverage from Beshear", {{4, 5}}),
  };
  auto rules = [] {
    return std::vector<MockLocalSystem::Rule>{
        {.phrase = {"breaking"}, .require_capitalized = true},
        {.phrase = {"beshear"}, .require_capitalized = true},
    };
  };
  EntityClassifier clf({.input_dim = 7});

  // Reference: the same stream in mention-extraction mode (no classifier).
  MockLocalSystem extraction_mock(rules());
  GlobalizerOptions ex_opt;
  ex_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer extraction(&extraction_mock, nullptr, nullptr, ex_opt);
  GlobalizerOutput expected = extraction.Run(d).value();

  // Full mode with a classifier that faults on every evaluation.
  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Internal("classifier wedged"));
  MockLocalSystem full_mock(rules());
  GlobalizerOptions full_opt;
  full_opt.mode = GlobalizerOptions::Mode::kFull;
  Globalizer full(&full_mock, nullptr, &clf, full_opt);
  GlobalizerOutput out = full.Run(d).value();

  EXPECT_TRUE(out.classifier_degraded);
  EXPECT_EQ(out.mentions, expected.mentions)
      << "degraded kFull emits the mention-extraction output";
  EXPECT_EQ(out.num_entity, 0);
  EXPECT_EQ(out.num_candidates, expected.num_candidates);
}

TEST(FailureInjectionTest, ClassifierRecoversNextCycle) {
  FailpointGuard guard;
  Dataset d = FiStream();
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  EntityClassifier clf({.input_dim = 7});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.batch_size = 2;
  Globalizer g(&mock, nullptr, &clf, opt);
  StreamBatcher batcher(&d, 2);

  // Cycle 1: classifier down.
  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Internal("down"), /*skip=*/0, /*max_fires=*/-1);
  ASSERT_TRUE(g.ProcessBatch(batcher.Next()).ok());
  EXPECT_TRUE(g.Finalize().value().classifier_degraded);

  // Cycle 2: classifier back up — degradation must not be sticky.
  failpoint::DisableAll();
  ASSERT_TRUE(g.ProcessBatch(batcher.Next()).ok());
  EXPECT_FALSE(g.Finalize().value().classifier_degraded);
}

TEST(FailureInjectionTest, FinalizeWithoutNewEvidenceNeverCallsClassifier) {
  // Finalize scores only candidates whose evidence changed since their last
  // verdict. With none, a failing classifier is never reached: the previous
  // labels stand and the output is not degraded.
  FailpointGuard guard;
  Dataset d = FiStream();
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  EntityClassifier clf({.input_dim = 7});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  Globalizer g(&mock, nullptr, &clf, opt);
  ASSERT_TRUE(g.ProcessBatch(d.tweets).ok());
  const GlobalizerOutput first = g.Finalize().value();
  ASSERT_FALSE(first.classifier_degraded);
  ASSERT_GT(first.num_candidates, 0);

  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Internal("down"), /*skip=*/0, /*max_fires=*/-1);
  const GlobalizerOutput again = g.Finalize().value();
  EXPECT_FALSE(again.classifier_degraded);
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 0);
  EXPECT_EQ(again.mentions, first.mentions);
  EXPECT_EQ(again.num_entity, first.num_entity);
  EXPECT_EQ(again.num_non_entity, first.num_non_entity);
  EXPECT_EQ(again.num_ambiguous, first.num_ambiguous);
}

/// Six two-tweet batches naming four candidates, for the classify-pass
/// retry tests.
Dataset ClassifyStream() {
  Dataset d;
  d.name = "classify";
  const char* texts[] = {
      "Beshear on Coronavirus today",     "Fauci and Beshear spoke",
      "Kentucky cases rising",            "coronavirus in Kentucky again",
      "Fauci briefing tonight",           "BESHEAR says Kentucky is ready",
      "the Coronavirus report",           "fauci warns about coronavirus",
      "Kentucky and Fauci",               "Beshear again tonight",
      "Coronavirus numbers from Kentucky", "Fauci on Beshear",
  };
  long id = 1;
  for (const char* text : texts) d.tweets.push_back(FiTweet(id++, text));
  return d;
}

MockLocalSystem ClassifyMock() {
  return MockLocalSystem({{.phrase = {"beshear"}, .require_capitalized = true},
                          {.phrase = {"coronavirus"}, .require_capitalized = true},
                          {.phrase = {"kentucky"}, .require_capitalized = true},
                          {.phrase = {"fauci"}, .require_capitalized = true}});
}

/// Everything a classify pass decides, for exact comparison across runs.
struct Verdicts {
  std::vector<std::vector<TokenSpan>> mentions;
  std::vector<CandidateLabel> labels;
  std::vector<uint32_t> probability_bits;
};

Verdicts CaptureVerdicts(const Globalizer& g, const GlobalizerOutput& out) {
  Verdicts v;
  v.mentions = out.mentions;
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    v.labels.push_back(state.Label(gid));
    if (!state.Contains(gid)) continue;
    uint32_t bits = 0;
    std::memcpy(&bits, &state.at(gid).entity_probability, sizeof(bits));
    v.probability_bits.push_back(bits);
  }
  return v;
}

void ExpectSameVerdicts(const Verdicts& want, const Verdicts& got) {
  EXPECT_EQ(want.mentions, got.mentions);
  EXPECT_EQ(want.labels, got.labels);
  EXPECT_EQ(want.probability_bits, got.probability_bits);
}

/// DirtyGids only compacts the dirty list, so reading it through a const
/// Globalizer changes nothing a classify pass would see.
std::vector<int> DirtyGids(const Globalizer& g) {
  return const_cast<ShardedGlobalState&>(g.global_state()).DirtyGids();
}

TEST(FailureInjectionTest, ClassifierRetryCoversTheWholePass) {
  // One classify pass is one call, retried whole: two injected faults cost
  // exactly two retries under a three-attempt policy, and nothing degrades.
  FailpointGuard guard;
  const Dataset d = ClassifyStream();
  EntityClassifier clf({.input_dim = 7});
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.resilience.classifier.max_attempts = 3;
  opt.resilience.clock = &clock;
  MockLocalSystem clean_mock = ClassifyMock(), faulty_mock = ClassifyMock();
  Globalizer clean(&clean_mock, nullptr, &clf, opt);
  Globalizer faulty(&faulty_mock, nullptr, &clf, opt);
  ASSERT_TRUE(clean.ProcessBatch(d.tweets).ok());
  ASSERT_TRUE(faulty.ProcessBatch(d.tweets).ok());
  const GlobalizerOutput want = clean.Finalize().value();
  ASSERT_GT(want.num_candidates, 1);

  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Unavailable("blip"), /*skip=*/0,
                         /*max_fires=*/2);
  const GlobalizerOutput got = faulty.Finalize().value();
  EXPECT_FALSE(got.classifier_degraded);
  EXPECT_EQ(got.num_retries - want.num_retries, 2);
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 3);
  ExpectSameVerdicts(CaptureVerdicts(clean, want), CaptureVerdicts(faulty, got));
}

TEST(FailureInjectionTest, ClassifierOutlastingItsRetriesDegradesOneCycle) {
  // Three faults exhaust a three-attempt policy: that cycle degrades, and
  // the next one re-scores every row and matches an undisturbed run.
  FailpointGuard guard;
  const Dataset d = ClassifyStream();
  EntityClassifier clf({.input_dim = 7});
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.resilience.classifier.max_attempts = 3;
  opt.resilience.clock = &clock;
  MockLocalSystem clean_mock = ClassifyMock(), faulty_mock = ClassifyMock();
  Globalizer clean(&clean_mock, nullptr, &clf, opt);
  Globalizer faulty(&faulty_mock, nullptr, &clf, opt);
  const std::span<const AnnotatedTweet> tweets(d.tweets);
  ASSERT_TRUE(clean.ProcessBatch(tweets.first(6)).ok());
  ASSERT_TRUE(faulty.ProcessBatch(tweets.first(6)).ok());

  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Unavailable("down"), /*skip=*/0,
                         /*max_fires=*/3);
  const GlobalizerOutput degraded = faulty.Finalize().value();
  EXPECT_TRUE(degraded.classifier_degraded);
  EXPECT_EQ(degraded.num_retries, 2);
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 3);
  failpoint::DisableAll();
  ASSERT_TRUE(clean.Finalize().ok());

  ASSERT_TRUE(clean.ProcessBatch(tweets.subspan(6)).ok());
  ASSERT_TRUE(faulty.ProcessBatch(tweets.subspan(6)).ok());
  const GlobalizerOutput want = clean.Finalize().value();
  const GlobalizerOutput got = faulty.Finalize().value();
  EXPECT_FALSE(got.classifier_degraded);
  ExpectSameVerdicts(CaptureVerdicts(clean, want), CaptureVerdicts(faulty, got));
}

TEST(FailureInjectionTest, FailedGammaBandSweepLeavesItsRowsDirty) {
  // The governor's γ-band sweep is a classify pass too: when its one call
  // fails, the rows it would have scored stay dirty with their labels
  // untouched, and the next Finalize scores them as an undisturbed run did.
  FailpointGuard guard;
  const Dataset d = ClassifyStream();
  EntityClassifier clf({.input_dim = 7});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.batch_size = 2;
  opt.memory.reclassify_interval_batches = 1;
  MockLocalSystem clean_mock = ClassifyMock(), faulty_mock = ClassifyMock();
  Globalizer clean(&clean_mock, nullptr, &clf, opt);
  Globalizer faulty(&faulty_mock, nullptr, &clf, opt);
  StreamBatcher clean_batches(&d, 2), faulty_batches(&d, 2);
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(clean.ProcessBatch(clean_batches.Next()).ok());
    ASSERT_TRUE(faulty.ProcessBatch(faulty_batches.Next()).ok());
  }
  ASSERT_EQ(DirtyGids(clean), DirtyGids(faulty));
  const std::vector<CandidateLabel> labels_before =
      CaptureVerdicts(faulty, {}).labels;

  // The last batch's sweep fails in the faulty run only.
  ASSERT_TRUE(clean.ProcessBatch(clean_batches.Next()).ok());
  failpoint::EnableAfter("core.entity_classifier.classify",
                         Status::Internal("down"), /*skip=*/0,
                         /*max_fires=*/-1);
  ASSERT_TRUE(faulty.ProcessBatch(faulty_batches.Next()).ok());
  EXPECT_EQ(failpoint::HitCount("core.entity_classifier.classify"), 1);
  failpoint::DisableAll();

  // The clean sweep cleared the rows it scored; the faulty one cleared none
  // and changed no label.
  const std::vector<int> clean_dirty = DirtyGids(clean);
  const std::vector<int> faulty_dirty = DirtyGids(faulty);
  std::vector<int> unswept;
  std::set_difference(faulty_dirty.begin(), faulty_dirty.end(),
                      clean_dirty.begin(), clean_dirty.end(),
                      std::back_inserter(unswept));
  EXPECT_TRUE(std::includes(faulty_dirty.begin(), faulty_dirty.end(),
                            clean_dirty.begin(), clean_dirty.end()));
  EXPECT_FALSE(unswept.empty());
  std::vector<CandidateLabel> labels_after = CaptureVerdicts(faulty, {}).labels;
  ASSERT_GE(labels_after.size(), labels_before.size());
  for (size_t gid = 0; gid < labels_after.size(); ++gid) {
    const CandidateLabel want = gid < labels_before.size()
                                    ? labels_before[gid]
                                    : CandidateLabel::kUnlabeled;
    EXPECT_EQ(labels_after[gid], want) << "gid " << gid;
  }

  const GlobalizerOutput want = clean.Finalize().value();
  const GlobalizerOutput got = faulty.Finalize().value();
  EXPECT_FALSE(got.classifier_degraded);
  ExpectSameVerdicts(CaptureVerdicts(clean, want), CaptureVerdicts(faulty, got));
}

TEST(FailureInjectionTest, BatchLevelFaultFailsRunWithoutAborting) {
  FailpointGuard guard;
  failpoint::EnableAfter("core.globalizer.process_batch",
                         Status::IoError("stream source died"));
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  Result<GlobalizerOutput> r = g.Run(FiStream());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError());
  EXPECT_EQ(g.processed_tweets(), 0u) << "failed batch records nothing";
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoint/restore.
// ---------------------------------------------------------------------------

TEST(FailureInjectionTest, CheckpointRoundTripsState) {
  const std::string path = TempPath("emd_ckpt_roundtrip.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  Dataset d = FiStream();
  ASSERT_TRUE(
      g.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data(), 2)).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  MockLocalSystem mock2({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  Globalizer restored(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.processed_tweets(), 2u);
  EXPECT_EQ(restored.global_state().num_candidates(),
            g.global_state().num_candidates());
  EXPECT_EQ(restored.global_state().num_live_candidates(),
            g.global_state().num_live_candidates());
  EXPECT_EQ(restored.Finalize().value().mentions, g.Finalize().value().mentions);
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, KillAndResumeProducesIdenticalOutput) {
  // Deep system + phrase embedder: the checkpoint stores float-exact
  // embedding sums, so the resumed run must match bit for bit.
  const std::string path = TempPath("emd_ckpt_resume.bin");
  Dataset d;
  d.tweets = {
      FiTweet(1, "governor Andy Beshear spoke", {{1, 3}}),
      FiTweet(2, "Andy Beshear closed schools", {{0, 2}}),
      FiTweet(3, "praise for andy beshear today", {{2, 4}}),
      FiTweet(4, "Beshear responds to questions", {{0, 1}}),
      FiTweet(5, "meeting with Andy Beshear now", {{2, 4}}),
      FiTweet(6, "andy beshear again in frankfort", {{0, 2}}),
  };
  auto make_mock = [] {
    return MockLocalSystem(
        {{.phrase = {"andy", "beshear"}, .require_capitalized = true},
         {.phrase = {"beshear"}, .require_capitalized = true}},
        /*dim=*/8);
  };
  PhraseEmbedder pe(8, 4);
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = 2;

  // Run A: uninterrupted.
  MockLocalSystem mock_a = make_mock();
  Globalizer a(&mock_a, &pe, nullptr, opt);
  GlobalizerOutput out_a = a.Run(d).value();

  // Run B: killed after the first batch...
  MockLocalSystem mock_b1 = make_mock();
  {
    Globalizer b(&mock_b1, &pe, nullptr, opt);
    StreamBatcher batcher(&d, 2);
    ASSERT_TRUE(b.ProcessBatch(batcher.Next()).ok());
    ASSERT_TRUE(b.SaveCheckpoint(path).ok());
    // ...the process dies here; b is destroyed with 4 tweets unprocessed.
  }
  // ...and resumed in a fresh process.
  MockLocalSystem mock_b2 = make_mock();
  Globalizer b(&mock_b2, &pe, nullptr, opt);
  ASSERT_TRUE(b.RestoreCheckpoint(path).ok());
  ASSERT_EQ(b.processed_tweets(), 2u);
  StreamBatcher batcher(&d, 2);
  batcher.Seek(b.processed_tweets());
  while (batcher.HasNext()) ASSERT_TRUE(b.ProcessBatch(batcher.Next()).ok());
  GlobalizerOutput out_b = b.Finalize().value();

  EXPECT_EQ(out_a.mentions, out_b.mentions);
  EXPECT_EQ(out_a.num_candidates, out_b.num_candidates);
  const ShardedGlobalState& sa = a.global_state();
  const ShardedGlobalState& sb = b.global_state();
  ASSERT_EQ(sa.num_candidates(), sb.num_candidates());
  for (int c = 0; c < sa.num_candidates(); ++c) {
    if (!sa.Contains(c)) continue;
    const CandidateRecord& ra = sa.at(c);
    const CandidateRecord& rb = sb.at(c);
    ASSERT_EQ(ra.embedding_count, rb.embedding_count);
    for (size_t j = 0; j < ra.embedding_sum.size(); ++j) {
      EXPECT_EQ(ra.embedding_sum.data()[j], rb.embedding_sum.data()[j])
          << "embedding sums must be bit-identical";
    }
  }
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, TruncatedCheckpointIsCorruption) {
  const std::string path = TempPath("emd_ckpt_trunc.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  Dataset d = FiStream();
  ASSERT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                 d.tweets.data(), d.tweets.size()))
                  .ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());

  for (size_t cut : {content->size() / 2, content->size() - 1, size_t{3}}) {
    ASSERT_TRUE(WriteStringToFile(path, content->substr(0, cut)).ok());
    MockLocalSystem mock2({{.phrase = {"coronavirus"}}});
    Globalizer fresh(&mock2, nullptr, nullptr, opt);
    const Status st = fresh.RestoreCheckpoint(path);
    EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << ": " << st;
    EXPECT_EQ(fresh.processed_tweets(), 0u) << "failed restore leaves no state";
  }
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, BitFlippedCheckpointIsCorruption) {
  const std::string path = TempPath("emd_ckpt_flip.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  Dataset d = FiStream();
  ASSERT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                 d.tweets.data(), d.tweets.size()))
                  .ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());

  // Flip one bit at several offsets, including inside the CRC footer itself.
  for (size_t pos : {size_t{9}, content->size() / 2, content->size() - 2}) {
    std::string corrupted = *content;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());
    MockLocalSystem mock2({{.phrase = {"coronavirus"}}});
    Globalizer fresh(&mock2, nullptr, nullptr, opt);
    const Status st = fresh.RestoreCheckpoint(path);
    EXPECT_TRUE(st.IsCorruption()) << "pos=" << pos << ": " << st;
  }
  std::filesystem::remove(path);
}

/// A minimal valid v5 checkpoint (mode kMentionExtraction, one shard): one
/// tweet with one token and one mention, one candidate with one mention and
/// one retained mention embedding, and a metrics block with one counter and
/// one histogram. Records the byte offset of every u32 element count restore
/// sizes a container from, and of the candidate slot's key and num_tokens.
struct CountedCheckpoint {
  std::string bytes;
  size_t tokens = 0;
  size_t tweet_mentions = 0;
  size_t slot_key = 0;
  size_t slot_num_tokens = 0;
  size_t candidate_mentions = 0;
  size_t mention_embeddings = 0;
  size_t counters = 0;
  size_t histograms = 0;
};

CountedCheckpoint BuildCountedCheckpoint() {
  CountedCheckpoint c;
  std::string& buf = c.bytes;
  binio::AppendU32(&buf, 0x454D4447);  // 'EMDG'
  binio::AppendU32(&buf, 5);           // version
  binio::AppendU8(&buf, 1);            // mode = kMentionExtraction
  binio::AppendU64(&buf, 1);           // processed_tweets
  binio::AppendU32(&buf, 0);           // num_quarantined
  binio::AppendU32(&buf, 0);           // num_degraded
  binio::AppendU8(&buf, 0);            // classifier_degraded
  for (int i = 0; i < 5; ++i) binio::AppendU32(&buf, 0);  // resilience
  for (int i = 0; i < 4; ++i) binio::AppendU64(&buf, 0);  // governor

  // Candidate keys: one shard holding gid 0.
  binio::AppendU32(&buf, 1);  // shard_count
  binio::AppendU32(&buf, 1);  // num_gids
  binio::AppendU8(&buf, 1);   // gid 0 live
  binio::AppendU32(&buf, 1);  // shard 0 count
  binio::AppendU32(&buf, 0);  // gid
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU32(&buf, 1);  // token length

  // TweetBase.
  binio::AppendU64(&buf, 1);
  binio::AppendI64(&buf, 42);  // tweet_id
  binio::AppendI32(&buf, 0);   // sentence_id
  binio::AppendU8(&buf, 0);    // quarantined
  binio::AppendU8(&buf, 0);    // trimmed
  c.tokens = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendString(&buf, "coronavirus");
  binio::AppendU64(&buf, 0);
  binio::AppendU64(&buf, 11);
  binio::AppendU8(&buf, 0);  // kWord
  c.tweet_mentions = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendU64(&buf, 0);  // span.begin
  binio::AppendU64(&buf, 1);  // span.end
  binio::AppendI32(&buf, 0);  // candidate_id
  binio::AppendU8(&buf, 1);   // locally_detected

  // CandidateBase.
  binio::AppendU64(&buf, 1);
  binio::AppendU8(&buf, 1);  // present
  c.slot_key = buf.size();
  binio::AppendString(&buf, "coronavirus");
  c.slot_num_tokens = buf.size();
  binio::AppendI32(&buf, 1);  // num_tokens
  c.candidate_mentions = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendU64(&buf, 0);  // tweet_index
  binio::AppendU64(&buf, 0);
  binio::AppendU64(&buf, 1);
  binio::AppendU8(&buf, 1);
  binio::AppendI32(&buf, 1);  // embedding_sum [1, 2]
  binio::AppendI32(&buf, 2);
  binio::AppendF32(&buf, 1.f);
  binio::AppendF32(&buf, 2.f);
  binio::AppendI32(&buf, 1);     // embedding_count
  binio::AppendF64(&buf, 1.0);   // embedding_weight
  binio::AppendU64(&buf, 0);     // last_update_pos
  binio::AppendU64(&buf, 0);     // last_mention_pos
  binio::AppendU8(&buf, 0);      // label = kUnlabeled
  binio::AppendF32(&buf, -1.f);  // entity_probability
  c.mention_embeddings = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendI32(&buf, 1);
  binio::AppendI32(&buf, 2);
  binio::AppendF32(&buf, 1.f);
  binio::AppendF32(&buf, 2.f);

  // Metrics block.
  c.counters = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendString(&buf, "emd_test_checkpoint_count_total");
  binio::AppendString(&buf, "test counter");
  binio::AppendString(&buf, "");
  binio::AppendString(&buf, "");
  binio::AppendU64(&buf, 7);
  c.histograms = buf.size();
  binio::AppendU32(&buf, 1);
  binio::AppendString(&buf, "emd_test_checkpoint_count_seconds");
  binio::AppendString(&buf, "test histogram");
  binio::AppendString(&buf, "");
  binio::AppendString(&buf, "");
  binio::AppendU32(&buf, 1);  // bounds
  binio::AppendF64(&buf, 0.5);
  binio::AppendU64(&buf, 1);  // buckets
  binio::AppendU64(&buf, 0);
  binio::AppendF64(&buf, 0.25);  // sum
  binio::AppendU64(&buf, 1);     // count

  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  return c;
}

uint64_t CheckpointRestores() {
  return obs::Metrics()
      .GetCounter("checkpoint_restores_total", "Checkpoints restored successfully")
      ->value();
}

/// Patches the count at `field` to 0xFFFFFFFF under a recomputed CRC: restore
/// must return Corruption before reserving anything, and leave the Globalizer
/// freshly constructed (it then restores the valid file).
void ExpectHugeCountIsCorruption(size_t CountedCheckpoint::*field) {
  // ctest runs each test in its own process, concurrently: one file each.
  const std::string path = TempPath(
      std::string("emd_ckpt_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin");
  const CountedCheckpoint valid = BuildCountedCheckpoint();
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  {
    ASSERT_TRUE(WriteStringToFile(path, valid.bytes).ok());
    MockLocalSystem mock({{.phrase = {"coronavirus"}}});
    Globalizer g(&mock, nullptr, nullptr, opt);
    ASSERT_TRUE(g.RestoreCheckpoint(path).ok()) << "fixture must be valid";
  }

  std::string bad = valid.bytes;
  const size_t body = bad.size() - sizeof(uint32_t);
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + valid.*field, &huge, sizeof(huge));
  const uint32_t crc = Crc32(bad.data(), body);
  std::memcpy(bad.data() + body, &crc, sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(path, bad).ok());

  const uint64_t restores = CheckpointRestores();
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  Globalizer fresh(&mock, nullptr, nullptr, opt);
  const Status st = fresh.RestoreCheckpoint(path);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("exceeds remaining bytes"), std::string::npos)
      << st;
  EXPECT_EQ(fresh.processed_tweets(), 0u);
  EXPECT_EQ(fresh.global_state().num_candidates(), 0);
  EXPECT_EQ(CheckpointRestores(), restores);

  ASSERT_TRUE(WriteStringToFile(path, valid.bytes).ok());
  EXPECT_TRUE(fresh.RestoreCheckpoint(path).ok());
  EXPECT_EQ(fresh.processed_tweets(), 1u);
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, CheckpointHugeTokenCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::tokens);
}

TEST(FailureInjectionTest, CheckpointHugeTweetMentionCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::tweet_mentions);
}

TEST(FailureInjectionTest, CheckpointHugeCandidateMentionCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::candidate_mentions);
}

TEST(FailureInjectionTest, CheckpointHugeMentionEmbeddingCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::mention_embeddings);
}

TEST(FailureInjectionTest, CheckpointHugeMetricsCounterCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::counters);
}

TEST(FailureInjectionTest, CheckpointHugeMetricsHistogramCountIsCorruption) {
  ExpectHugeCountIsCorruption(&CountedCheckpoint::histograms);
}

// A candidate's mention list is a copy of the TweetBase's mentions of its
// gid: restore refuses a file where the two disagree (a re-save could not
// reproduce it), including an entry whose tweet index is out of range.
TEST(FailureInjectionTest, CheckpointCandidateMentionsDisagreeingWithTweetBase) {
  const std::string path = TempPath("emd_ckpt_candidate_mentions.bin");
  const CountedCheckpoint valid = BuildCountedCheckpoint();
  // Past the candidate's u32 count: u64 tweet_index, u64 span.begin,
  // u64 span.end, u8 locally_detected.
  const size_t entry = valid.candidate_mentions + 4;
  struct Patch {
    size_t offset;
    char byte;
    const char* what;
  };
  const Patch patches[] = {{valid.candidate_mentions, 0, "count 0 of 1"},
                           {entry, 1, "tweet index out of range"},
                           {entry + 8, 1, "span.begin"},
                           {entry + 16, 2, "span.end"},
                           {entry + 24, 0, "locally_detected"}};
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  for (const Patch& p : patches) {
    SCOPED_TRACE(p.what);
    std::string bad = valid.bytes;
    ASSERT_NE(bad[p.offset], p.byte);
    bad[p.offset] = p.byte;
    const size_t body = bad.size() - sizeof(uint32_t);
    const uint32_t crc = Crc32(bad.data(), body);
    std::memcpy(bad.data() + body, &crc, sizeof(crc));
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());

    MockLocalSystem mock({{.phrase = {"coronavirus"}}});
    Globalizer fresh(&mock, nullptr, nullptr, opt);
    const Status st = fresh.RestoreCheckpoint(path);
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find("TweetBase"), std::string::npos) << st;
    EXPECT_EQ(fresh.processed_tweets(), 0u);
    EXPECT_EQ(fresh.global_state().num_candidates(), 0);
  }
  std::filesystem::remove(path);
}

// A candidate slot repeats the key and length the candidate-key section
// registered for its gid: restore refuses a slot that disagrees rather than
// keep a record for a phrase the trie does not hold.
TEST(FailureInjectionTest, CheckpointSlotDisagreeingWithTheCandidateKeys) {
  const std::string path = TempPath("emd_ckpt_slot_key.bin");
  const CountedCheckpoint valid = BuildCountedCheckpoint();
  struct Patch {
    size_t offset;
    char byte;
    const char* what;
  };
  // Past the key's u32 length, its last byte: "coronavirus" -> "coronavirut".
  const Patch patches[] = {{valid.slot_key + 4 + 10, 't', "same-length key"},
                           {valid.slot_num_tokens, 2, "num_tokens 1 -> 2"}};
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  for (const Patch& p : patches) {
    SCOPED_TRACE(p.what);
    std::string bad = valid.bytes;
    ASSERT_NE(bad[p.offset], p.byte);
    bad[p.offset] = p.byte;
    const size_t body = bad.size() - sizeof(uint32_t);
    const uint32_t crc = Crc32(bad.data(), body);
    std::memcpy(bad.data() + body, &crc, sizeof(crc));
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());

    MockLocalSystem mock({{.phrase = {"coronavirus"}}});
    Globalizer fresh(&mock, nullptr, nullptr, opt);
    const Status st = fresh.RestoreCheckpoint(path);
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find("candidate-key section"), std::string::npos)
        << st;
    EXPECT_EQ(fresh.processed_tweets(), 0u);
    EXPECT_EQ(fresh.global_state().num_candidates(), 0);

    ASSERT_TRUE(WriteStringToFile(path, valid.bytes).ok());
    EXPECT_TRUE(fresh.RestoreCheckpoint(path).ok());
    EXPECT_EQ(fresh.global_state().CandidateKey(0), "coronavirus");
  }
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, CheckpointModeMismatchRejected) {
  const std::string path = TempPath("emd_ckpt_mode.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  MockLocalSystem mock2({{.phrase = {"coronavirus"}}});
  GlobalizerOptions local_opt;
  local_opt.mode = GlobalizerOptions::Mode::kLocalOnly;
  Globalizer other(&mock2, nullptr, nullptr, local_opt);
  EXPECT_TRUE(other.RestoreCheckpoint(path).IsInvalidArgument());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, RestoreIntoUsedGlobalizerIsFailedPrecondition) {
  const std::string path = TempPath("emd_ckpt_used.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());
  Dataset d = FiStream();
  ASSERT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                 d.tweets.data(), d.tweets.size()))
                  .ok());
  EXPECT_TRUE(g.RestoreCheckpoint(path).IsFailedPrecondition());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, CheckpointSaveFaultLeavesPreviousCheckpointIntact) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_ckpt_atomic.bin");
  MockLocalSystem mock({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  Dataset d = FiStream();
  StreamBatcher batcher(&d, 2);
  ASSERT_TRUE(g.ProcessBatch(batcher.Next()).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  // A crash in the publish step must not clobber the previous checkpoint.
  failpoint::EnableAfter("util.file_io.rename",
                         Status::IoError("crash before rename"));
  ASSERT_TRUE(g.ProcessBatch(batcher.Next()).ok());
  EXPECT_FALSE(g.SaveCheckpoint(path).ok());
  failpoint::DisableAll();

  MockLocalSystem mock2({{.phrase = {"coronavirus"}, .require_capitalized = true}});
  Globalizer restored(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.processed_tweets(), 2u) << "the batch-1 checkpoint survives";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "temp file cleaned up";
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Model-file atomicity and checksums.
// ---------------------------------------------------------------------------

TEST(FailureInjectionTest, SaveParamsFaultPreservesOriginalModel) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_atomic_model.bin");
  Mat w(2, 2), grad(2, 2);
  w(0, 0) = 42.f;
  ParamSet params;
  params.Register("w", &w, &grad);
  ASSERT_TRUE(SaveParams(params, path).ok());

  w(0, 0) = -1.f;  // new weights that must NOT reach disk
  failpoint::EnableAfter("util.file_io.rename", Status::IoError("disk full"));
  EXPECT_FALSE(SaveParams(params, path).ok());
  failpoint::DisableAll();

  Mat w2(2, 2), grad2(2, 2);
  ParamSet params2;
  params2.Register("w", &w2, &grad2);
  ASSERT_TRUE(LoadParams(&params2, path).ok());
  EXPECT_EQ(w2(0, 0), 42.f) << "interrupted save left the old model intact";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, ModelFileBitFlipIsCorruption) {
  const std::string path = TempPath("emd_crc_model.bin");
  Mat w(3, 3), grad(3, 3);
  w(1, 1) = 7.f;
  ParamSet params;
  params.Register("w", &w, &grad);
  ASSERT_TRUE(SaveParams(params, path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string corrupted = *content;
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());
  EXPECT_TRUE(LoadParams(&params, path).IsCorruption());
  std::filesystem::remove(path);
}

TEST(FailureInjectionTest, SerializeFailpointsPropagate) {
  FailpointGuard guard;
  const std::string path = TempPath("emd_fp_model.bin");
  Mat w(1, 1), grad(1, 1);
  ParamSet params;
  params.Register("w", &w, &grad);

  failpoint::EnableAfter("nn.serialize.save", Status::IoError("save fp"));
  EXPECT_TRUE(SaveParams(params, path).IsIoError());
  failpoint::DisableAll();

  ASSERT_TRUE(SaveParams(params, path).ok());
  failpoint::EnableAfter("nn.serialize.load", Status::IoError("load fp"));
  EXPECT_TRUE(LoadParams(&params, path).IsIoError());
  failpoint::DisableAll();
  EXPECT_TRUE(LoadParams(&params, path).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace emd
