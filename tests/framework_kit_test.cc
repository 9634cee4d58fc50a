// FrameworkKit tests: model caching across kit instances, environment-driven
// options, and kind metadata.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "core/framework_kit.h"
#include "core/globalizer.h"
#include "emd/pos_tagger.h"
#include "stream/datasets.h"
#include "util/file_io.h"

namespace emd {
namespace {

TEST(FrameworkKitTest, KindNamesMatchPaper) {
  EXPECT_STREQ(SystemKindName(SystemKind::kNpChunker), "NP Chunker");
  EXPECT_STREQ(SystemKindName(SystemKind::kTwitterNlp), "TwitterNLP");
  EXPECT_STREQ(SystemKindName(SystemKind::kAguilar), "Aguilar et al.");
  EXPECT_STREQ(SystemKindName(SystemKind::kBertweet), "BERTweet");
}

TEST(FrameworkKitTest, OptionsFromEnv) {
  setenv("EMD_SCALE", "0.25", 1);
  setenv("EMD_TRAIN_TWEETS", "1234", 1);
  setenv("EMD_CACHE_DIR", "/tmp/emd_env_cache", 1);
  FrameworkKitOptions opt = FrameworkKitOptions::FromEnv();
  EXPECT_DOUBLE_EQ(opt.scale, 0.25);
  EXPECT_EQ(opt.training_tweets, 1234);
  EXPECT_EQ(opt.cache_dir, "/tmp/emd_env_cache");
  unsetenv("EMD_SCALE");
  unsetenv("EMD_TRAIN_TWEETS");
  unsetenv("EMD_CACHE_DIR");
}

TEST(FrameworkKitTest, CacheReloadReproducesPredictions) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emd_kit_cache_test").string();
  std::filesystem::remove_all(cache);

  FrameworkKitOptions opt;
  opt.scale = 0.02;
  opt.training_tweets = 300;
  opt.cache_dir = cache;
  opt.use_cache = true;
  opt.seed = 99;

  std::vector<std::vector<TokenSpan>> first, second;
  {
    FrameworkKit kit(opt);
    Dataset stream = BuildD1(kit.catalog(), kit.suite_options());
    LocalEmdSystem* sys = kit.system(SystemKind::kTwitterNlp);
    for (const auto& t : stream.tweets) first.push_back(sys->Process(t.tokens).mentions);
  }
  {
    // Fresh kit, same cache: must load, not retrain, and match exactly.
    FrameworkKit kit(opt);
    Dataset stream = BuildD1(kit.catalog(), kit.suite_options());
    LocalEmdSystem* sys = kit.system(SystemKind::kTwitterNlp);
    for (const auto& t : stream.tweets)
      second.push_back(sys->Process(t.tokens).mentions);
  }
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::filesystem::exists(cache));
  std::filesystem::remove_all(cache);
}

TEST(FrameworkKitTest, CorruptCachedPosTaggerIsRetrained) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emd_kit_corrupt_pos_test").string();
  std::filesystem::remove_all(cache);
  ASSERT_TRUE(CreateDirs(cache).ok());

  FrameworkKitOptions opt;
  opt.scale = 0.02;
  opt.training_tweets = 200;
  opt.cache_dir = cache;
  opt.use_cache = true;
  opt.seed = 99;
  // FrameworkKit's cache name for the tagger: pos_s<seed>_t<tweets>_sc<scale*1000>.
  const std::string path = cache + "/pos_s99_t200_sc20.model";
  ASSERT_TRUE(WriteStringToFile(path, "garbage\n").ok());

  FrameworkKit kit(opt);
  const PosTagger& tagger = kit.pos_tagger();
  ASSERT_TRUE(tagger.trained()) << "the corrupt cache must not load as an empty tagger";
  PosTagger fresh;
  fresh.Train(kit.training_corpus());
  const Dataset held = BuildTrainingCorpus(kit.catalog(), 50, 7);
  for (const auto& tweet : held.tweets) {
    EXPECT_EQ(tagger.Tag(tweet.tokens), fresh.Tag(tweet.tokens));
  }
  // The retrained tagger replaced the corrupt file.
  PosTagger reloaded;
  ASSERT_TRUE(reloaded.Load(path).ok());
  EXPECT_TRUE(reloaded.trained());
  std::filesystem::remove_all(cache);
}

TEST(FrameworkKitTest, SeedChangesWorld) {
  FrameworkKitOptions a;
  a.scale = 0.02;
  a.use_cache = false;
  a.seed = 1;
  FrameworkKitOptions b = a;
  b.seed = 2;
  FrameworkKit ka(a), kb(b);
  EXPECT_NE(ka.catalog().entity(0).CanonicalName(),
            kb.catalog().entity(0).CanonicalName());
}

}  // namespace
}  // namespace emd
