// Shared fixtures of the byte-accounting tests and of the golden
// checkpoint writer: a churning stream of coined entities, the mock rules
// that detect them, the governed pipeline options, the checkpoint's state
// section (every byte before the process-wide metrics block) and the golden
// fixture's pipeline.

#ifndef EMD_TESTS_CHURN_STREAM_H_
#define EMD_TESTS_CHURN_STREAM_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/globalizer.h"
#include "mock_local_system.h"
#include "obs/metrics.h"
#include "stream/datasets.h"
#include "text/tweet_tokenizer.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace emd {

/// A word from a small syllable alphabet. Lengths span the short-string
/// buffer boundary (15 chars), so both inline and heap strings churn.
inline std::string Word(Rng* rng) {
  const char* syllables[] = {"ka", "lo", "mi", "ra", "zu", "te", "vo", "ni"};
  std::string w;
  const int n = rng->NextBernoulli(0.2) ? rng->NextInt(8, 12) : rng->NextInt(1, 3);
  for (int i = 0; i < n; ++i) w += syllables[rng->NextU64(8)];
  return w;
}

inline std::vector<std::string> Phrase(Rng* rng) {
  std::vector<std::string> words(static_cast<size_t>(rng->NextInt(1, 3)));
  for (std::string& w : words) w = Word(rng);
  return words;
}

/// Coined entities (some past the short-string boundary, some two-word)
/// drawn Zipf-style, so most candidates are cold and get evicted while a
/// few keep recurring and pooling.
inline std::vector<std::vector<std::string>> Entities() {
  Rng rng(29);
  std::vector<std::vector<std::string>> entities;
  for (int i = 0; i < 120; ++i) entities.push_back(Phrase(&rng));
  return entities;
}

inline Dataset ChurnStream(int num_tweets, uint64_t seed) {
  const auto entities = Entities();
  const std::vector<std::string> fillers = {"the", "cases", "rising", "today",
                                            "spoke", "about", "new", "again"};
  Rng rng(seed);
  Dataset d;
  d.name = "accounting";
  d.streaming = true;
  TweetTokenizer tokenizer;
  for (int i = 0; i < num_tweets; ++i) {
    std::string text;
    for (int w = rng.NextInt(3, 7); w > 0; --w) {
      text += fillers[rng.NextU64(fillers.size())] + " ";
    }
    for (int m = rng.NextInt(1, 3); m > 0; --m) {
      const auto& phrase = entities[rng.NextZipf(entities.size(), 0.8)];
      for (std::string w : phrase) {
        if (rng.NextBernoulli(0.7)) w[0] = static_cast<char>(w[0] - 'a' + 'A');
        text += w + " ";
      }
    }
    AnnotatedTweet t;
    t.tweet_id = i + 1;
    t.text = text;
    t.tokens = tokenizer.Tokenize(text);
    d.tweets.push_back(std::move(t));
  }
  return d;
}

inline std::vector<MockLocalSystem::Rule> ChurnRules() {
  std::vector<MockLocalSystem::Rule> rules;
  bool partial = false;
  for (const auto& phrase : Entities()) {
    rules.push_back({.phrase = phrase,
                     .require_capitalized = true,
                     .partial = partial && phrase.size() > 1});
    partial = !partial;
  }
  return rules;
}

constexpr size_t kBatch = 8;

inline GlobalizerOptions GovernedOptions(int shards, int threads) {
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = kBatch;
  opt.shard_count = shards;
  opt.num_threads = threads;
  opt.memory.budget_bytes = 48 * 1024;
  opt.memory.min_retain_tweets = 8;
  opt.memory.decay_half_life_tweets = 24;
  return opt;
}

inline std::span<const AnnotatedTweet> BatchAt(const Dataset& d, size_t b) {
  const size_t begin = b * kBatch;
  const size_t end = std::min(d.tweets.size(), begin + kBatch);
  return {d.tweets.data() + begin, end - begin};
}

/// Byte length of the metrics block SaveCheckpoint appends for `snap` (its
/// layout is in globalizer_checkpoint.cc). Every field but the strings has a
/// fixed width, so the block's length depends on the registered names only.
inline size_t MetricsBlockBytes(const obs::MetricsSnapshot& snap) {
  auto strings = [](const auto& s) {
    return 4 * 4 + s.name.size() + s.help.size() + s.label.key.size() +
           s.label.value.size();
  };
  size_t bytes = 4 + 4;  // counter and histogram counts
  for (const auto& c : snap.counters) bytes += strings(c) + 8;
  for (const auto& h : snap.histograms) {
    bytes += strings(h) + 4 + 8 * h.bounds.size() +
             8 * (h.bounds.size() + 1) + 8 + 8;
  }
  return bytes;
}

/// Saves `g` to `path` and returns the state section: the checkpoint bytes
/// before the metrics block, which holds process-wide counters. The first
/// save registers every metric the save path uses, so the snapshot taken
/// before the second has the same names as the block that save writes.
inline Result<std::string> SaveStateSection(const Globalizer& g,
                                            const std::string& path) {
  EMD_RETURN_IF_ERROR(g.SaveCheckpoint(path));
  const size_t metrics = MetricsBlockBytes(obs::Metrics().Snapshot());
  EMD_RETURN_IF_ERROR(g.SaveCheckpoint(path));
  std::string bytes;
  EMD_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
  if (bytes.size() <= metrics + sizeof(uint32_t)) {
    return Status::Corruption("checkpoint ", path, " has no state section");
  }
  return bytes.substr(0, bytes.size() - metrics - sizeof(uint32_t));
}

/// The golden v5 checkpoint fixture's options: a deep pipeline over 2
/// shards under a 71 500 B budget, retaining mention embeddings. The budget
/// is tuned so that the fixture WriteGoldenCheckpoint writes from today's
/// byte figures still covers what the golden test checks: some tweets
/// trimmed but not all, and some candidates evicted.
inline GlobalizerOptions GoldenOptions() {
  GlobalizerOptions opt = GovernedOptions(/*shards=*/2, /*threads=*/1);
  opt.memory.budget_bytes = 71500;
  opt.retain_mention_embeddings = true;
  return opt;
}

/// The golden fixture's pipeline: GoldenOptions() over 14 batches of
/// ChurnStream(112, 79), in which tweet 37's Local EMD fails once. Writes its
/// checkpoint to `path` with an empty metrics block, so the state section is
/// everything but the last 8 + 4 bytes, and returns the governor's stats.
inline Result<MemoryGovernorStats> WriteGoldenCheckpoint(
    const std::string& path) {
  const Dataset d = ChurnStream(112, 79);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  Globalizer g(&mock, &pe, nullptr, GoldenOptions());
  failpoint::EnableAfter("emd.mock.process", Status::Internal("golden"),
                         /*skip=*/37, /*max_fires=*/1);
  Status run = Status::OK();
  for (size_t b = 0; b < batches && run.ok(); ++b) {
    run = g.ProcessBatch(BatchAt(d, b));
  }
  failpoint::DisableAll();
  EMD_RETURN_IF_ERROR(run);
  std::string state;
  EMD_ASSIGN_OR_RETURN(state, SaveStateSection(g, path));
  binio::AppendU32(&state, 0);  // counters
  binio::AppendU32(&state, 0);  // histograms
  binio::AppendU32(&state, Crc32(state.data(), state.size()));
  EMD_RETURN_IF_ERROR(WriteStringToFile(path, state));
  return g.memory_governor().stats();
}

}  // namespace emd

#endif  // EMD_TESTS_CHURN_STREAM_H_
