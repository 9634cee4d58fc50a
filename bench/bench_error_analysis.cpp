// Reproduces the error analysis of §VI-C with the BERTweet instantiation on
// the streaming datasets:
//   (1) mentions lost because Local EMD missed *every* mention of the entity
//       (the entity never became a candidate) — paper: 3008/11412 = 26.35%;
//   (2) mentions lost because the Entity Classifier mislabelled a true
//       entity as a false negative — paper: 469/11412 = 4.1%.

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "bench_common.h"
#include "util/string_util.h"

using namespace emd;
using namespace emd::bench;

int main() {
  FrameworkKit kit;
  const SystemKind kind = SystemKind::kBertweet;

  long total_mentions = 0;
  long lost_never_candidate = 0;     // error class (1)
  std::unordered_set<std::string> entities_never_candidate;
  long lost_classifier_fn = 0;       // error class (2)
  std::unordered_set<std::string> entities_classifier_fn;

  std::vector<Dataset> streams;
  streams.push_back(BuildD1(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD2(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD3(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD4(kit.catalog(), kit.suite_options()));

  for (const Dataset& dataset : streams) {
    Globalizer g(kit.system(kind), kit.phrase_embedder(kind), kit.classifier(kind),
                 {});
    g.Run(dataset).value();
    const ShardedGlobalState& state = g.global_state();

    // Index candidate verdict by surface key.
    std::unordered_map<std::string, CandidateLabel> verdicts;
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      if (state.Contains(gid)) verdicts[state.CandidateKey(gid)] = state.Label(gid);
    }

    for (const auto& tweet : dataset.tweets) {
      for (const auto& gold : tweet.gold) {
        ++total_mentions;
        const std::string key = ToLowerAscii(SpanText(tweet.tokens, gold.span));
        auto it = verdicts.find(key);
        if (it == verdicts.end()) {
          ++lost_never_candidate;
          entities_never_candidate.insert(key);
        } else if (it->second == CandidateLabel::kNonEntity) {
          ++lost_classifier_fn;
          entities_classifier_fn.insert(key);
        }
      }
    }
  }

  std::printf("ERROR ANALYSIS (SVI-C), BERTweet instantiation, streaming "
              "datasets D1-D4\n\n");
  std::printf("total gold mentions: %ld (paper: 11412)\n", total_mentions);
  std::printf("(1) lost: no mention of the entity was ever suggested by Local "
              "EMD\n    %ld mentions (%.2f%%) of %zu entities  [paper: 3008 "
              "mentions, 26.35%%, 1018 entities]\n",
              lost_never_candidate,
              100.0 * lost_never_candidate / std::max(1L, total_mentions),
              entities_never_candidate.size());
  std::printf("(2) lost: Entity Classifier mislabelled a true entity as "
              "non-entity\n    %ld mentions (%.2f%%) of %zu entities  [paper: "
              "469 mentions, 4.1%%, 81 entities]\n",
              lost_classifier_fn,
              100.0 * lost_classifier_fn / std::max(1L, total_mentions),
              entities_classifier_fn.size());
  return 0;
}
