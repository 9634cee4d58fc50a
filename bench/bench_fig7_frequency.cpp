// Reproduces Figure 7: "Impact of Frequency on Detecting Entities" — the
// Entity Classifier's recall in recognizing true entities, grouped by the
// candidate's mention frequency in the stream (bins of width 5). The paper
// reports ~56% recall for entities with <=5 mentions, rising quickly with
// frequency.

#include <cstdio>
#include <unordered_set>

#include "bench_common.h"
#include "util/string_util.h"

using namespace emd;
using namespace emd::bench;

int main() {
  FrameworkKit kit;
  const SystemKind kind = SystemKind::kAguilar;

  constexpr int kNumBins = 6;  // [1-5], [6-10], ..., [26+]
  long detected[kNumBins] = {};
  long total[kNumBins] = {};

  std::vector<Dataset> streams;
  streams.push_back(BuildD1(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD2(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD3(kit.catalog(), kit.suite_options()));
  streams.push_back(BuildD4(kit.catalog(), kit.suite_options()));

  for (const Dataset& dataset : streams) {
    // Gold surface keys of the stream.
    std::unordered_set<std::string> gold_keys;
    for (const auto& tweet : dataset.tweets) {
      for (const auto& g : tweet.gold) {
        gold_keys.insert(ToLowerAscii(SpanText(tweet.tokens, g.span)));
      }
    }
    Globalizer g(kit.system(kind), kit.phrase_embedder(kind), kit.classifier(kind),
                 {});
    g.Run(dataset).value();
    const ShardedGlobalState& state = g.global_state();
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      if (!state.Contains(gid)) continue;
      if (!gold_keys.count(state.CandidateKey(gid))) continue;  // true entities
      const int freq = static_cast<int>(state.at(gid).num_mentions);
      if (freq <= 0) continue;
      const int bin = std::min(kNumBins - 1, (freq - 1) / 5);
      ++total[bin];
      if (state.Label(gid) == CandidateLabel::kEntity) ++detected[bin];
    }
  }

  std::printf("FIGURE 7: Impact of Frequency on Detecting Entities\n");
  std::printf("(Entity Classifier recall on true-entity candidates, by mention "
              "frequency; paper: ~0.56 at <=5, rising to ~1.0)\n");
  std::printf("%-12s %10s %10s %8s\n", "Frequency", "Entities", "Detected",
              "Recall");
  const char* bins[kNumBins] = {"1-5", "6-10", "11-15", "16-20", "21-25", "26+"};
  for (int b = 0; b < kNumBins; ++b) {
    std::printf("%-12s %10ld %10ld %8.3f\n", bins[b], total[b], detected[b],
                total[b] ? static_cast<double>(detected[b]) / total[b] : 0.0);
  }
  return 0;
}
