#include "core/classifier_training.h"

#include <unordered_map>
#include <unordered_set>

#include "core/globalizer.h"
#include "text/token.h"
#include "util/string_util.h"

namespace emd {

std::vector<ClassifierExample> BuildClassifierExamples(
    const Dataset& labelled_stream, LocalEmdSystem* system,
    const PhraseEmbedder* phrase_embedder, size_t batch_size) {
  GlobalizerOptions options;
  options.mode = GlobalizerOptions::Mode::kMentionExtraction;
  options.batch_size = batch_size;
  options.retain_mention_embeddings = true;
  Globalizer globalizer(system, phrase_embedder, /*classifier=*/nullptr, options);
  globalizer.Run(labelled_stream).value();

  // Gold entity surfaces of the stream, case-folded.
  std::unordered_set<std::string> gold_keys;
  for (const auto& tweet : labelled_stream.tweets) {
    for (const auto& g : tweet.gold) {
      gold_keys.insert(ToLowerAscii(SpanText(tweet.tokens, g.span)));
    }
  }

  std::vector<ClassifierExample> examples;
  const ShardedGlobalState& state = globalizer.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    if (rec.embedding_count == 0) continue;
    const bool label = gold_keys.count(state.CandidateKey(gid)) > 0;
    const int num_tokens = state.CandidateLength(gid);

    // Full-pool example plus prefix pools (1, 2, 4, 8, ... mentions in
    // arrival order): in the incremental streaming execution the classifier
    // must judge candidates from partial evidence, so it is trained on the
    // same condition.
    Mat prefix_sum(1, rec.mention_embeddings[0].cols());
    size_t next_cut = 1;
    for (size_t m = 0; m < rec.mention_embeddings.size(); ++m) {
      prefix_sum.Add(rec.mention_embeddings[m]);
      const bool is_full = m + 1 == rec.mention_embeddings.size();
      if (m + 1 == next_cut || is_full) {
        Mat pooled = prefix_sum;
        pooled.Scale(1.f / static_cast<float>(m + 1));
        ClassifierExample ex;
        ex.features = EntityClassifier::MakeFeatures(pooled, num_tokens);
        ex.is_entity = label;
        examples.push_back(std::move(ex));
        if (is_full) break;
        next_cut *= 2;
      }
    }
  }
  return examples;
}

std::vector<TypeExample> BuildTypeExamples(const Dataset& labelled_stream,
                                           const EntityCatalog& catalog,
                                           LocalEmdSystem* system,
                                           const PhraseEmbedder* phrase_embedder,
                                           size_t batch_size) {
  GlobalizerOptions options;
  options.mode = GlobalizerOptions::Mode::kMentionExtraction;
  options.batch_size = batch_size;
  Globalizer globalizer(system, phrase_embedder, /*classifier=*/nullptr, options);
  globalizer.Run(labelled_stream).value();

  // Surface -> gold type via the stream's gold annotations.
  std::unordered_map<std::string, EntityType> gold_types;
  for (const auto& tweet : labelled_stream.tweets) {
    for (const auto& g : tweet.gold) {
      gold_types.emplace(ToLowerAscii(SpanText(tweet.tokens, g.span)),
                         catalog.entity(g.entity_id).type);
    }
  }

  std::vector<TypeExample> examples;
  const ShardedGlobalState& state = globalizer.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    if (rec.embedding_count == 0) continue;
    auto it = gold_types.find(state.CandidateKey(gid));
    if (it == gold_types.end()) continue;  // non-entities carry no type
    TypeExample ex;
    ex.features = EntityClassifier::MakeFeatures(rec.GlobalEmbedding(),
                                                 state.CandidateLength(gid));
    ex.type = it->second;
    examples.push_back(std::move(ex));
  }
  return examples;
}

}  // namespace emd
