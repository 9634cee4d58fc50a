#include "emd/subword.h"

#include <unordered_map>

#include "util/string_util.h"

namespace emd {

SubwordTokenizer SubwordTokenizer::Build(const Dataset& corpus, int min_word_count) {
  std::unordered_map<std::string, int> word_counts;
  std::unordered_map<std::string, int> suffix_counts;
  std::string lower, suffix;
  for (const auto& tweet : corpus.tweets) {
    for (const auto& tok : tweet.tokens) {
      ToLowerAsciiInto(tok.text, &lower);
      ++word_counts[lower];
      for (size_t len = 2; len <= 4 && len < lower.size(); ++len) {
        suffix.assign("##");
        suffix.append(lower, lower.size() - len, len);
        ++suffix_counts[suffix];
      }
    }
  }
  SubwordTokenizer st;
  // Single characters guarantee total coverage of printable ASCII.
  for (int c = 33; c < 127; ++c) {
    st.vocab_.Add(std::string(1, static_cast<char>(c)));
    st.vocab_.Add("##" + std::string(1, static_cast<char>(c)));
  }
  for (const auto& [suffix, count] : suffix_counts) {
    if (count >= min_word_count * 4) st.vocab_.Add(suffix);
  }
  for (const auto& [word, count] : word_counts) {
    if (count >= min_word_count) st.vocab_.Add(word);
  }
  return st;
}

SubwordSplit SubwordTokenizer::Split(const std::string& word) const {
  SubwordSplit split;
  std::string lower;
  ToLowerAsciiInto(word, &lower);
  if (lower.empty()) {
    split.piece_ids.push_back(Vocabulary::kUnkId);
    return split;
  }
  // One piece buffer for the whole greedy scan: assign/append reuse its
  // capacity and each candidate length costs one allocation-free probe.
  std::string piece;
  size_t pos = 0;
  while (pos < lower.size()) {
    // Greedy longest match; continuation pieces carry the "##" prefix.
    size_t best_len = 0;
    int best_id = Vocabulary::kUnkId;
    const std::string_view prefix = pos == 0 ? "" : "##";
    for (size_t len = lower.size() - pos; len >= 1; --len) {
      piece.assign(prefix);
      piece.append(lower, pos, len);
      const int id = vocab_.Find(piece);
      if (id != Vocabulary::kAbsent) {
        best_len = len;
        best_id = id;
        break;
      }
    }
    if (best_len == 0) {
      // Non-ASCII or unseen char: emit <unk> for a single char.
      best_len = 1;
      best_id = Vocabulary::kUnkId;
    }
    split.piece_ids.push_back(best_id);
    pos += best_len;
  }
  return split;
}

Result<SubwordTokenizer> SubwordTokenizer::Deserialize(const std::string& data) {
  SubwordTokenizer st;
  EMD_ASSIGN_OR_RETURN(st.vocab_, Vocabulary::Deserialize(data));
  return st;
}

}  // namespace emd
