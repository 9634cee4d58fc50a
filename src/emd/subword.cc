#include "emd/subword.h"

#include <algorithm>
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
  st.SetProbeBounds();
  return st;
}

void SubwordTokenizer::SplitInto(std::string_view word, Scratch* scratch,
                                 std::vector<int>* out) const {
  std::string& lower = scratch->lower;
  ToLowerAsciiInto(word, &lower);
  if (lower.empty()) {
    out->push_back(Vocabulary::kUnkId);
    return;
  }
  // Continuation probes are "##" + the candidate; the prefix stays put.
  std::string& piece = scratch->piece;
  piece.assign("##");
  size_t pos = 0;
  while (pos < lower.size()) {
    // Greedy longest match, from the longest piece that could match here.
    size_t best_len = 1;
    int best_id = Vocabulary::kUnkId;
    const size_t bound = pos == 0 ? max_first_len_ : max_continuation_len_;
    for (size_t len = std::min(lower.size() - pos, bound); len >= 1; --len) {
      int id;
      if (pos == 0) {
        id = vocab_.Find(std::string_view(lower).substr(0, len));
      } else {
        piece.resize(2);
        piece.append(lower, pos, len);
        id = vocab_.Find(piece);
      }
      if (id != Vocabulary::kAbsent) {
        best_len = len;
        best_id = id;
        break;
      }
    }
    // No piece: a non-ASCII or unseen char becomes <unk>.
    out->push_back(best_id);
    pos += best_len;
  }
}

std::vector<int> SubwordTokenizer::Split(std::string_view word) const {
  Scratch scratch;
  std::vector<int> ids;
  SplitInto(word, &scratch, &ids);
  return ids;
}

void SubwordTokenizer::SetProbeBounds() {
  max_first_len_ = 0;
  max_continuation_len_ = 0;
  for (int id = 0; id < vocab_.size(); ++id) {
    const std::string_view token = vocab_.Token(id);
    max_first_len_ = std::max(max_first_len_, token.size());
    if (token.starts_with("##")) {
      max_continuation_len_ = std::max(max_continuation_len_, token.size() - 2);
    }
  }
}

Result<SubwordTokenizer> SubwordTokenizer::Deserialize(const std::string& data) {
  SubwordTokenizer st;
  EMD_ASSIGN_OR_RETURN(st.vocab_, Vocabulary::Deserialize(data));
  st.SetProbeBounds();
  return st;
}

}  // namespace emd
