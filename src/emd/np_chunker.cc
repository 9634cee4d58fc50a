#include "emd/np_chunker.h"

#include "util/string_util.h"

namespace emd {

NpChunkerSystem::NpChunkerSystem(const PosTagger* tagger, NpChunkerOptions options)
    : tagger_(tagger), options_(options) {
  EMD_CHECK(tagger != nullptr);
}

void NpChunkerSystem::AddLexiconWord(const std::string& lower_word) {
  lexicon_.Intern(lower_word);
}

LocalEmdResult NpChunkerSystem::Process(const std::vector<Token>& tokens) {
  LocalEmdResult result;
  const std::vector<PosTag> tags = tagger_->Tag(tokens);

  // Pass 1: maximal runs of nominal tokens (nouns, proper nouns, and numbers
  // sandwiched inside a run) form raw chunks.
  auto nominal = [&](size_t t) {
    return tags[t] == PosTag::kNoun || tags[t] == PosTag::kPropNoun;
  };
  std::string fold_scratch;
  size_t t = 0;
  while (t < tokens.size()) {
    if (!nominal(t)) {
      ++t;
      continue;
    }
    size_t end = t + 1;
    while (end < tokens.size() &&
           static_cast<int>(end - t) < options_.max_chunk_len &&
           (nominal(end) ||
            (tags[end] == PosTag::kNum && end + 1 < tokens.size() && nominal(end + 1)))) {
      ++end;
    }
    // Allow a trailing number inside product-style names ("Pixelon 5").
    if (end < tokens.size() && tags[end] == PosTag::kNum && end == t + 1 &&
        IsUpperAscii(tokens[t].text.empty() ? 'a' : tokens[t].text[0])) {
      ++end;
    }

    // Pass 2: filter — the chunker projects a chunk as an entity candidate if
    // it is capitalized anywhere (orthographic evidence) or its head word is
    // an out-of-lexicon lowercase word (novel-entity evidence).
    bool any_cap = false;
    bool oov_head = false;
    for (size_t i = t; i < end; ++i) {
      const std::string& text = tokens[i].text;
      if (!text.empty() && IsUpperAscii(text[0])) any_cap = true;
    }
    const std::string_view head = ToLowerAsciiView(tokens[t].text, &fold_scratch);
    if (options_.project_oov_lowercase && !InLexicon(head) && HasAlpha(head)) {
      oov_head = true;
    }
    if (any_cap || oov_head) {
      result.mentions.push_back({t, end});
    }
    t = end;
  }
  return result;
}

}  // namespace emd
