#include "core/syntactic_embedder.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace emd {
namespace {

/// True when the sentence's own casing makes capitalization uninformative:
/// all word tokens uppercase, all lowercase, or title case throughout.
bool SentenceNonDiscriminative(const std::vector<Token>& tokens) {
  int words = 0, caps = 0, uppers = 0, lowers = 0;
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kWord || !HasAlpha(t.text)) continue;
    ++words;
    if (IsAllUpper(t.text)) ++uppers;
    if (IsAllLower(t.text)) ++lowers;
    if (!t.text.empty() && IsUpperAscii(t.text[0])) ++caps;
  }
  if (words == 0) return true;
  if (uppers == words || lowers == words || caps == words) return true;
  return false;
}

bool TokenCapitalized(const Token& t) {
  return !t.text.empty() && IsUpperAscii(t.text[0]);
}

}  // namespace

SyntacticCategory ClassifyMentionSyntax(const std::vector<Token>& tokens,
                                        const TokenSpan& span) {
  EMD_CHECK_LT(span.begin, span.end);
  EMD_CHECK_LE(span.end, tokens.size());
  if (SentenceNonDiscriminative(tokens)) {
    return SyntacticCategory::kNonDiscriminative;
  }
  const size_t n = span.length();
  int caps = 0, full_caps = 0, alpha_tokens = 0;
  for (size_t t = span.begin; t < span.end; ++t) {
    if (!HasAlpha(tokens[t].text)) continue;
    ++alpha_tokens;
    if (TokenCapitalized(tokens[t])) ++caps;
    if (IsAllUpper(tokens[t].text)) ++full_caps;
  }
  if (alpha_tokens == 0) return SyntacticCategory::kNoCapitalization;
  if (full_caps == alpha_tokens) return SyntacticCategory::kFullCapitalization;
  if (caps == alpha_tokens) {
    // Unigram capitalized only by virtue of opening the sentence.
    if (n == 1 && span.begin == 0) return SyntacticCategory::kStartOfSentenceCap;
    return SyntacticCategory::kProperCapitalization;
  }
  if (caps > 0) return SyntacticCategory::kSubstringCapitalization;
  return SyntacticCategory::kNoCapitalization;
}

void SyntacticEmbedding(const std::vector<Token>& tokens, const TokenSpan& span,
                        std::span<float> out) {
  EMD_CHECK_EQ(out.size(), static_cast<size_t>(kNumSyntacticCategories));
  for (float& v : out) v = 0.f;
  out[static_cast<size_t>(ClassifyMentionSyntax(tokens, span))] = 1.f;
}

}  // namespace emd
