// SyntacticEmbedder — the 6-dimensional local candidate embedding used with
// non-deep Local EMD systems (§V-B.1, following TwiCS). Each mention of a
// candidate is classified into one of six capitalization categories; pooling
// the one-hot vectors across mentions yields the candidate's global syntactic
// distribution.

#ifndef EMD_CORE_SYNTACTIC_EMBEDDER_H_
#define EMD_CORE_SYNTACTIC_EMBEDDER_H_

#include <span>
#include <vector>

#include "text/token.h"

namespace emd {

/// The six syntactic categories of §V-B.1.
enum class SyntacticCategory : int {
  kProperCapitalization = 0,   // every candidate token capitalized
  kStartOfSentenceCap = 1,     // unigram, capitalized only because at start
  kSubstringCapitalization = 2,  // proper substring of multigram capitalized
  kFullCapitalization = 3,     // ALL CAPS ("UN", "CORONAVIRUS")
  kNoCapitalization = 4,       // all lowercase
  kNonDiscriminative = 5,      // sentence casing carries no information
};

constexpr int kNumSyntacticCategories = 6;

/// Classifies one mention (span within its sentence) into a category.
SyntacticCategory ClassifyMentionSyntax(const std::vector<Token>& tokens,
                                        const TokenSpan& span);

/// Writes the mention category's one-hot embedding to `out` (all 6 floats).
void SyntacticEmbedding(const std::vector<Token>& tokens, const TokenSpan& span,
                        std::span<float> out);

}  // namespace emd

#endif  // EMD_CORE_SYNTACTIC_EMBEDDER_H_
