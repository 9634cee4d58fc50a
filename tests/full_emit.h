// The outputs step of §V-C as one walk of the whole TweetBase: the reference
// that the table Finalize keeps and updates in place must equal after every
// call.

#ifndef EMD_TESTS_FULL_EMIT_H_
#define EMD_TESTS_FULL_EMIT_H_

#include <gtest/gtest.h>

#include <vector>

#include "core/globalizer.h"

namespace emd {

/// Every stored mention in stored order, each kept when `classify` is off
/// or its candidate's column label is entity or ambiguous.
inline std::vector<std::vector<TokenSpan>> FullReEmit(const Globalizer& g,
                                                      bool classify) {
  const TweetBase& tweets = g.tweet_base();
  const ShardedGlobalState& state = g.global_state();
  std::vector<std::vector<TokenSpan>> out(tweets.size());
  for (size_t i = 0; i < tweets.size(); ++i) {
    for (const RecordedMention& m : tweets.mentions(i)) {
      const CandidateLabel label = state.Label(m.candidate_id);
      if (!classify || label == CandidateLabel::kEntity ||
          label == CandidateLabel::kAmbiguous) {
        out[i].push_back(m.span);
      }
    }
  }
  return out;
}

/// `out`, just returned by g.Finalize(), equals a full re-emit under the
/// rule that call used: classification on in kFull unless it degraded.
inline void ExpectEqualsFullReEmit(const Globalizer& g,
                                   const GlobalizerOptions& opt,
                                   const GlobalizerOutput& out) {
  const bool classify = opt.mode == GlobalizerOptions::Mode::kFull &&
                        !out.classifier_degraded;
  const std::vector<std::vector<TokenSpan>> want = FullReEmit(g, classify);
  ASSERT_EQ(out.mentions.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out.mentions[i], want[i]) << "tweet " << i;
  }
}

}  // namespace emd

#endif  // EMD_TESTS_FULL_EMIT_H_
