// SubwordTokenizer: greedy longest-match wordpiece segmentation — the
// fastBPE stand-in for MiniBertweet. The vocabulary contains frequent full
// words plus every single character (as both word-initial and "##"
// continuation pieces), so segmentation always succeeds.

#ifndef EMD_EMD_SUBWORD_H_
#define EMD_EMD_SUBWORD_H_

#include <string>
#include <string_view>
#include <vector>

#include "stream/annotated_tweet.h"
#include "text/vocabulary.h"

namespace emd {

class SubwordTokenizer {
 public:
  /// Reusable buffers for SplitInto; one per caller thread.
  struct Scratch {
    std::string lower;
    std::string piece;
  };

  /// Builds the piece vocabulary from a corpus: words with count >=
  /// `min_word_count` become whole pieces; common suffixes (2-4 chars) and
  /// all single characters are added as continuation pieces.
  static SubwordTokenizer Build(const Dataset& corpus, int min_word_count = 3);

  /// Segments one word (case-folded) and appends its piece ids to `out`,
  /// at least one. Greedy longest match: at each position the longest
  /// vocabulary piece wins, and a character no piece covers becomes <unk>.
  /// Allocation-free once `scratch` and `out` have grown.
  void SplitInto(std::string_view word, Scratch* scratch,
                 std::vector<int>* out) const;

  /// SplitInto into a fresh list.
  std::vector<int> Split(std::string_view word) const;

  const Vocabulary& vocab() const { return vocab_; }
  int vocab_size() const { return vocab_.size(); }

  std::string Serialize() const { return vocab_.Serialize(); }
  static Result<SubwordTokenizer> Deserialize(const std::string& data);

 private:
  /// Sets the probe bounds below from the vocabulary.
  void SetProbeBounds();

  Vocabulary vocab_;
  // The longest piece a probe can match: any entry as a word's first piece,
  // a "##" entry without its prefix as a continuation piece. The greedy
  // probe starts there rather than at the rest of the word.
  size_t max_first_len_ = 0;
  size_t max_continuation_len_ = 0;
};

}  // namespace emd

#endif  // EMD_EMD_SUBWORD_H_
