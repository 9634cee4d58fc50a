// PosTagger: averaged-perceptron part-of-speech tagger for tweets — the
// stand-in for TweeboParser (Kong et al. 2014). Trained on the generator's
// silver tags over the training corpus; consumed by the NP Chunker and the
// TwitterNLP-style CRF as a feature source.
//
// Weights live in one flat table, one padded row per feature id. An
// interned key index sits in front of it: each folded word, shape and
// suffix maps to its ids under the w= / prev_w= / next_w=, shape=, suf2=
// and suf3= templates; cap=, start=, prev_tag= and bias have fixed id
// slots. Tagging folds each token once and looks each word up once; no
// feature string is built.

#ifndef EMD_EMD_POS_TAGGER_H_
#define EMD_EMD_POS_TAGGER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/annotated_tweet.h"
#include "text/pos_tags.h"
#include "text/token.h"
#include "util/intern_index.h"
#include "util/result.h"
#include "util/status.h"

namespace emd {

struct PosTaggerTrainOptions {
  int epochs = 5;
  uint64_t seed = 3;
};

/// Greedy left-to-right averaged perceptron with lexical/orthographic/context
/// features.
class PosTagger {
 public:
  PosTagger() { prev_tag_.fill(kNoFeature); }

  /// Trains on `corpus` (uses tweet.silver_pos as gold).
  void Train(const Dataset& corpus, const PosTaggerTrainOptions& options = {});

  /// Tags a tokenized sentence. Reads only the immutable index and keeps its
  /// scratch in the call, so several threads may tag at once.
  std::vector<PosTag> Tag(const std::vector<Token>& tokens) const;

  /// Fraction of correctly tagged tokens on a labelled dataset.
  double Accuracy(const Dataset& corpus) const;

  /// Serialization of the averaged weights: a feature count line, then one
  /// "<feature> <w_0> ... <w_12>" line per feature.
  Status Save(const std::string& path) const;
  /// Corruption for an unparsable header, a count the file cannot hold, a
  /// short or unparsable weight line, an unknown or repeated feature, or
  /// trailing data; the tagger is unchanged on any error.
  Status Load(const std::string& path);

  bool trained() const { return !weights_.empty(); }

 private:
  static constexpr int32_t kNoFeature = -1;
  // w, shape, suf2, suf3, cap, start, prev_tag, prev_w, next_w, bias.
  static constexpr int kMaxFeatures = 10;
  static constexpr int kRowStride = 16;

  // Ids of one interned key under each string template; kNoFeature where
  // that feature never got a weight. Words, shapes and suffixes share one
  // key index, each template its own field.
  struct KeyFeatures {
    int32_t w = kNoFeature;
    int32_t prev_w = kNoFeature;
    int32_t next_w = kNoFeature;
    int32_t shape = kNoFeature;
    int32_t suf2 = kNoFeature;
    int32_t suf3 = kNoFeature;
    bool operator==(const KeyFeatures&) const = default;
  };

  /// The greedy decode Tag and Train share: fills `tags` and calls
  /// `predict(t, slots, n)` for each token no kind forces, with its n
  /// feature-id slots in template order; its result is the context tag for
  /// the next token. `Self` is `const PosTagger` (lookups only) or
  /// `PosTagger` (keys interned on the way, their ids still kNoFeature).
  template <typename Self, typename PredictFn>
  static void Decode(Self& self, const std::vector<Token>& tokens,
                     std::vector<PosTag>* tags, PredictFn&& predict);

  /// Argmax of the summed weight rows of the slots' ids, added in slot order
  /// from zero.
  int Predict(const int32_t* const* slots, int n) const;

  /// Key index of `key`, appending it (with no ids) when absent.
  int32_t InternKey(std::string_view key);

  /// Slot of the feature named `name` as Save writes it (interned), or
  /// nullptr for a name no template produces.
  int32_t* SlotOf(std::string_view name);

  int num_features() const { return static_cast<int>(weights_.size() / kRowStride); }

  InternIndex keys_;
  std::vector<KeyFeatures> key_features_;  // by key index
  std::array<int32_t, 2> cap_{kNoFeature, kNoFeature};    // [first char upper]
  std::array<int32_t, 2> start_{kNoFeature, kNoFeature};  // [t == 0]
  std::array<int32_t, kNumPosTags> prev_tag_;
  int32_t bias_ = kNoFeature;
  // weights_[id * kRowStride + tag]; the lanes past kNumPosTags stay zero,
  // so a row is whole vector registers.
  std::vector<float> weights_;
};

}  // namespace emd

#endif  // EMD_EMD_POS_TAGGER_H_
