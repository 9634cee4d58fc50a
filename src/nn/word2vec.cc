#include "nn/word2vec.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "nn/activations.h"
#include "util/logging.h"

namespace emd {

SkipGram::SkipGram(SkipGramOptions options) : options_(options) {}

void SkipGram::Train(const std::vector<std::vector<std::string>>& sentences,
                     int min_count) {
  std::unordered_map<std::string, int> counts;
  long total_tokens = 0;
  for (const auto& sent : sentences) {
    for (const auto& w : sent) {
      ++counts[w];
      ++total_tokens;
    }
  }
  vocab_ = Vocabulary::FromCounts(counts, min_count);

  // Negative-sampling distribution: count^0.75 (word2vec's choice); reserved
  // rows get zero weight. Subsampling keep-probabilities per Mikolov et al.
  unigram_weights_.assign(vocab_.size(), 0.0);
  keep_probs_.assign(vocab_.size(), 1.0);
  for (int id = 2; id < vocab_.size(); ++id) {
    const double count = counts[std::string(vocab_.Token(id))];
    unigram_weights_[id] = std::pow(count, 0.75);
    const double freq = count / std::max<double>(1, total_tokens);
    keep_probs_[id] =
        freq > options_.subsample
            ? std::sqrt(options_.subsample / freq) + options_.subsample / freq
            : 1.0;
  }

  Rng rng(options_.seed);
  in_ = Mat(vocab_.size(), options_.dim);
  out_ = Mat(vocab_.size(), options_.dim);
  in_.InitGaussian(&rng, 0.5f / options_.dim);

  const float lr = options_.learning_rate;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    for (const auto& sent : sentences) {
      // Subsampled, vocab-mapped sentence.
      std::vector<int> ids;
      for (const auto& w : sent) {
        const int id = vocab_.Id(w);
        if (id <= Vocabulary::kUnkId) continue;
        if (rng.NextDouble() < keep_probs_[id]) ids.push_back(id);
      }
      for (size_t center = 0; center < ids.size(); ++center) {
        const int window = 1 + static_cast<int>(rng.NextU64(options_.window));
        for (int off = -window; off <= window; ++off) {
          if (off == 0) continue;
          const long ctx = static_cast<long>(center) + off;
          if (ctx < 0 || ctx >= static_cast<long>(ids.size())) continue;
          const int wi = ids[center];
          float* vin = in_.row(wi);
          // One positive plus k negative updates (SGNS).
          for (int k = 0; k <= options_.negatives; ++k) {
            int target;
            float label;
            if (k == 0) {
              target = ids[ctx];
              label = 1.f;
            } else {
              target = static_cast<int>(rng.NextWeighted(unigram_weights_));
              if (target == ids[ctx]) continue;
              label = 0.f;
            }
            float* vout = out_.row(target);
            float dot = 0;
            for (int j = 0; j < options_.dim; ++j) dot += vin[j] * vout[j];
            const float g = lr * (label - SigmoidScalar(dot));
            for (int j = 0; j < options_.dim; ++j) {
              const float vi = vin[j];
              vin[j] += g * vout[j];
              vout[j] += g * vi;
            }
          }
        }
      }
    }
  }
  trained_ = true;
}

Mat SkipGram::Embed(const std::string& word) const {
  EMD_CHECK(trained_);
  Mat e(1, options_.dim);
  const int id = vocab_.Id(word);
  e.SetRow(0, in_.row(id));
  return e;
}

float SkipGram::Similarity(const std::string& a, const std::string& b) const {
  return CosineSimilarity(Embed(a), Embed(b));
}

int SkipGram::InitializeTable(const Vocabulary& dest_vocab, Mat* dest_table) const {
  EMD_CHECK(trained_);
  EMD_CHECK(dest_table != nullptr);
  EMD_CHECK_EQ(dest_table->rows(), dest_vocab.size());
  EMD_CHECK_EQ(dest_table->cols(), options_.dim);
  int initialized = 0;
  for (int id = 2; id < dest_vocab.size(); ++id) {
    const int src = vocab_.Id(dest_vocab.Token(id));
    if (src <= Vocabulary::kUnkId) continue;
    dest_table->SetRow(id, in_.row(src));
    ++initialized;
  }
  return initialized;
}

}  // namespace emd
