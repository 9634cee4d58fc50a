// PhraseEmbedder — the Entity Phrase Embedder of §V-B.2.
//
// Converts a candidate mention's token-level contextual embeddings (from the
// deep Local EMD system) into a single fixed-size local candidate embedding:
//
//   pooled_emb = mean over candidate tokens of token_emb        (Eq. 1)
//   local_emb  = pooled_emb * W_ff + b_ff                       (Eq. 2)
//
// W_ff/b_ff are trained in a modified-SBERT siamese setup on a sentence
// similarity task (cosine-similarity regression, MSE loss): the deep EMD
// network's weights stay frozen — its job is local EMD, for which it was
// already optimized — and only the dense layer learns.

#ifndef EMD_CORE_PHRASE_EMBEDDER_H_
#define EMD_CORE_PHRASE_EMBEDDER_H_

#include <span>
#include <string>

#include "emd/local_emd_system.h"
#include "nn/matrix.h"
#include "nn/planner.h"
#include "nn/qlinear.h"
#include "stream/sts_generator.h"
#include "util/status.h"

namespace emd {

struct PhraseEmbedderTrainOptions {
  // Paper §VI: Adam, fixed lr 0.001, batch size 32, early stop after 25
  // epochs without validation improvement.
  float learning_rate = 1e-3f;
  int batch_size = 32;
  int max_epochs = 120;
  int early_stop_patience = 25;
  uint64_t seed = 41;
};

/// Training outcome: best validation MSE (paper: 0.185 with Aguilar
/// embeddings, 0.167 with BERTweet) and epochs used.
struct PhraseEmbedderTrainReport {
  double best_validation_loss = 0;
  int epochs_run = 0;
};

class PhraseEmbedder {
 public:
  /// `in_dim` is the deep system's token embedding size; `out_dim` the
  /// candidate embedding size (100 for Aguilar, 300 for BERTweet in §VI).
  PhraseEmbedder(int in_dim, int out_dim, uint64_t seed = 43);

  /// Local candidate embedding for the tokens of `span` given the sentence's
  /// token embeddings [T, in_dim]. Returns [1, out_dim]. A one-span
  /// TryEmbedSpans; fatal when that fails.
  Mat Embed(const Mat& token_embeddings, const TokenSpan& span) const;

  /// The inference path: embeds every span of one sentence in one call.
  /// Evaluates the "core.phrase_embedder.embed" failpoint once, returns
  /// kInvalidArgument on a width mismatch (token_embeddings.cols() !=
  /// in_dim()) or on any empty or out-of-range span, else pools each span
  /// into a row of an `arena` matrix (Eq. 1) and runs one dense-layer GEMM
  /// (Eq. 2; fp32, or int8 once quantized) into `*out`, resized to
  /// [spans.size(), out_dim] (must not alias the inputs). Row i is computed
  /// from spans[i] alone, so it is bit-identical to a one-span call.
  Status TryEmbedSpans(const Mat& token_embeddings,
                       std::span<const TokenSpan> spans, ForwardArena* arena,
                       Mat* out) const;

  /// Embeds a whole sentence (the siamese sub-network's forward pass).
  Mat EmbedAll(const Mat& token_embeddings) const;

  /// Packs an int8 copy of W_ff/b_ff; afterwards Embed/TryEmbedSpans run
  /// the dense layer through the quantized backend. Called automatically
  /// by Train()/Load() when kernels::Int8Enabled().
  void PrepareQuantizedInference();
  bool quantized() const { return q_.packed(); }

  /// Trains W_ff/b_ff on the STS task using `system` (frozen) to produce
  /// token embeddings for each pair sentence.
  PhraseEmbedderTrainReport Train(LocalEmdSystem* system, const StsData& sts,
                                  const PhraseEmbedderTrainOptions& options = {});

  /// Mean validation MSE of cosine-vs-gold over a pair set.
  double Evaluate(LocalEmdSystem* system, const std::vector<StsPair>& pairs) const;

  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  /// Arena slot of the pooled rows and the int8 activation scratch (clear
  /// of the MiniBertweet planner range 0..16 and the classifier's 26..28,
  /// so one lane arena serves every stage warm).
  static constexpr int kArenaSlot = 24;

  Mat w_;  // [in_dim, out_dim]
  Mat b_;  // [1, out_dim]
  QuantizedLinear q_;
};

}  // namespace emd

#endif  // EMD_CORE_PHRASE_EMBEDDER_H_
