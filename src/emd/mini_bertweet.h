// MiniBertweetSystem: pre-trained-LM-style deep local EMD (instantiation 4,
// §IV-A) — the stand-in for BERTweet fine-tuned for EMD.
//
// A small Transformer encoder over subword pieces (SubwordTokenizer plays
// fastBPE) with learned positional embeddings. Fine-tuning mirrors the
// paper's recipe: a feed-forward layer plus a softmax prediction layer on
// top of the last encoder output, labeling each word by its first subword.
// The FFNN activations are the token-level "entity-aware embeddings" handed
// to Global EMD.

#ifndef EMD_EMD_MINI_BERTWEET_H_
#define EMD_EMD_MINI_BERTWEET_H_

#include <memory>
#include <string>
#include <vector>

#include "text/bio.h"
#include "emd/local_emd_system.h"
#include "emd/subword.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "stream/annotated_tweet.h"
#include "util/status.h"

namespace emd {

struct MiniBertweetOptions {
  int d_model = 64;
  int num_heads = 4;
  int d_ff = 128;
  int num_layers = 2;
  int max_positions = 96;
  float dropout = 0.1f;
  int min_word_count = 3;
  uint64_t seed = 31;
};

struct MiniBertweetTrainOptions {
  int epochs = 6;
  float learning_rate = 7e-4f;
  float clip_norm = 5.f;
  uint64_t seed = 37;
};

class MiniBertweetSystem : public LocalEmdSystem {
 public:
  explicit MiniBertweetSystem(MiniBertweetOptions options = {});

  void Train(const Dataset& corpus, const MiniBertweetTrainOptions& options = {});

  std::string name() const override { return "BERTweet"; }
  const char* process_failpoint() const override { return "emd.mini_bertweet.process"; }
  bool is_deep() const override { return true; }
  int embedding_dim() const override { return options_.d_model; }
  LocalEmdResult Process(const std::vector<Token>& tokens) override;

  /// Forward-pass planner entry: packs the subword rows of every tweet into
  /// one ragged batch and runs the encoder with fused cross-tweet GEMMs
  /// (attention per tweet). The last encoder layer computes only the
  /// first-piece rows the word head reads. Entry i is bit-identical in fp32
  /// to Process(*tweets[i]); after PrepareQuantizedInference the projections
  /// and FFNN run int8.
  bool batch_capable() const override { return trained_; }
  void ProcessBatched(const std::vector<const std::vector<Token>*>& tweets,
                      ForwardArena* arena,
                      std::vector<LocalEmdResult>* results) override;

  /// Packs int8 copies of every GEMM weight for the quantized inference
  /// backend. Called automatically by Train()/Load() when
  /// kernels::Int8Enabled(); callable directly by benches/tests.
  void PrepareQuantizedInference();

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);
  bool trained() const { return trained_; }

 private:
  void BuildModel();

  /// Segments a sentence: appends its piece ids to `piece_ids` and, per
  /// word, the index in `piece_ids` of the word's first piece. Sequences
  /// longer than max_positions truncate, and a word past the cut maps to the
  /// last kept piece.
  void SegmentInto(const std::vector<Token>& tokens,
                   SubwordTokenizer::Scratch* scratch,
                   std::vector<int>* piece_ids,
                   std::vector<int>* first_piece) const;

  /// Runs the encoder + FFNN; returns per-word entity-aware embeddings
  /// [num_words, d_model]. Caches for Backward.
  Mat ForwardWords(const std::vector<Token>& tokens, bool training);

  /// Backprop from d(per-word FFNN activations).
  void BackwardWords(const Mat& dwords);

  MiniBertweetOptions options_;
  bool trained_ = false;
  Rng model_rng_{31};

  SubwordTokenizer subword_;
  std::unique_ptr<Embedding> piece_emb_;
  std::unique_ptr<Embedding> pos_emb_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  std::unique_ptr<Linear> ffnn_;
  ReluLayer ffnn_relu_;
  std::unique_ptr<Linear> out_;

  // Forward caches.
  std::vector<int> first_piece_cache_;
  int num_pieces_cache_ = 0;
};

}  // namespace emd

#endif  // EMD_EMD_MINI_BERTWEET_H_
