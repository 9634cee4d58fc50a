// TransformerEncoderLayer: MHSA + residual + LayerNorm, FFN + residual +
// LayerNorm (post-norm, as in the original BERT).

#ifndef EMD_NN_TRANSFORMER_H_
#define EMD_NN_TRANSFORMER_H_

#include <string>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/dropout.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/matrix.h"
#include "nn/params.h"
#include "util/rng.h"

namespace emd {

/// One encoder block of the MiniBertweet model.
class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer(int d_model, int num_heads, int d_ff, float dropout,
                          Rng* rng, std::string name = "enc");

  /// x: [T, d_model] -> [T, d_model]. `training` gates dropout.
  Mat Forward(const Mat& x, bool training, Rng* rng);
  Mat Backward(const Mat& dy);
  void CollectParams(ParamSet* params);

  /// Arena slots ApplyBatched consumes starting at its slot_base.
  static constexpr int kArenaSlots = 6 + MultiHeadSelfAttention::kArenaSlots;

  /// Inference-only planner forward over packed sequences: the FFN and
  /// residual/norm chain run fused over the query rows, attention per
  /// sequence (see MultiHeadSelfAttention::ApplyBatched for `queries` and
  /// `query_pack`; pass x and pack again to compute every row). Dropout is
  /// inference-mode (identity). Writes [query_pack.total_rows(), d_model]
  /// into out, which must not alias x or queries. Const.
  void ApplyBatched(const Mat& x, const RaggedPack& pack, const Mat& queries,
                    const RaggedPack& query_pack, ForwardArena* arena,
                    int slot_base, Mat* out) const;

  /// Packs int8 copies of the attention projections and the FFN weights.
  void PrepareQuantized();

 private:
  MultiHeadSelfAttention mhsa_;
  Dropout drop1_;
  LayerNorm ln1_;
  Linear ff1_;
  ReluLayer relu_;
  Linear ff2_;
  Dropout drop2_;
  LayerNorm ln2_;
};

}  // namespace emd

#endif  // EMD_NN_TRANSFORMER_H_
