// Multi-head scaled-dot-product self-attention with explicit backprop —
// the core of the MiniBertweet encoder that stands in for BERTweet.

#ifndef EMD_NN_ATTENTION_H_
#define EMD_NN_ATTENTION_H_

#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/matrix.h"
#include "nn/params.h"
#include "nn/planner.h"
#include "util/rng.h"

namespace emd {

/// Self-attention over a [T, d_model] sequence with `num_heads` heads
/// (d_model must be divisible by num_heads). Output is [T, d_model].
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng,
                         std::string name = "mhsa");

  Mat Forward(const Mat& x);
  Mat Backward(const Mat& dy);
  void CollectParams(ParamSet* params);

  /// Arena slots ApplyBatched consumes starting at its slot_base.
  static constexpr int kArenaSlots = 5;

  /// Inference-only planner forward: `x` holds the packed token rows of many
  /// sequences ([pack.total_rows(), d_model]) and `queries` the rows to
  /// compute, packed by `query_pack`: sequence s's queries are copies of some
  /// of its own rows of x, in any order, repeats allowed. Pass x and pack
  /// again to compute every row. K and V run fused over all of x, Q and the
  /// output projection over the queries, and attention walks the offsets
  /// tables, one attend_head kernel call per (sequence, head) reading and
  /// writing the head's columns in place. Writes
  /// [query_pack.total_rows(), d_model] into out. Const — no caches
  /// touched, safe across worker lanes with per-lane arenas. In fp32 each
  /// output row is bit-identical to its row of Forward on the sequence;
  /// after PrepareQuantized the projections run int8.
  void ApplyBatched(const Mat& x, const RaggedPack& pack, const Mat& queries,
                    const RaggedPack& query_pack, ForwardArena* arena,
                    int slot_base, Mat* out) const;

  /// Packs int8 copies of the four projection weights (see nn/qlinear.h).
  void PrepareQuantized();

  int d_model() const { return d_model_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  Linear wq_, wk_, wv_, wo_;
  // Caches for backward.
  Mat q_, k_, v_;                 // [T, d_model] post-projection
  std::vector<Mat> attn_;         // per head: [T, T] softmax weights
  Mat context_;                   // [T, d_model] heads side by side
};

}  // namespace emd

#endif  // EMD_NN_ATTENTION_H_
