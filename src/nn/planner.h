// Forward-pass planner primitives: the ragged-batch offsets table and the
// reusable scratch arena behind token-batched inference.
//
// The planner's contract: token rows from MANY sequences (the tweets of one
// ProcessBatch slot) are packed contiguously into single large matrices, so
// every shared-shape layer (embedding add, QKV/FF projections, layer norm,
// activations) runs as ONE kernel call over all rows, while row-structured
// ops (attention, per-sequence gathers) walk the RaggedPack offsets. Because
// every fp32 GEMM backend computes each output row as an ascending-k chain
// that depends only on that row of A and all of B, a packed call is
// bit-identical per row to the per-sequence calls it replaces — batching is
// a pure scheduling change, invisible in the output at any thread count.
// The int8 path keeps the contract: activations are quantized per row.
//
// For the same reason a packed call may compute a subset of rows: a layer
// given some rows of each sequence (gathered, with their own RaggedPack)
// writes exactly those rows of the full call. Attention still reads every
// row's keys and values, since scores and softmax are per query row. So a
// model whose head reads only some rows runs its last layer over those rows
// alone (see TransformerEncoderLayer::ApplyBatched).
//
// ForwardArena owns every intermediate buffer, keyed by small integer slots
// (each model reserves its own slot range). Buffers are resized per batch
// but never shrink their capacity, so the steady state allocates nothing.

#ifndef EMD_NN_PLANNER_H_
#define EMD_NN_PLANNER_H_

#include <deque>
#include <vector>

#include "nn/matrix.h"
#include "nn/qlinear.h"

namespace emd {

/// Offsets table for rows of ragged sequences packed into one matrix:
/// sequence s owns packed rows [offsets[s], offsets[s+1]). Zero-length
/// sequences are legal (empty row range).
struct RaggedPack {
  std::vector<int> offsets;

  void Clear() {
    offsets.resize(1);
    offsets[0] = 0;
  }
  void Add(int len) { offsets.push_back(offsets.back() + len); }
  int num_seqs() const {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }
  int total_rows() const { return offsets.empty() ? 0 : offsets.back(); }
  int begin(int s) const { return offsets[s]; }
  int end(int s) const { return offsets[s + 1]; }
  int len(int s) const { return offsets[s + 1] - offsets[s]; }
};

/// Slot-indexed reusable scratch. One arena per worker lane; deques keep
/// returned pointers stable while other slots grow.
class ForwardArena {
 public:
  Mat* mat(int slot);
  std::vector<int>* ints(int slot);
  std::vector<float>* floats(int slot);
  RaggedPack* pack(int slot);
  QuantizedLinear::Scratch* qscratch(int slot);

 private:
  std::deque<Mat> mats_;
  std::deque<std::vector<int>> ints_;
  std::deque<std::vector<float>> floats_;
  std::deque<RaggedPack> packs_;
  std::deque<QuantizedLinear::Scratch> qscratches_;
};

/// out = the listed rows of src, in order. out resized to
/// [rows.size(), src.cols()]; must not alias src.
void GatherRowsInto(const Mat& src, const std::vector<int>& rows, Mat* out);

}  // namespace emd

#endif  // EMD_NN_PLANNER_H_
