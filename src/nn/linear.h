// Linear (fully connected) layer: y = x W + b, applied row-wise.
//
// Layers in this substrate are stateful across one forward/backward pair:
// Forward caches its input, Backward consumes the cache and accumulates
// parameter gradients. A layer instance therefore serves one sequence at a
// time (our training loops are per-sentence).

#ifndef EMD_NN_LINEAR_H_
#define EMD_NN_LINEAR_H_

#include <string>

#include "nn/matrix.h"
#include "nn/params.h"
#include "nn/qlinear.h"
#include "util/rng.h"

namespace emd {

/// y = x W + b. x: [T, in], W: [in, out], b: [1, out], y: [T, out].
class Linear {
 public:
  Linear(int in_dim, int out_dim, Rng* rng, std::string name = "linear");

  /// Forward pass; caches x for Backward.
  Mat Forward(const Mat& x);

  /// Allocation-free forward: writes y into `out` (resized, prior contents
  /// discarded, must not alias x). Hot inference paths call this with a
  /// long-lived buffer so per-tweet forward passes stop churning the heap.
  void ForwardInto(const Mat& x, Mat* out);

  /// Inference-only forward: like ForwardInto but does NOT cache x, so it is
  /// const and safe to call concurrently from many workers sharing one
  /// trained layer. Backward must not follow an Apply. With `relu` the
  /// output is max(x W + b, 0), applied as the GEMM stores it.
  void Apply(const Mat& x, Mat* out, bool relu = false) const;

  /// Packs an int8 copy of the current weights (nn/qlinear) for quantized
  /// inference. Idempotent; re-call after further training to refresh the
  /// pack. Training, serialization and the fp32 paths are unaffected.
  void PrepareQuantized();
  bool quantized() const { return q_.packed(); }
  const QuantizedLinear& quant() const { return q_; }

  /// Apply through the int8 pack when one was prepared, else fp32 Apply.
  /// `qs` may be nullptr when !quantized().
  void ApplyAuto(const Mat& x, QuantizedLinear::Scratch* qs, Mat* out,
                 bool relu = false) const;

  /// Given dL/dy, accumulates dL/dW and dL/db; returns dL/dx.
  Mat Backward(const Mat& dy);

  /// Registers W and b.
  void CollectParams(ParamSet* params);

  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }

  Mat& weight() { return w_; }
  Mat& bias() { return b_; }
  const Mat& weight() const { return w_; }
  const Mat& bias() const { return b_; }

 private:
  std::string name_;
  Mat w_, b_;
  Mat dw_, db_;
  Mat x_cache_;
  QuantizedLinear q_;
};

}  // namespace emd

#endif  // EMD_NN_LINEAR_H_
