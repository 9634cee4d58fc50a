#include "nn/attention.h"

#include <cmath>

#include "nn/kernels/kernels.h"

namespace emd {

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng,
                                               std::string name)
    : d_model_(d_model),
      num_heads_(num_heads),
      d_head_(d_model / num_heads),
      wq_(d_model, d_model, rng, name + ".wq"),
      wk_(d_model, d_model, rng, name + ".wk"),
      wv_(d_model, d_model, rng, name + ".wv"),
      wo_(d_model, d_model, rng, name + ".wo") {
  EMD_CHECK_EQ(d_head_ * num_heads, d_model);
}

Mat MultiHeadSelfAttention::Forward(const Mat& x) {
  EMD_CHECK_EQ(x.cols(), d_model_);
  const int T = x.rows();
  wq_.ForwardInto(x, &q_);
  wk_.ForwardInto(x, &k_);
  wv_.ForwardInto(x, &v_);
  if (static_cast<int>(attn_.size()) != num_heads_) attn_.resize(num_heads_);
  context_.Resize(T, d_model_);
  const kernels::KernelBackend& kern = kernels::Kernels();
  const float scale = 1.f / std::sqrt(static_cast<float>(d_head_));
  for (int h = 0; h < num_heads_ && T > 0; ++h) {
    const int off = h * d_head_;
    attn_[h].Resize(T, T);  // the softmax weights Backward reads
    kern.attend_head(q_.data() + off, k_.data() + off, v_.data() + off,
                     d_model_, T, d_head_, scale, attn_[h].data(),
                     context_.data() + off);
  }
  return wo_.Forward(context_);
}

void MultiHeadSelfAttention::ApplyBatched(const Mat& x, const RaggedPack& pack,
                                          ForwardArena* arena, int slot_base,
                                          Mat* out) const {
  EMD_CHECK_EQ(x.cols(), d_model_);
  EMD_CHECK_EQ(x.rows(), pack.total_rows());
  Mat* q = arena->mat(slot_base + 0);
  Mat* k = arena->mat(slot_base + 1);
  Mat* v = arena->mat(slot_base + 2);
  Mat* scores = arena->mat(slot_base + 3);
  Mat* context = arena->mat(slot_base + 4);
  QuantizedLinear::Scratch* qs = arena->qscratch(slot_base);
  // One fused projection per matrix over every packed row.
  wq_.ApplyAuto(x, qs, q);
  wk_.ApplyAuto(x, qs, k);
  wv_.ApplyAuto(x, qs, v);
  context->Resize(x.rows(), d_model_);
  const kernels::KernelBackend& kern = kernels::Kernels();
  const float scale = 1.f / std::sqrt(static_cast<float>(d_head_));
  for (int s = 0; s < pack.num_seqs(); ++s) {
    const int b = pack.begin(s);
    const int T = pack.len(s);
    if (T == 0) continue;
    scores->Resize(T, T);
    for (int h = 0; h < num_heads_; ++h) {
      const int off = h * d_head_;
      kern.attend_head(q->row(b) + off, k->row(b) + off, v->row(b) + off,
                       d_model_, T, d_head_, scale, scores->data(),
                       context->row(b) + off);
    }
  }
  wo_.ApplyAuto(*context, qs, out);
}

void MultiHeadSelfAttention::PrepareQuantized() {
  wq_.PrepareQuantized();
  wk_.PrepareQuantized();
  wv_.PrepareQuantized();
  wo_.PrepareQuantized();
}

Mat MultiHeadSelfAttention::Backward(const Mat& dy) {
  const int T = dy.rows();
  EMD_CHECK_EQ(dy.cols(), d_model_);
  Mat dcontext = wo_.Backward(dy);  // [T, d_model]
  Mat dq(T, d_model_), dk(T, d_model_), dv(T, d_model_);
  const float scale = 1.f / std::sqrt(static_cast<float>(d_head_));
  for (int h = 0; h < num_heads_; ++h) {
    const int off = h * d_head_;
    Mat kh = SliceCols(k_, off, off + d_head_);
    Mat vh = SliceCols(v_, off, off + d_head_);
    Mat qh = SliceCols(q_, off, off + d_head_);
    Mat dctx = SliceCols(dcontext, off, off + d_head_);  // [T, d_head]
    const Mat& a = attn_[h];                             // [T, T]
    // ctx = A V  =>  dA = dctx V^T ; dV = A^T dctx.
    Mat da = MatMulBT(dctx, vh);       // [T, T]
    Mat dvh = MatMulAT(a, dctx);       // [T, d_head]
    // Softmax backward per row: ds = a .* (da - sum(da .* a)).
    Mat dscores(T, T);
    for (int r = 0; r < T; ++r) {
      const float* arow = a.row(r);
      const float* darow = da.row(r);
      double dot = 0;
      for (int c = 0; c < T; ++c) dot += double(darow[c]) * arow[c];
      float* dsrow = dscores.row(r);
      for (int c = 0; c < T; ++c) {
        dsrow[c] = arow[c] * (darow[c] - static_cast<float>(dot));
      }
    }
    dscores.Scale(scale);
    // scores = Q K^T  =>  dQ = dscores K ; dK = dscores^T Q.
    Mat dqh = MatMul(dscores, kh);
    Mat dkh = MatMulAT(dscores, qh);
    for (int r = 0; r < T; ++r) {
      for (int j = 0; j < d_head_; ++j) {
        dq(r, off + j) = dqh(r, j);
        dk(r, off + j) = dkh(r, j);
        dv(r, off + j) = dvh(r, j);
      }
    }
  }
  Mat dx = wq_.Backward(dq);
  dx.Add(wk_.Backward(dk));
  dx.Add(wv_.Backward(dv));
  return dx;
}

void MultiHeadSelfAttention::CollectParams(ParamSet* params) {
  wq_.CollectParams(params);
  wk_.CollectParams(params);
  wv_.CollectParams(params);
  wo_.CollectParams(params);
}

}  // namespace emd
