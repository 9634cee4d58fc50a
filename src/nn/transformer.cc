#include "nn/transformer.h"

namespace emd {

TransformerEncoderLayer::TransformerEncoderLayer(int d_model, int num_heads, int d_ff,
                                                 float dropout, Rng* rng,
                                                 std::string name)
    : mhsa_(d_model, num_heads, rng, name + ".mhsa"),
      drop1_(dropout),
      ln1_(d_model, name + ".ln1"),
      ff1_(d_model, d_ff, rng, name + ".ff1"),
      ff2_(d_ff, d_model, rng, name + ".ff2"),
      drop2_(dropout),
      ln2_(d_model, name + ".ln2") {}

Mat TransformerEncoderLayer::Forward(const Mat& x, bool training, Rng* rng) {
  Mat attn = drop1_.Forward(mhsa_.Forward(x), training, rng);
  attn.Add(x);  // residual
  Mat h1 = ln1_.Forward(attn);
  Mat ff = drop2_.Forward(ff2_.Forward(relu_.Forward(ff1_.Forward(h1))), training, rng);
  ff.Add(h1);  // residual
  return ln2_.Forward(ff);
}

void TransformerEncoderLayer::ApplyBatched(const Mat& x,
                                           const RaggedPack& pack,
                                           const Mat& queries,
                                           const RaggedPack& query_pack,
                                           ForwardArena* arena, int slot_base,
                                           Mat* out) const {
  Mat* attn = arena->mat(slot_base + 0);
  Mat* h1 = arena->mat(slot_base + 1);
  Mat* ff_a = arena->mat(slot_base + 2);
  Mat* ff_b = arena->mat(slot_base + 3);
  Mat* ln_xhat = arena->mat(slot_base + 4);
  std::vector<float>* ln_inv_std = arena->floats(slot_base + 4);
  QuantizedLinear::Scratch* qs = arena->qscratch(slot_base + 5);
  const int mhsa_base = slot_base + 6;

  mhsa_.ApplyBatched(x, pack, queries, query_pack, arena, mhsa_base, attn);
  attn->Add(queries);  // residual
  ln1_.Apply(*attn, h1, ln_xhat, ln_inv_std);
  ff1_.ApplyAuto(*h1, qs, ff_a, /*relu=*/true);
  ff2_.ApplyAuto(*ff_a, qs, ff_b);
  ff_b->Add(*h1);  // residual
  ln2_.Apply(*ff_b, out, ln_xhat, ln_inv_std);
}

void TransformerEncoderLayer::PrepareQuantized() {
  mhsa_.PrepareQuantized();
  ff1_.PrepareQuantized();
  ff2_.PrepareQuantized();
}

Mat TransformerEncoderLayer::Backward(const Mat& dy) {
  Mat dff_sum = ln2_.Backward(dy);
  // dff_sum splits into the FFN branch and the residual into h1.
  Mat dff = drop2_.Backward(dff_sum);
  Mat dh1 = ff1_.Backward(relu_.Backward(ff2_.Backward(dff)));
  dh1.Add(dff_sum);  // residual path
  Mat dattn_sum = ln1_.Backward(dh1);
  Mat dattn = drop1_.Backward(dattn_sum);
  Mat dx = mhsa_.Backward(dattn);
  dx.Add(dattn_sum);  // residual path
  return dx;
}

void TransformerEncoderLayer::CollectParams(ParamSet* params) {
  mhsa_.CollectParams(params);
  ln1_.CollectParams(params);
  ff1_.CollectParams(params);
  ff2_.CollectParams(params);
  ln2_.CollectParams(params);
}

}  // namespace emd
