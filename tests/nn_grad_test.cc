// Finite-difference gradient checks for every layer of the neural substrate.
// Each check perturbs parameters (and inputs) and compares the analytic
// gradient against (f(x+h) - f(x-h)) / 2h on a scalar loss.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/crf.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "nn/params.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace emd {
namespace {

// Finite differences divide forward-pass error by 2h, so the ~1e-7-accurate
// vectorized exp/tanh approximations would read as percent-level gradient
// noise. Pin the exact scalar kernels before the dispatcher's one-time choice.
const bool kScalarKernels = [] {
  setenv("EMD_BACKEND", "scalar", /*overwrite=*/1);
  return true;
}();

// Scalar loss used by all checks: weighted sum of outputs, dL/dy = weights.
struct ScalarLoss {
  explicit ScalarLoss(int rows, int cols, uint64_t seed = 99) : w(rows, cols) {
    Rng rng(seed);
    w.InitGaussian(&rng, 1.f);
  }
  double Value(const Mat& y) const {
    EMD_CHECK(y.SameShape(w));
    double s = 0;
    for (size_t i = 0; i < y.size(); ++i) s += double(y.data()[i]) * w.data()[i];
    return s;
  }
  Mat Grad() const { return w; }
  Mat w;
};

constexpr double kEps = 1e-3;
constexpr double kTol = 2e-2;  // relative tolerance (float32 substrate)

void ExpectClose(double analytic, double numeric, const std::string& what,
                 double tol = kTol) {
  // Gradients that are exactly zero analytically (e.g. the K-projection bias
  // of softmax attention) read as float noise numerically.
  if (std::fabs(analytic) < 5e-5 && std::fabs(numeric) < 5e-5) return;
  const double denom = std::max({std::fabs(analytic), std::fabs(numeric), 1e-4});
  EXPECT_LT(std::fabs(analytic - numeric) / denom, tol)
      << what << ": analytic " << analytic << " vs numeric " << numeric;
}

// Checks dL/dparam for every parameter entry (sampled) of a module.
// `forward` must run the full forward pass and return the loss.
void CheckParamGrads(ParamSet* params, const std::function<double()>& forward,
                     const std::function<void()>& backward,
                     int samples_per_param = 4, double tol = kTol) {
  params->ZeroGrads();
  forward();
  backward();
  Rng rng(4242);
  for (const auto& p : params->params()) {
    for (int s = 0; s < samples_per_param; ++s) {
      const size_t i = rng.NextU64(p.value->size());
      const float orig = p.value->data()[i];
      p.value->data()[i] = orig + static_cast<float>(kEps);
      const double up = forward();
      p.value->data()[i] = orig - static_cast<float>(kEps);
      const double down = forward();
      p.value->data()[i] = orig;
      const double numeric = (up - down) / (2 * kEps);
      ExpectClose(p.grad->data()[i], numeric, p.name + "[" + std::to_string(i) + "]",
                  tol);
    }
  }
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear lin(5, 4, &rng);
  Mat x(3, 5);
  x.InitGaussian(&rng, 1.f);
  ScalarLoss loss(3, 4);
  ParamSet params;
  lin.CollectParams(&params);

  Mat dx_analytic;
  auto forward = [&] { return loss.Value(lin.Forward(x)); };
  auto backward = [&] { dx_analytic = lin.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward);

  // Input gradient check.
  for (int i : {0, 7, 14}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    x.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    x.data()[i] = orig;
    ExpectClose(dx_analytic.data()[i], (up - down) / (2 * kEps), "dx");
  }
}

TEST(GradCheck, Embedding) {
  Rng rng(2);
  Embedding emb(10, 4, &rng);
  std::vector<int> ids = {3, 7, 3, 2};
  ScalarLoss loss(4, 4);
  ParamSet params;
  emb.CollectParams(&params);
  auto forward = [&] { return loss.Value(emb.Forward(ids)); };
  auto backward = [&] { emb.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward, 8);
}

TEST(GradCheck, Activations) {
  Rng rng(3);
  Mat x(2, 6);
  x.InitGaussian(&rng, 1.f);
  ScalarLoss loss(2, 6);

  ReluLayer relu;
  auto fr = [&] { return loss.Value(relu.Forward(x)); };
  fr();
  Mat dxr = relu.Backward(loss.Grad());
  SigmoidLayer sig;
  auto fs = [&] { return loss.Value(sig.Forward(x)); };
  fs();
  Mat dxs = sig.Backward(loss.Grad());
  TanhLayer tanh_layer;
  auto ft = [&] { return loss.Value(tanh_layer.Forward(x)); };
  ft();
  Mat dxt = tanh_layer.Backward(loss.Grad());

  for (int i : {1, 5, 10}) {
    const float orig = x.data()[i];
    auto numeric = [&](auto f) {
      x.data()[i] = orig + static_cast<float>(kEps);
      const double up = f();
      x.data()[i] = orig - static_cast<float>(kEps);
      const double down = f();
      x.data()[i] = orig;
      return (up - down) / (2 * kEps);
    };
    ExpectClose(dxs.data()[i], numeric(fs), "sigmoid dx");
    ExpectClose(dxt.data()[i], numeric(ft), "tanh dx");
    // ReLU is non-differentiable at 0; inputs are generic so fine.
    ExpectClose(dxr.data()[i], numeric(fr), "relu dx");
  }
}

TEST(GradCheck, CharCnnSingle) {
  Rng rng(4);
  CharCnn cnn(3, 5, 2, &rng);
  Mat x(6, 3);
  x.InitGaussian(&rng, 1.f);
  ScalarLoss loss(1, 5);
  ParamSet params;
  cnn.CollectParams(&params);
  auto forward = [&] { return loss.Value(cnn.Forward(x)); };
  auto backward = [&] { cnn.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward);
}

TEST(GradCheck, CharCnnBatch) {
  Rng rng(5);
  CharCnn cnn(3, 4, 3, &rng);
  Mat chars(9, 3);  // tokens of lengths 4, 2, 3
  chars.InitGaussian(&rng, 1.f);
  std::vector<int> lengths = {4, 2, 3};
  ScalarLoss loss(3, 4);
  ParamSet params;
  cnn.CollectParams(&params);
  Mat dchars;
  auto forward = [&] { return loss.Value(cnn.ForwardBatch(chars, lengths)); };
  auto backward = [&] { dchars = cnn.BackwardBatch(loss.Grad()); };
  CheckParamGrads(&params, forward, backward);
  for (int i : {0, 10, 20}) {
    const float orig = chars.data()[i];
    chars.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    chars.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    chars.data()[i] = orig;
    ExpectClose(dchars.data()[i], (up - down) / (2 * kEps), "dchars");
  }
}

TEST(GradCheck, LstmForwardAndReverse) {
  for (bool reverse : {false, true}) {
    Rng rng(6);
    Lstm lstm(4, 3, &rng);
    Mat x(5, 4);
    x.InitGaussian(&rng, 1.f);
    ScalarLoss loss(5, 3);
    ParamSet params;
    lstm.CollectParams(&params);
    Mat dx;
    auto forward = [&] { return loss.Value(lstm.Forward(x, reverse)); };
    auto backward = [&] { dx = lstm.Backward(loss.Grad()); };
    CheckParamGrads(&params, forward, backward);
    for (int i : {0, 9, 19}) {
      const float orig = x.data()[i];
      x.data()[i] = orig + static_cast<float>(kEps);
      const double up = forward();
      x.data()[i] = orig - static_cast<float>(kEps);
      const double down = forward();
      x.data()[i] = orig;
      ExpectClose(dx.data()[i], (up - down) / (2 * kEps),
                  reverse ? "lstm-rev dx" : "lstm dx");
    }
  }
}

TEST(GradCheck, BiLstm) {
  Rng rng(7);
  BiLstm bilstm(3, 2, &rng);
  Mat x(4, 3);
  x.InitGaussian(&rng, 1.f);
  ScalarLoss loss(4, 4);
  ParamSet params;
  bilstm.CollectParams(&params);
  Mat dx;
  auto forward = [&] { return loss.Value(bilstm.Forward(x)); };
  auto backward = [&] { dx = bilstm.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward, 3);
  for (int i : {2, 7}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    x.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    x.data()[i] = orig;
    ExpectClose(dx.data()[i], (up - down) / (2 * kEps), "bilstm dx");
  }
}

TEST(GradCheck, LayerNorm) {
  Rng rng(8);
  LayerNorm ln(6);
  Mat x(3, 6);
  x.InitGaussian(&rng, 1.f);
  ScalarLoss loss(3, 6);
  ParamSet params;
  ln.CollectParams(&params);
  Mat dx;
  auto forward = [&] { return loss.Value(ln.Forward(x)); };
  auto backward = [&] { dx = ln.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward);
  for (int i : {0, 8, 17}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    x.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    x.data()[i] = orig;
    ExpectClose(dx.data()[i], (up - down) / (2 * kEps), "layernorm dx");
  }
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(9);
  MultiHeadSelfAttention mhsa(8, 2, &rng);
  Mat x(4, 8);
  x.InitGaussian(&rng, 0.5f);
  ScalarLoss loss(4, 8);
  ParamSet params;
  mhsa.CollectParams(&params);
  Mat dx;
  auto forward = [&] { return loss.Value(mhsa.Forward(x)); };
  auto backward = [&] { dx = mhsa.Backward(loss.Grad()); };
  CheckParamGrads(&params, forward, backward, 3);
  for (int i : {0, 13, 31}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    x.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    x.data()[i] = orig;
    ExpectClose(dx.data()[i], (up - down) / (2 * kEps), "mhsa dx");
  }
}

TEST(GradCheck, TransformerEncoderLayer) {
  Rng rng(10);
  TransformerEncoderLayer enc(8, 2, 16, /*dropout=*/0.f, &rng);
  Mat x(3, 8);
  x.InitGaussian(&rng, 0.5f);
  ScalarLoss loss(3, 8);
  ParamSet params;
  enc.CollectParams(&params);
  Mat dx;
  auto forward = [&] { return loss.Value(enc.Forward(x, /*training=*/false, &rng)); };
  auto backward = [&] { dx = enc.Backward(loss.Grad()); };
  // float32 noise accumulates through the attention+LN+FFN composite;
  // gradients agree to ~3 significant figures.
  CheckParamGrads(&params, forward, backward, 2, /*tol=*/0.06);
  for (int i : {1, 12, 23}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    x.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    x.data()[i] = orig;
    ExpectClose(dx.data()[i], (up - down) / (2 * kEps), "transformer dx", 0.06);
  }
}

TEST(GradCheck, CrfNegLogLikelihood) {
  Rng rng(11);
  LinearChainCrf crf(3, &rng);
  Mat emissions(5, 3);
  emissions.InitGaussian(&rng, 1.f);
  std::vector<int> gold = {0, 1, 2, 1, 0};
  ParamSet params;
  crf.CollectParams(&params);

  Mat demissions;
  auto forward = [&] {
    Mat unused;
    // NLL accumulates into the CRF's grads; for a pure forward value, use a
    // scratch CRF state by zeroing after. Simpler: capture value, re-zero.
    ParamSet tmp;
    crf.CollectParams(&tmp);
    tmp.ZeroGrads();
    return crf.NegLogLikelihood(emissions, gold, &unused);
  };
  params.ZeroGrads();
  const double base = crf.NegLogLikelihood(emissions, gold, &demissions);
  EXPECT_GT(base, 0);

  // Emission gradients.
  for (int i : {0, 4, 9, 14}) {
    const float orig = emissions.data()[i];
    emissions.data()[i] = orig + static_cast<float>(kEps);
    const double up = forward();
    emissions.data()[i] = orig - static_cast<float>(kEps);
    const double down = forward();
    emissions.data()[i] = orig;
    ExpectClose(demissions.data()[i], (up - down) / (2 * kEps), "crf demissions");
  }
  // Transition/start/end gradients (captured from the base call).
  Rng sample_rng(12);
  for (const auto& p : params.params()) {
    for (int s = 0; s < 4; ++s) {
      const size_t i = sample_rng.NextU64(p.value->size());
      const float analytic = p.grad->data()[i];
      const float orig = p.value->data()[i];
      p.value->data()[i] = orig + static_cast<float>(kEps);
      const double up = forward();
      p.value->data()[i] = orig - static_cast<float>(kEps);
      const double down = forward();
      p.value->data()[i] = orig;
      ExpectClose(analytic, (up - down) / (2 * kEps), "crf " + p.name);
    }
  }
}

TEST(GradCheck, Losses) {
  Rng rng(13);
  Mat pred(2, 3), target(2, 3);
  pred.InitGaussian(&rng, 1.f);
  for (size_t i = 0; i < target.size(); ++i) {
    target.data()[i] = rng.NextBernoulli(0.5) ? 1.f : 0.f;
  }
  Mat dpred;
  MseLoss(pred, target, &dpred);
  for (int i : {0, 3}) {
    const float orig = pred.data()[i];
    Mat scratch;
    pred.data()[i] = orig + static_cast<float>(kEps);
    const double up = MseLoss(pred, target, &scratch);
    pred.data()[i] = orig - static_cast<float>(kEps);
    const double down = MseLoss(pred, target, &scratch);
    pred.data()[i] = orig;
    ExpectClose(dpred.data()[i], (up - down) / (2 * kEps), "mse");
  }

  Mat dlogit;
  BceWithLogitsLoss(pred, target, &dlogit);
  for (int i : {1, 4}) {
    const float orig = pred.data()[i];
    Mat scratch;
    pred.data()[i] = orig + static_cast<float>(kEps);
    const double up = BceWithLogitsLoss(pred, target, &scratch);
    pred.data()[i] = orig - static_cast<float>(kEps);
    const double down = BceWithLogitsLoss(pred, target, &scratch);
    pred.data()[i] = orig;
    ExpectClose(dlogit.data()[i], (up - down) / (2 * kEps), "bce-logits");
  }
}

}  // namespace
}  // namespace emd
