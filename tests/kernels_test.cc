// Scalar-vs-SIMD parity property tests for the compute-kernel layer
// (nn/kernels). Every kernel is run through both backends over odd,
// cache-unfriendly shapes and asserted to agree within 1e-5 max-abs
// divergence — the contract DESIGN.md §"Kernel dispatch" documents. When the
// binary lacks an AVX2 build or the CPU lacks AVX2+FMA the parity half is
// skipped and only the scalar invariants run.
//
// Also pins the row independence of the Entity Classifier's batched forward,
// which incremental Finalize relies on: a row's probability has the same
// bits in any batch and in any order — under whichever fp32 backend
// EMD_BACKEND selects and with int8 packing — and in fp32 the bits of the
// independent training forward, Probability(row). The Entity Phrase
// Embedder's span batches carry the same contract: a mention's embedding
// does not depend on the other mentions of its tweet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/entity_classifier.h"
#include "core/phrase_embedder.h"
#include "nn/activations.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"
#include "nn/planner.h"
#include "util/cpuid.h"
#include "util/rng.h"

namespace emd {
namespace {

using kernels::Avx2Kernels;
using kernels::KernelBackend;
using kernels::Kernels;
using kernels::ScalarKernels;

constexpr float kTol = 1e-5f;

/// The SIMD backend to compare against, or nullptr (=> parity is vacuous on
/// this host; the scalar invariants still run).
const KernelBackend* SimdBackend() {
  const KernelBackend* avx2 = Avx2Kernels();
  return (avx2 != nullptr && CpuHasAvx2Fma()) ? avx2 : nullptr;
}

std::vector<float> GaussianVec(int n, float scale, uint64_t seed) {
  Rng rng(seed);
  Mat m(1, n);
  m.InitGaussian(&rng, scale);
  return std::vector<float>(m.data(), m.data() + n);
}

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float d = 0.f;
  for (size_t i = 0; i < a.size(); ++i) d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

// Odd GEMM shapes (m, k, n): unit, sub-vector-width, exact-width, width+tail,
// prime-heavy, square, and large-with-ragged-tails.
struct GemmShape {
  int m, k, n;
};
const GemmShape kGemmShapes[] = {{1, 1, 1},    {3, 7, 5},     {2, 8, 16},
                                 {5, 16, 33},  {17, 31, 13},  {64, 64, 64},
                                 {255, 257, 63}};

const int kVecLens[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 255, 257};

TEST(KernelDispatchTest, DispatchReturnsKnownBackend) {
  const KernelBackend& k = Kernels();
  EXPECT_TRUE(std::string(k.name) == "scalar" || std::string(k.name) == "avx2");
  // The dispatched choice is a process-lifetime constant.
  EXPECT_EQ(&Kernels(), &k);
}

// The backend is resolved once per process, by the first kernel call, so
// each EMD_BACKEND case runs `checks` in a child that gtest's threadsafe
// death-test style starts by re-executing this binary: the child sets the
// variable before anything in it resolves the backend, whatever ran earlier
// in the parent. The child exits 0 only when every expectation held.
void ExpectUnderBackendEnv(const char* value, void (*checks)()) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("EMD_BACKEND", value, /*overwrite=*/1);
        checks();
        std::exit(::testing::Test::HasFailure() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "")
      << "EMD_BACKEND=" << value;
}

TEST(KernelDispatchTest, BackendEnvScalarSelectsScalar) {
  ExpectUnderBackendEnv("scalar", [] {
    EXPECT_EQ(kernels::SelectedBackend(), kernels::BackendSelect::kScalar);
    EXPECT_FALSE(kernels::Int8Enabled());
    EXPECT_STREQ(Kernels().name, "scalar");
    EXPECT_STREQ(kernels::BackendName(), "scalar");
  });
}

TEST(KernelDispatchTest, BackendEnvInt8EnablesQuantizedInference) {
  ExpectUnderBackendEnv("int8", [] {
    EXPECT_EQ(kernels::SelectedBackend(), kernels::BackendSelect::kInt8);
    EXPECT_TRUE(kernels::Int8Enabled());
    // The fp32 table still resolves (int8 covers the GEMM layers only), but
    // the reported backend is the quantized one.
    EXPECT_TRUE(std::string(Kernels().name) == "scalar" ||
                std::string(Kernels().name) == "avx2");
    EXPECT_STREQ(kernels::BackendName(), "int8");
  });
}

TEST(KernelDispatchTest, BackendEnvUnknownFallsBackToAuto) {
  ExpectUnderBackendEnv("tpu", [] {
    EXPECT_EQ(kernels::SelectedBackend(), kernels::BackendSelect::kAuto);
    EXPECT_FALSE(kernels::Int8Enabled());
  });
}

TEST(KernelParityTest, MatMul) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (const GemmShape& s : kGemmShapes) {
    const auto a = GaussianVec(s.m * s.k, 0.1f, 11 + s.m);
    const auto b = GaussianVec(s.k * s.n, 0.1f, 13 + s.n);
    std::vector<float> c_ref(s.m * s.n, -7.f), c_simd(s.m * s.n, 7.f);
    ScalarKernels().matmul(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
    simd->matmul(a.data(), b.data(), c_simd.data(), s.m, s.k, s.n);
    EXPECT_LE(MaxAbsDiff(c_ref, c_simd), kTol)
        << "matmul " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelParityTest, MatMulBT) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (const GemmShape& s : kGemmShapes) {
    const auto a = GaussianVec(s.m * s.k, 0.1f, 17 + s.m);
    const auto b = GaussianVec(s.n * s.k, 0.1f, 19 + s.n);  // B is [n, k]
    std::vector<float> c_ref(s.m * s.n, -7.f), c_simd(s.m * s.n, 7.f);
    ScalarKernels().matmul_bt(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
    simd->matmul_bt(a.data(), b.data(), c_simd.data(), s.m, s.k, s.n);
    EXPECT_LE(MaxAbsDiff(c_ref, c_simd), kTol)
        << "matmul_bt " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelParityTest, MatMulAT) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (const GemmShape& s : kGemmShapes) {
    const auto a = GaussianVec(s.k * s.m, 0.1f, 23 + s.m);  // A is [k, m]
    const auto b = GaussianVec(s.k * s.n, 0.1f, 29 + s.n);
    std::vector<float> c_ref(s.m * s.n, -7.f), c_simd(s.m * s.n, 7.f);
    ScalarKernels().matmul_at(a.data(), b.data(), c_ref.data(), s.k, s.m, s.n);
    simd->matmul_at(a.data(), b.data(), c_simd.data(), s.k, s.m, s.n);
    EXPECT_LE(MaxAbsDiff(c_ref, c_simd), kTol)
        << "matmul_at " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelParityTest, Blas1) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (int n : kVecLens) {
    const auto x = GaussianVec(n, 1.f, 31 + n);
    const auto y0 = GaussianVec(n, 1.f, 37 + n);

    const float dot_ref = ScalarKernels().dot(x.data(), y0.data(), n);
    const float dot_simd = simd->dot(x.data(), y0.data(), n);
    EXPECT_NEAR(dot_ref, dot_simd, kTol * std::max(1, n)) << "dot n=" << n;

    std::vector<float> ya = y0, yb = y0;
    ScalarKernels().axpy(0.37f, x.data(), ya.data(), n);
    simd->axpy(0.37f, x.data(), yb.data(), n);
    EXPECT_LE(MaxAbsDiff(ya, yb), kTol) << "axpy n=" << n;

    std::vector<float> sa(n), sb(n);
    ScalarKernels().vadd(x.data(), y0.data(), sa.data(), n);
    simd->vadd(x.data(), y0.data(), sb.data(), n);
    EXPECT_LE(MaxAbsDiff(sa, sb), kTol) << "vadd n=" << n;
    // Aliased out == x must also hold (the documented contract).
    std::vector<float> alias = x;
    simd->vadd(alias.data(), y0.data(), alias.data(), n);
    EXPECT_LE(MaxAbsDiff(alias, sb), kTol) << "vadd aliased n=" << n;

    std::vector<float> va = x, vb = x;
    ScalarKernels().vscale(-1.25f, va.data(), n);
    simd->vscale(-1.25f, vb.data(), n);
    EXPECT_LE(MaxAbsDiff(va, vb), kTol) << "vscale n=" << n;
  }
}

// Activation inputs: a uniform sweep of [-10, 10] plus hand-picked edge
// values (zero, denormal-adjacent, saturation range).
std::vector<float> ActivationInputs(int n, uint64_t seed) {
  std::vector<float> x = GaussianVec(n, 4.f, seed);
  const float edges[] = {0.f,   -0.f,  1e-8f, -1e-8f, 1.f,   -1.f,
                         10.f,  -10.f, 20.f,  -20.f,  88.f,  -88.f,
                         100.f, -100.f};
  for (size_t i = 0; i < std::min<size_t>(x.size(), std::size(edges)); ++i) {
    x[i] = edges[i];
  }
  return x;
}

TEST(KernelParityTest, Activations) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (int n : kVecLens) {
    const auto x = ActivationInputs(n, 41 + n);
    std::vector<float> ya(n), yb(n), ma(n), mb(n);

    ScalarKernels().relu(x.data(), ya.data(), ma.data(), n);
    simd->relu(x.data(), yb.data(), mb.data(), n);
    EXPECT_LE(MaxAbsDiff(ya, yb), 0.f) << "relu n=" << n;  // exact
    EXPECT_LE(MaxAbsDiff(ma, mb), 0.f) << "relu mask n=" << n;
    ScalarKernels().relu(x.data(), ya.data(), nullptr, n);
    simd->relu(x.data(), yb.data(), nullptr, n);
    EXPECT_LE(MaxAbsDiff(ya, yb), 0.f) << "maskless relu n=" << n;

    ScalarKernels().gelu(x.data(), ya.data(), n);
    simd->gelu(x.data(), yb.data(), n);
    EXPECT_LE(MaxAbsDiff(ya, yb), kTol) << "gelu n=" << n;

    ScalarKernels().vtanh(x.data(), ya.data(), n);
    simd->vtanh(x.data(), yb.data(), n);
    EXPECT_LE(MaxAbsDiff(ya, yb), kTol) << "tanh n=" << n;

    ScalarKernels().vsigmoid(x.data(), ya.data(), n);
    simd->vsigmoid(x.data(), yb.data(), n);
    EXPECT_LE(MaxAbsDiff(ya, yb), kTol) << "sigmoid n=" << n;

    // In-place (y aliasing x) must match the out-of-place result exactly.
    simd->vtanh(x.data(), yb.data(), n);
    std::vector<float> alias = x;
    simd->vtanh(alias.data(), alias.data(), n);
    EXPECT_LE(MaxAbsDiff(alias, yb), 0.f) << "tanh aliased n=" << n;
  }
}

TEST(KernelParityTest, SoftmaxRows) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  const GemmShape shapes[] = {{1, 0, 1}, {3, 0, 7}, {17, 0, 31}, {64, 0, 255}};
  for (const GemmShape& s : shapes) {
    auto a = GaussianVec(s.m * s.n, 3.f, 43 + s.m);
    auto b = a;
    ScalarKernels().softmax_rows(a.data(), s.m, s.n);
    simd->softmax_rows(b.data(), s.m, s.n);
    EXPECT_LE(MaxAbsDiff(a, b), kTol) << "softmax " << s.m << "x" << s.n;
    for (int r = 0; r < s.m; ++r) {
      double sum = 0;
      for (int j = 0; j < s.n; ++j) sum += b[r * s.n + j];
      EXPECT_NEAR(sum, 1.0, 1e-4) << "softmax row " << r;
    }
  }
}

TEST(KernelParityTest, LayerNorm) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  const GemmShape shapes[] = {{1, 0, 5}, {3, 0, 7}, {17, 0, 31}, {9, 0, 257}};
  const float eps = 1e-5f;
  for (const GemmShape& s : shapes) {
    const auto x = GaussianVec(s.m * s.n, 1.f, 47 + s.n);
    const auto gamma = GaussianVec(s.n, 1.f, 53);
    const auto beta = GaussianVec(s.n, 1.f, 59);
    std::vector<float> ya(s.m * s.n), yb(s.m * s.n);
    std::vector<float> xa(s.m * s.n), xb(s.m * s.n);
    std::vector<float> ia(s.m), ib(s.m);
    ScalarKernels().layer_norm(x.data(), gamma.data(), beta.data(), eps, s.m,
                               s.n, ya.data(), xa.data(), ia.data());
    simd->layer_norm(x.data(), gamma.data(), beta.data(), eps, s.m, s.n,
                     yb.data(), xb.data(), ib.data());
    EXPECT_LE(MaxAbsDiff(ya, yb), kTol) << "layer_norm y " << s.m << "x" << s.n;
    EXPECT_LE(MaxAbsDiff(xa, xb), kTol) << "layer_norm xhat " << s.m << "x"
                                        << s.n;
    EXPECT_LE(MaxAbsDiff(ia, ib), kTol) << "layer_norm inv_std " << s.m << "x"
                                        << s.n;
  }
}

TEST(KernelParityTest, LogSumExp) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  for (int n : kVecLens) {
    const auto x = ActivationInputs(n, 61 + n);
    const double ref = ScalarKernels().logsumexp(x.data(), n);
    const double got = simd->logsumexp(x.data(), n);
    EXPECT_NEAR(ref, got, kTol) << "logsumexp n=" << n;
  }
}

TEST(KernelParityTest, SimdIsDeterministic) {
  const KernelBackend* simd = SimdBackend();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD backend on this host";
  const GemmShape s = {17, 31, 13};
  const auto a = GaussianVec(s.m * s.k, 0.1f, 67);
  const auto b = GaussianVec(s.k * s.n, 0.1f, 71);
  std::vector<float> c1(s.m * s.n), c2(s.m * s.n);
  simd->matmul(a.data(), b.data(), c1.data(), s.m, s.k, s.n);
  simd->matmul(a.data(), b.data(), c2.data(), s.m, s.k, s.n);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), sizeof(float) * c1.size()));
}

// Finite-difference gradient check of the GeLU layer added alongside the
// kernel table. Analytic backward vs (f(x+h)-f(x-h))/2h on a weighted-sum
// loss; the small-magnitude guard mirrors nn_grad_test.
TEST(GeluLayerTest, GradientMatchesFiniteDifference) {
  const int n = 9;
  Mat x(1, n), w(1, n);
  Rng rng(73);
  x.InitGaussian(&rng, 1.5f);
  w.InitGaussian(&rng, 1.f);

  GeluLayer gelu;
  auto loss = [&](const Mat& in) {
    GeluLayer fresh;
    const Mat y = fresh.Forward(in);
    double s = 0;
    for (int j = 0; j < n; ++j) s += double(y(0, j)) * w(0, j);
    return s;
  };

  gelu.Forward(x);
  const Mat dx = gelu.Backward(w);

  const double eps = 1e-3;
  for (int j = 0; j < n; ++j) {
    Mat xp = x, xm = x;
    xp(0, j) += static_cast<float>(eps);
    xm(0, j) -= static_cast<float>(eps);
    const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
    const double analytic = dx(0, j);
    if (std::fabs(analytic) < 5e-5 && std::fabs(numeric) < 5e-5) continue;
    const double denom =
        std::max({std::fabs(analytic), std::fabs(numeric), 1e-4});
    EXPECT_LT(std::fabs(analytic - numeric) / denom, 2e-2)
        << "gelu dx[" << j << "]: analytic " << analytic << " vs numeric "
        << numeric;
  }
}

// The nn-layer entry points must produce identical results through Mat ops
// regardless of backend choice already covered above; this sanity-checks the
// wiring end to end: MatMulInto through the dispatched backend equals the
// scalar kernel on the same inputs within tolerance.
TEST(KernelWiringTest, MatMulIntoUsesDispatchedBackend) {
  Rng rng(79);
  Mat a(5, 16), b(16, 33), c;
  a.InitGaussian(&rng, 0.1f);
  b.InitGaussian(&rng, 0.1f);
  MatMulInto(a, b, &c);
  std::vector<float> ref(5 * 33);
  ScalarKernels().matmul(a.data(), b.data(), ref.data(), 5, 16, 33);
  float d = 0.f;
  for (size_t i = 0; i < ref.size(); ++i) {
    d = std::max(d, std::fabs(ref[i] - c.data()[i]));
  }
  EXPECT_LE(d, kTol);
}

// Incremental Finalize scores only the candidates whose evidence changed, in
// batches whose size and membership vary from call to call. That is exact
// only if each row's probability is a function of that row alone.
TEST(ClassifierRowIndependenceTest, SubsetsAndPermutationsKeepEveryRowsBits) {
  EntityClassifier clf({.input_dim = 7, .hidden_dim = 24});
  constexpr int kRows = 37;
  Rng rng(83);
  Mat all(kRows, 7);
  all.InitGaussian(&rng, 1.f);

  for (const bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8 packed" : kernels::BackendName());
    if (int8) clf.PrepareQuantizedInference();
    ForwardArena arena;
    std::vector<float> full;
    ASSERT_TRUE(clf.TryProbabilities(all, &arena, &full).ok());
    ASSERT_EQ(full.size(), static_cast<size_t>(kRows));

    // One-row calls, and in fp32 the training forward (its own code path:
    // Linear::Forward and ReluLayer, never the int8 packing).
    Mat row(1, 7);
    std::vector<float> one;
    for (int i = 0; i < kRows; ++i) {
      std::memcpy(row.row(0), all.row(i), sizeof(float) * 7);
      ASSERT_TRUE(clf.TryProbabilities(row, &arena, &one).ok());
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(0, std::memcmp(&one[0], &full[i], sizeof(float)))
          << "row " << i << ": one-row " << one[0] << " vs batched " << full[i];
      if (int8) continue;
      const float reference = clf.Probability(row);
      EXPECT_EQ(0, std::memcmp(&reference, &full[i], sizeof(float)))
          << "row " << i << ": training forward " << reference
          << " vs batched " << full[i];
    }

    // Random subsets of every size class (single rows, SIMD-tail sizes,
    // the whole set) in shuffled order.
    std::vector<int> order(kRows);
    for (int i = 0; i < kRows; ++i) order[i] = i;
    for (const int size : {1, 2, 3, 5, 8, 13, 21, kRows}) {
      rng.Shuffle(&order);
      Mat sub(size, 7);
      for (int k = 0; k < size; ++k) {
        std::memcpy(sub.row(k), all.row(order[k]), sizeof(float) * 7);
      }
      std::vector<float> probs;
      ASSERT_TRUE(clf.TryProbabilities(sub, &arena, &probs).ok());
      for (int k = 0; k < size; ++k) {
        EXPECT_EQ(0, std::memcmp(&probs[k], &full[order[k]], sizeof(float)))
            << "row " << order[k] << " at position " << k << " of " << size;
      }
    }
  }
}

// The re-scan stage embeds all of a tweet's in-range mentions in one
// TryEmbedSpans call, so which other mentions share the call must not move
// a mention's embedding by a single bit.
TEST(PhraseEmbedderRowIndependenceTest, SubsetsAndPermutationsKeepEveryRowsBits) {
  constexpr int kInDim = 24, kOutDim = 10, kTokens = 19, kSpans = 37;
  PhraseEmbedder pe(kInDim, kOutDim, /*seed=*/89);
  Rng rng(97);
  Mat tokens(kTokens, kInDim);
  tokens.InitGaussian(&rng, 1.f);
  std::vector<TokenSpan> spans(kSpans);
  for (TokenSpan& span : spans) {
    span.begin = static_cast<size_t>(rng.NextInt(0, kTokens - 1));
    span.end = std::min<size_t>(
        kTokens, span.begin + 1 + static_cast<size_t>(rng.NextInt(0, 5)));
  }
  auto expect_rows = [&](const Mat& got, const std::vector<int>& which,
                         const Mat& all) {
    ASSERT_EQ(got.rows(), static_cast<int>(which.size()));
    ASSERT_EQ(got.cols(), kOutDim);
    for (int k = 0; k < got.rows(); ++k) {
      EXPECT_EQ(0, std::memcmp(got.row(k), all.row(which[k]),
                               sizeof(float) * kOutDim))
          << "span " << which[k] << " at position " << k << " of "
          << which.size();
    }
  };

  for (const bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8 packed" : kernels::BackendName());
    if (int8) pe.PrepareQuantizedInference();
    ForwardArena arena;
    Mat all;
    ASSERT_TRUE(pe.TryEmbedSpans(tokens, spans, &arena, &all).ok());

    std::vector<int> order(kSpans);
    for (int i = 0; i < kSpans; ++i) order[i] = i;
    Mat got;
    for (int i = 0; i < kSpans; ++i) {
      ASSERT_TRUE(pe.TryEmbedSpans(tokens, {&spans[i], 1}, &arena, &got).ok());
      expect_rows(got, {i}, all);
      expect_rows(pe.Embed(tokens, spans[i]), {i}, all);
    }
    // Random subsets of every size class in shuffled order.
    for (const int size : {1, 2, 3, 5, 8, 13, 21, kSpans}) {
      rng.Shuffle(&order);
      const std::vector<int> which(order.begin(), order.begin() + size);
      std::vector<TokenSpan> sub;
      for (int i : which) sub.push_back(spans[i]);
      ASSERT_TRUE(pe.TryEmbedSpans(tokens, sub, &arena, &got).ok());
      expect_rows(got, which, all);
    }
  }
}

}  // namespace
}  // namespace emd
