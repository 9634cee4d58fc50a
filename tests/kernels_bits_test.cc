// Bit-pinning tests for the fused GEMM (`linear`) and the attention kernel
// (`attend_head`). Both must reproduce, bit for bit, the kernel compositions
// the inference path ran before they existed: matmul, then axpy(1, bias) per
// row, then relu; and per (sequence, head) a copy of the head slices,
// matmul_bt, vscale, softmax_rows, matmul and a copy back.
//
// The AVX2 references below are those historical kernels kept verbatim
// (the 4x16 / 4x8 / 1-row matmul, the 1x4 dot-product matmul_bt and its
// two-chain dot). This file is compiled with -mavx2 -mfma, like
// kernels_avx2.cc, so the references compile to the same instructions —
// including the scalar column tails that GCC contracts into FMAs. Every
// comparison is a memcmp. The whole suite is skipped on a CPU without
// AVX2+FMA, because this file's own code may use those instructions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/kernels/kernels.h"
#include "util/cpuid.h"
#include "util/rng.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace emd {
namespace {

using kernels::KernelBackend;

// ---- The historical AVX2 GEMM kernels, verbatim. ----

inline float HSum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x55);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

inline void Micro4x16(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, int lda, int ldn, int p0, int p1) {
  __m256 acc00 = _mm256_loadu_ps(c);
  __m256 acc01 = _mm256_loadu_ps(c + 8);
  __m256 acc10 = _mm256_loadu_ps(c + ldn);
  __m256 acc11 = _mm256_loadu_ps(c + ldn + 8);
  __m256 acc20 = _mm256_loadu_ps(c + 2 * ldn);
  __m256 acc21 = _mm256_loadu_ps(c + 2 * ldn + 8);
  __m256 acc30 = _mm256_loadu_ps(c + 3 * ldn);
  __m256 acc31 = _mm256_loadu_ps(c + 3 * ldn + 8);
  for (int p = p0; p < p1; ++p) {
    const float* __restrict brow = b + size_t(p) * ldn;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av = _mm256_broadcast_ss(a + p);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_broadcast_ss(a + lda + p);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_broadcast_ss(a + 2 * lda + p);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_broadcast_ss(a + 3 * lda + p);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
  }
  _mm256_storeu_ps(c, acc00);
  _mm256_storeu_ps(c + 8, acc01);
  _mm256_storeu_ps(c + ldn, acc10);
  _mm256_storeu_ps(c + ldn + 8, acc11);
  _mm256_storeu_ps(c + 2 * ldn, acc20);
  _mm256_storeu_ps(c + 2 * ldn + 8, acc21);
  _mm256_storeu_ps(c + 3 * ldn, acc30);
  _mm256_storeu_ps(c + 3 * ldn + 8, acc31);
}

inline void Micro4x8(const float* __restrict a, const float* __restrict b,
                     float* __restrict c, int lda, int ldn, int p0, int p1) {
  __m256 acc0 = _mm256_loadu_ps(c);
  __m256 acc1 = _mm256_loadu_ps(c + ldn);
  __m256 acc2 = _mm256_loadu_ps(c + 2 * ldn);
  __m256 acc3 = _mm256_loadu_ps(c + 3 * ldn);
  for (int p = p0; p < p1; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + size_t(p) * ldn);
    acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + p), b0, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + lda + p), b0, acc1);
    acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2 * lda + p), b0, acc2);
    acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3 * lda + p), b0, acc3);
  }
  _mm256_storeu_ps(c, acc0);
  _mm256_storeu_ps(c + ldn, acc1);
  _mm256_storeu_ps(c + 2 * ldn, acc2);
  _mm256_storeu_ps(c + 3 * ldn, acc3);
}

inline void Micro1Row(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, int ldn, int p0, int p1, int j0,
                      int n) {
  int j = j0;
  for (; j + 7 < n; j += 8) {
    __m256 acc = _mm256_loadu_ps(c + j);
    for (int p = p0; p < p1; ++p) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + p),
                            _mm256_loadu_ps(b + size_t(p) * ldn + j), acc);
    }
    _mm256_storeu_ps(c + j, acc);
  }
  for (; j < n; ++j) {
    float s = c[j];
    for (int p = p0; p < p1; ++p) s += a[p] * b[size_t(p) * ldn + j];
    c[j] = s;
  }
}

constexpr int kPanelK = 256;

void RefMatMulAvx2(const float* A, const float* B, float* C, int m, int k,
                   int n) {
  std::memset(C, 0, sizeof(float) * size_t(m) * n);
  for (int p0 = 0; p0 < k; p0 += kPanelK) {
    const int p1 = std::min(p0 + kPanelK, k);
    int i = 0;
    for (; i + 3 < m; i += 4) {
      const float* arow = A + size_t(i) * k;
      float* crow = C + size_t(i) * n;
      int j = 0;
      for (; j + 15 < n; j += 16) {
        Micro4x16(arow, B + j, crow + j, k, n, p0, p1);
      }
      if (j + 7 < n) {
        Micro4x8(arow, B + j, crow + j, k, n, p0, p1);
        j += 8;
      }
      if (j < n) {
        for (int r = 0; r < 4; ++r) {
          Micro1Row(arow + size_t(r) * k, B, crow + size_t(r) * n, n, p0, p1,
                    j, n);
        }
      }
    }
    for (; i < m; ++i) {
      Micro1Row(A + size_t(i) * k, B, C + size_t(i) * n, n, p0, p1, 0, n);
    }
  }
}

float RefDotAvx2(const float* x, const float* y, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 15 < n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                           _mm256_loadu_ps(y + i + 8), acc1);
  }
  if (i + 7 < n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    i += 8;
  }
  float s = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void RefMatMulBTAvx2(const float* A, const float* B, float* C, int m, int k,
                     int n) {
  for (int i = 0; i < m; ++i) {
    const float* __restrict a = A + size_t(i) * k;
    float* crow = C + size_t(i) * n;
    int j = 0;
    for (; j + 3 < n; j += 4) {
      const float* __restrict b0 = B + size_t(j) * k;
      const float* __restrict b1 = B + size_t(j + 1) * k;
      const float* __restrict b2 = B + size_t(j + 2) * k;
      const float* __restrict b3 = B + size_t(j + 3) * k;
      __m256 s0 = _mm256_setzero_ps();
      __m256 s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps();
      __m256 s3 = _mm256_setzero_ps();
      int p = 0;
      for (; p + 7 < k; p += 8) {
        const __m256 av = _mm256_loadu_ps(a + p);
        s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), s0);
        s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), s1);
        s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), s2);
        s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), s3);
      }
      float r0 = HSum256(s0), r1 = HSum256(s1);
      float r2 = HSum256(s2), r3 = HSum256(s3);
      for (; p < k; ++p) {
        const float av = a[p];
        r0 += av * b0[p];
        r1 += av * b1[p];
        r2 += av * b2[p];
        r3 += av * b3[p];
      }
      crow[j] = r0;
      crow[j + 1] = r1;
      crow[j + 2] = r2;
      crow[j + 3] = r3;
    }
    for (; j < n; ++j) crow[j] = RefDotAvx2(a, B + size_t(j) * k, k);
  }
}

// ---- The historical compositions, parameterized by backend. ----

struct Reference {
  const KernelBackend* backend;
  void (*matmul)(const float*, const float*, float*, int, int, int);
  void (*matmul_bt)(const float*, const float*, float*, int, int, int);
};

/// The backends under test, each with the GEMMs its old composition used.
std::vector<Reference> References() {
  std::vector<Reference> refs;
  const KernelBackend& scalar = kernels::ScalarKernels();
  refs.push_back({&scalar, scalar.matmul, scalar.matmul_bt});
  if (kernels::Avx2Kernels() != nullptr) {
    refs.push_back({kernels::Avx2Kernels(), RefMatMulAvx2, RefMatMulBTAvx2});
  }
  return refs;
}

// The bias add and the ReLU pass as Linear::Apply and the encoder ran them.
void RefLinear(const Reference& ref, const float* a, const float* w,
               const float* bias, float* c, int m, int k, int n, bool relu) {
  ref.matmul(a, w, c, m, k, n);
  for (int i = 0; i < m; ++i) ref.backend->axpy(1.f, bias, c + size_t(i) * n, n);
  if (relu) ref.backend->relu(c, c, nullptr, m * n);
}

// MultiHeadSelfAttention::ApplyBatched's per-head loop: copy the head's
// columns out, compose the kernels, copy the context back.
void RefAttendHead(const Reference& ref, const float* q, const float* k,
                   const float* v, int ld, int t, int dh, float scale,
                   float* p, float* out) {
  std::vector<float> qh(size_t(t) * dh), kh(size_t(t) * dh),
      vh(size_t(t) * dh), ctx(size_t(t) * dh);
  const size_t head_bytes = sizeof(float) * dh;
  for (int r = 0; r < t; ++r) {
    std::memcpy(qh.data() + size_t(r) * dh, q + size_t(r) * ld, head_bytes);
    std::memcpy(kh.data() + size_t(r) * dh, k + size_t(r) * ld, head_bytes);
    std::memcpy(vh.data() + size_t(r) * dh, v + size_t(r) * ld, head_bytes);
  }
  ref.matmul_bt(qh.data(), kh.data(), p, t, dh, t);
  ref.backend->vscale(scale, p, t * t);
  ref.backend->softmax_rows(p, t, t);
  ref.matmul(p, vh.data(), ctx.data(), t, t, dh);
  for (int r = 0; r < t; ++r) {
    std::memcpy(out + size_t(r) * ld, ctx.data() + size_t(r) * dh, head_bytes);
  }
}

std::vector<float> Gaussian(size_t n, float scale, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian()) * scale;
  return v;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

class KernelBitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CpuHasAvx2Fma()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
};

TEST_F(KernelBitsTest, LinearMatchesMatMulBiasReluComposition) {
  const int kNs[] = {1, 3, 7, 8, 15, 16, 17, 64, 128, 300};
  const int kKs[] = {1, 16, 64, 128, 257};
  for (const Reference& ref : References()) {
    for (int m = 1; m <= 13; ++m) {
      for (int n : kNs) {
        for (int k : kKs) {
          const auto a = Gaussian(size_t(m) * k, 1.f, 100 + m * 7 + k);
          const auto w = Gaussian(size_t(k) * n, 0.2f, 200 + n * 3 + k);
          const auto bias = Gaussian(n, 0.5f, 300 + n);
          for (bool relu : {false, true}) {
            // Pre-filled with different garbage: the kernels overwrite C.
            std::vector<float> want(size_t(m) * n, -3.f);
            std::vector<float> got(size_t(m) * n, 5.f);
            RefLinear(ref, a.data(), w.data(), bias.data(), want.data(), m, k,
                      n, relu);
            ref.backend->linear(a.data(), w.data(), bias.data(), got.data(),
                                m, k, n, relu);
            ASSERT_TRUE(SameBits(want, got))
                << ref.backend->name << " linear m=" << m << " k=" << k
                << " n=" << n << " relu=" << relu;
          }
        }
      }
    }
  }
}

TEST_F(KernelBitsTest, MatMulWithoutBiasKeepsItsBits) {
  for (const Reference& ref : References()) {
    for (int m : {1, 5, 6, 7, 13, 64}) {
      for (int n : {1, 3, 7, 8, 15, 16, 17, 64, 300}) {
        for (int k : {1, 16, 64, 257}) {
          const auto a = Gaussian(size_t(m) * k, 1.f, 400 + m + k);
          const auto b = Gaussian(size_t(k) * n, 0.2f, 500 + n + k);
          std::vector<float> want(size_t(m) * n), got(size_t(m) * n, 9.f);
          ref.matmul(a.data(), b.data(), want.data(), m, k, n);
          ref.backend->matmul(a.data(), b.data(), got.data(), m, k, n);
          ASSERT_TRUE(SameBits(want, got))
              << ref.backend->name << " matmul m=" << m << " k=" << k
              << " n=" << n;
          // linear with no bias is the same walk.
          ref.backend->linear(a.data(), b.data(), nullptr, got.data(), m, k, n,
                              false);
          ASSERT_TRUE(SameBits(want, got))
              << ref.backend->name << " linear(nullptr bias) m=" << m
              << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelBitsTest, DotKeepsItsBits) {
  const KernelBackend* avx2 = kernels::Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend in this build";
  for (int n = 0; n <= 70; ++n) {
    const auto x = Gaussian(n + 1, 1.f, 600 + n);
    const auto y = Gaussian(n + 1, 1.f, 700 + n);
    const float want = RefDotAvx2(x.data(), y.data(), n);
    const float got = avx2->dot(x.data(), y.data(), n);
    ASSERT_EQ(0, std::memcmp(&want, &got, sizeof(float))) << "dot n=" << n;
  }
}

// Every sequence length the encoder can see (max_positions = 96) and one
// past it, at the model's head width, at two widths with a dh % 8 tail and
// at one with an odd number of 8-float blocks (the dot form's lone block).
// The head sits inside wider rows, as in a [t, d_model] projection.
TEST_F(KernelBitsTest, AttendHeadMatchesCopyAndComposeForEveryLength) {
  for (const Reference& ref : References()) {
    for (int dh : {16, 12, 20, 24}) {
      const int ld = 4 * dh;
      const int off = dh;  // the second head
      const float scale = 1.f / std::sqrt(static_cast<float>(dh));
      for (int t = 1; t <= 97; ++t) {
        const auto q = Gaussian(size_t(t) * ld, 1.f, 800 + t);
        const auto k = Gaussian(size_t(t) * ld, 1.f, 900 + t);
        const auto v = Gaussian(size_t(t) * ld, 1.f, 1000 + t);
        std::vector<float> want_p(size_t(t) * t, -1.f), got_p(size_t(t) * t, 2.f);
        // The other heads' columns must come through untouched.
        std::vector<float> want_out(size_t(t) * ld, 7.f), got_out(want_out);
        RefAttendHead(ref, q.data() + off, k.data() + off, v.data() + off, ld,
                      t, dh, scale, want_p.data(), want_out.data() + off);
        ref.backend->attend_head(q.data() + off, k.data() + off,
                                 v.data() + off, ld, t, dh, scale,
                                 got_p.data(), got_out.data() + off);
        ASSERT_TRUE(SameBits(want_p, got_p))
            << ref.backend->name << " attention weights t=" << t
            << " dh=" << dh;
        ASSERT_TRUE(SameBits(want_out, got_out))
            << ref.backend->name << " context t=" << t << " dh=" << dh;
      }
    }
  }
}

}  // namespace
}  // namespace emd

#else  // !(__AVX2__ && __FMA__)

TEST(KernelBitsTest, NeedsAnAvx2FmaBuild) {
  GTEST_SKIP() << "this toolchain cannot compile the AVX2 references";
}

#endif
