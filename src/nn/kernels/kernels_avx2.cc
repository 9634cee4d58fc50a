// AVX2+FMA kernel backend.
//
// This translation unit is the ONLY one compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt); every entry point is reached exclusively through
// the runtime dispatcher, which verifies CPU support first. When the
// toolchain cannot target AVX2 the whole file degrades to a stub that
// returns nullptr from Avx2Kernels().
//
// Accuracy contract: each kernel may differ from the scalar backend by
// float-rounding noise only (FMA contraction, vectorized reduction order,
// polynomial exp). tests/kernels_test.cc asserts <= 1e-5 max-abs divergence
// on every kernel over odd/remainder shapes. matmul, linear, dot and
// attend_head also keep the exact bits of the kernels they replaced;
// tests/kernels_bits_test.cc pins them against verbatim copies.

#include "nn/kernels/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace emd {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Small vector helpers.
// ---------------------------------------------------------------------------

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

inline float HMax256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_max_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x55);
  lo = _mm_max_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

// Vectorized e^x, Cephes-style: range-reduce by powers of two, degree-5
// minimax polynomial on the remainder, reassemble the exponent through the
// float bit pattern. Max relative error ~2 ulp over the clamped domain.
inline __m256 Exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.f);

  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

  // n = round(x / ln 2); r = x - n ln 2 in two steps (c1 + c2 = ln 2).
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = p0;
  y = _mm256_fmadd_ps(y, x, p1);
  y = _mm256_fmadd_ps(y, x, p2);
  y = _mm256_fmadd_ps(y, x, p3);
  y = _mm256_fmadd_ps(y, x, p4);
  y = _mm256_fmadd_ps(y, x, p5);
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

inline __m256 Tanh256(__m256 x) {
  // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1); Exp256's input clamp keeps
  // e^{2x} finite, so the quotient saturates cleanly to +-1.
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 e = Exp256(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

inline __m256 Sigmoid256(__m256 x) {
  // Stable form: t = e^{-|x|}; sigmoid = 1/(1+t) for x >= 0, t/(1+t) else.
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 t = Exp256(_mm256_sub_ps(zero, _mm256_and_ps(x, abs_mask)));
  const __m256 denom = _mm256_add_ps(one, t);
  const __m256 pos = _mm256_div_ps(one, denom);
  const __m256 neg = _mm256_div_ps(t, denom);
  return _mm256_blendv_ps(pos, neg, _mm256_cmp_ps(x, zero, _CMP_LT_OQ));
}

// Scalar tails reuse the exact scalar-backend expressions so the remainder
// elements carry no extra approximation error.
inline float SigmoidTail(float v) {
  if (v >= 0) {
    const float z = std::exp(-v);
    return 1.f / (1.f + z);
  }
  const float z = std::exp(v);
  return z / (1.f + z);
}

// ---------------------------------------------------------------------------
// GEMM family.
// ---------------------------------------------------------------------------

// One GEMM walk serves matmul, linear and the P V product of attend_head:
// C = A B (+ bias) (then max(., 0)) over strided rows. Every accumulator
// starts at zero and walks p = 0..k-1 in order with one FMA per step, so
// each element of C is the same FMA chain whatever tile, lane or k-panel
// computes it (the historical 4x16 / 4x8 / 1-row kernels, whose scalar
// column tail compiles to vfmadd231ss, produced exactly these chains). The
// bias add and the ReLU happen in the store.
struct GemmArgs {
  const float* a;
  int lda;
  const float* b;
  int ldb;
  const float* bias;  // nullptr: no bias
  bool relu;
  float* c;
  int ldc;
  int k;
};

// R rows x V 8-float column vectors of C starting at (i, j). Up to 12
// accumulators stay in registers for the whole k walk.
template <int R, int V>
inline void Tile(const GemmArgs& g, int i, int j) {
  // Strides live in locals and the operand pointers step once per p, so
  // every row address is a pointer plus a hoisted offset and each step of
  // the k walk costs two pointer increments besides the FMAs.
  const size_t lda = g.lda, ldb = g.ldb;
  const float* __restrict ap = g.a + i * lda;
  const float* __restrict bp = g.b + j;
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (int p = g.k; p > 0; --p, ++ap, bp += ldb) {
    // Keep the shorter operand list in registers: 12 accumulators plus
    // min(R, V) + 1 operands fit the 16 ymm registers.
    if constexpr (R > V) {
      __m256 bv[V];
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(ap + r * lda);
#pragma GCC unroll 8
        for (int v = 0; v < V; ++v) {
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
      }
    } else {
      __m256 av[R];
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) av[r] = _mm256_broadcast_ss(ap + r * lda);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        const __m256 bv = _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
          acc[r][v] = _mm256_fmadd_ps(av[r], bv, acc[r][v]);
        }
      }
    }
  }
  // Epilogue: bias add and ReLU in the store.
  const float* bias = g.bias == nullptr ? nullptr : g.bias + j;
  const bool relu = g.relu;
  const size_t ldc = g.ldc;
  float* c = g.c + i * ldc + j;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      __m256 x = acc[r][v];
      if (bias != nullptr) x = _mm256_add_ps(x, _mm256_loadu_ps(bias + 8 * v));
      if (relu) x = _mm256_max_ps(x, _mm256_setzero_ps());
      _mm256_storeu_ps(c + r * ldc + 8 * v, x);
    }
  }
}

// The last w < 8 columns of R rows: masked loads and stores keep the lanes
// past the matrix edge out of memory.
template <int R>
inline void TileMasked(const GemmArgs& g, int i, int j, int w) {
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(w), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const size_t lda = g.lda, ldb = g.ldb;
  const float* __restrict ap = g.a + i * lda;
  const float* __restrict bp = g.b + j;
  __m256 acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (int p = g.k; p > 0; --p, ++ap, bp += ldb) {
    const __m256 bv = _mm256_maskload_ps(bp, mask);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + r * lda), bv, acc[r]);
    }
  }
  const __m256 bias = g.bias != nullptr ? _mm256_maskload_ps(g.bias + j, mask)
                                        : _mm256_setzero_ps();
  float* c = g.c + size_t(i) * g.ldc + j;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    __m256 x = acc[r];
    if (g.bias != nullptr) x = _mm256_add_ps(x, bias);
    if (g.relu) x = _mm256_max_ps(x, _mm256_setzero_ps());
    _mm256_maskstore_ps(c + size_t(r) * g.ldc, mask, x);
  }
}

// R rows of C, every column. Six rows use 6x16 tiles; fewer rows (the
// m % 6 tail, or the phrase embedder's 1-3 pooled spans) widen the tile to
// four column vectors so enough independent chains stay in flight.
template <int R>
void RowStrip(const GemmArgs& g, int i, int n) {
  constexpr int V = R <= 3 ? 4 : 2;
  int j = 0;
  for (; j + 8 * V <= n; j += 8 * V) Tile<R, V>(g, i, j);
  if constexpr (V > 2) {
    for (; j + 16 <= n; j += 16) Tile<R, 2>(g, i, j);
  }
  for (; j + 8 <= n; j += 8) Tile<R, 1>(g, i, j);
  if (j < n) TileMasked<R>(g, i, j, n - j);
}

// Narrow C (n < 8, e.g. the 3-label word head or a 1-logit classifier
// output): eight rows ride in the vector lanes, one accumulator per output
// column, so the chains run eight rows at a time instead of one scalar FMA
// chain per element. A is transposed 8x8 on the fly.
template <int N>
void NarrowN(const GemmArgs& g, int m) {
  const int k = g.k;
  const size_t ldb = g.ldb;
  for (int i = 0; i < m; i += 8) {
    const int rows = std::min(8, m - i);
    // Lanes past the last row read that row again and are not stored.
    const float* arow[8];
    for (int r = 0; r < 8; ++r) {
      arow[r] = g.a + size_t(i + std::min(r, rows - 1)) * g.lda;
    }
    __m256 acc[N];
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j) acc[j] = _mm256_setzero_ps();
    int p = 0;
    for (; p + 7 < k; p += 8) {
      // 8x8 transpose: col[q] holds A[i..i+7, p + q].
      const __m256 r0 = _mm256_loadu_ps(arow[0] + p);
      const __m256 r1 = _mm256_loadu_ps(arow[1] + p);
      const __m256 r2 = _mm256_loadu_ps(arow[2] + p);
      const __m256 r3 = _mm256_loadu_ps(arow[3] + p);
      const __m256 r4 = _mm256_loadu_ps(arow[4] + p);
      const __m256 r5 = _mm256_loadu_ps(arow[5] + p);
      const __m256 r6 = _mm256_loadu_ps(arow[6] + p);
      const __m256 r7 = _mm256_loadu_ps(arow[7] + p);
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
      const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
      const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
      const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
      const __m256 col[8] = {
          _mm256_permute2f128_ps(u0, u4, 0x20),
          _mm256_permute2f128_ps(u1, u5, 0x20),
          _mm256_permute2f128_ps(u2, u6, 0x20),
          _mm256_permute2f128_ps(u3, u7, 0x20),
          _mm256_permute2f128_ps(u0, u4, 0x31),
          _mm256_permute2f128_ps(u1, u5, 0x31),
          _mm256_permute2f128_ps(u2, u6, 0x31),
          _mm256_permute2f128_ps(u3, u7, 0x31),
      };
#pragma GCC unroll 8
      for (int q = 0; q < 8; ++q) {
        const float* __restrict brow = g.b + (p + q) * ldb;
#pragma GCC unroll 8
        for (int j = 0; j < N; ++j) {
          acc[j] = _mm256_fmadd_ps(col[q], _mm256_broadcast_ss(brow + j),
                                   acc[j]);
        }
      }
    }
    for (; p < k; ++p) {
      const __m256 col = _mm256_setr_ps(
          arow[0][p], arow[1][p], arow[2][p], arow[3][p], arow[4][p],
          arow[5][p], arow[6][p], arow[7][p]);
      const float* __restrict brow = g.b + p * ldb;
#pragma GCC unroll 8
      for (int j = 0; j < N; ++j) {
        acc[j] = _mm256_fmadd_ps(col, _mm256_broadcast_ss(brow + j), acc[j]);
      }
    }
    alignas(32) float out[N][8];
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j) {
      __m256 x = acc[j];
      if (g.bias != nullptr) {
        x = _mm256_add_ps(x, _mm256_broadcast_ss(g.bias + j));
      }
      if (g.relu) x = _mm256_max_ps(x, _mm256_setzero_ps());
      _mm256_store_ps(out[j], x);
    }
    for (int r = 0; r < rows; ++r) {
      float* crow = g.c + size_t(i + r) * g.ldc;
      for (int j = 0; j < N; ++j) crow[j] = out[j][r];
    }
  }
}

void Gemm(const GemmArgs& g, int m, int n) {
  if (m <= 0 || n <= 0) return;
  switch (n) {
    case 1: return NarrowN<1>(g, m);
    case 2: return NarrowN<2>(g, m);
    case 3: return NarrowN<3>(g, m);
    case 4: return NarrowN<4>(g, m);
    case 5: return NarrowN<5>(g, m);
    case 6: return NarrowN<6>(g, m);
    case 7: return NarrowN<7>(g, m);
    default: break;
  }
  int i = 0;
  for (; i + 6 <= m; i += 6) RowStrip<6>(g, i, n);
  switch (m - i) {
    case 1: return RowStrip<1>(g, i, n);
    case 2: return RowStrip<2>(g, i, n);
    case 3: return RowStrip<3>(g, i, n);
    case 4: return RowStrip<4>(g, i, n);
    case 5: return RowStrip<5>(g, i, n);
    default: return;
  }
}

void LinearAvx2(const float* A, const float* W, const float* bias, float* C,
                int m, int k, int n, bool relu) {
  Gemm({A, k, W, n, bias, relu, C, n, k}, m, n);
}

void MatMulAvx2(const float* A, const float* B, float* C, int m, int k,
                int n) {
  Gemm({A, k, B, n, nullptr, false, C, n, k}, m, n);
}

float DotAvx2(const float* x, const float* y, int n) {
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
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

void MatMulBTAvx2(const float* A, const float* B, float* C, int m, int k,
                  int n) {
  // Dot-product form, 1 A row x 4 B rows: four independent vector
  // accumulator chains share each loaded A vector.
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
    for (; j < n; ++j) crow[j] = DotAvx2(a, B + size_t(j) * k, k);
  }
}

void MatMulATAvx2(const float* A, const float* B, float* C, int k, int m,
                  int n) {
  std::memset(C, 0, sizeof(float) * size_t(m) * n);
  // Rank-1 update per p, vectorized along the shared B row.
  for (int p = 0; p < k; ++p) {
    const float* __restrict arow = A + size_t(p) * m;
    const float* __restrict brow = B + size_t(p) * n;
    for (int i = 0; i < m; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + i);
      float* crow = C + size_t(i) * n;
      int j = 0;
      for (; j + 7 < n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      const float avs = arow[i];
      for (; j < n; ++j) crow[j] += avs * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// BLAS-1 style.
// ---------------------------------------------------------------------------

void AxpyAvx2(float alpha, const float* x, float* y, int n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 7 < n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void VAddAvx2(const float* x, const float* y, float* out, int n) {
  int i = 0;
  for (; i + 7 < n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
}

void VScaleAvx2(float alpha, float* x, int n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 7 < n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

// ---------------------------------------------------------------------------
// Elementwise activations.
// ---------------------------------------------------------------------------

void ReluAvx2(const float* x, float* y, float* mask, int n) {
  const __m256 zero = _mm256_setzero_ps();
  int i = 0;
  if (mask != nullptr) {
    const __m256 one = _mm256_set1_ps(1.f);
    for (; i + 7 < n; i += 8) {
      const __m256 v = _mm256_loadu_ps(x + i);
      const __m256 gt = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
      _mm256_storeu_ps(y + i, _mm256_max_ps(v, zero));
      _mm256_storeu_ps(mask + i, _mm256_and_ps(gt, one));
    }
    for (; i < n; ++i) {
      const bool pos = x[i] > 0;
      y[i] = pos ? x[i] : 0.f;
      mask[i] = pos ? 1.f : 0.f;
    }
  } else {
    for (; i + 7 < n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
    }
    for (; i < n; ++i) y[i] = x[i] > 0 ? x[i] : 0.f;
  }
}

constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubicCoeff = 0.044715f;

void GeluAvx2(const float* x, float* y, int n) {
  // 0.5 x (1 + tanh(s(x + c x^3))) with s(x + c x^3) = x(s + s*c*x^2).
  const __m256 s = _mm256_set1_ps(kGeluSqrt2OverPi);
  const __m256 sc = _mm256_set1_ps(kGeluSqrt2OverPi * kGeluCubicCoeff);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.f);
  int i = 0;
  for (; i + 7 < n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 inner =
        _mm256_mul_ps(v, _mm256_fmadd_ps(sc, _mm256_mul_ps(v, v), s));
    const __m256 t = Tanh256(inner);
    _mm256_storeu_ps(
        y + i,
        _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  for (; i < n; ++i) {
    const float v = x[i];
    const float inner = kGeluSqrt2OverPi * (v + kGeluCubicCoeff * v * v * v);
    y[i] = 0.5f * v * (1.f + std::tanh(inner));
  }
}

void TanhAvx2(const float* x, float* y, int n) {
  int i = 0;
  for (; i + 7 < n; i += 8) {
    _mm256_storeu_ps(y + i, Tanh256(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = std::tanh(x[i]);
}

void SigmoidAvx2(const float* x, float* y, int n) {
  int i = 0;
  for (; i + 7 < n; i += 8) {
    _mm256_storeu_ps(y + i, Sigmoid256(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = SigmoidTail(x[i]);
}

// ---------------------------------------------------------------------------
// Row-wise ops.
// ---------------------------------------------------------------------------

void SoftmaxRowsAvx2(float* a, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = a + size_t(r) * cols;
    float mx = row[0];
    int j = 0;
    if (cols >= 8) {
      __m256 vmx = _mm256_loadu_ps(row);
      for (j = 8; j + 7 < cols; j += 8) {
        vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(row + j));
      }
      mx = HMax256(vmx);
    }
    for (; j < cols; ++j) mx = std::max(mx, row[j]);

    const __m256 vm = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (j = 0; j + 7 < cols; j += 8) {
      const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + j), vm));
      _mm256_storeu_ps(row + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    float s = HSum256(vsum);
    for (; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      s += row[j];
    }

    const float inv = 1.f / s;
    VScaleAvx2(inv, row, cols);
  }
}

void LayerNormAvx2(const float* x, const float* gamma, const float* beta,
                   float eps, int rows, int cols, float* y, float* xhat,
                   float* inv_std) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + size_t(r) * cols;
    __m256 vsum = _mm256_setzero_ps();
    int j = 0;
    for (; j + 7 < cols; j += 8) {
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(xr + j));
    }
    float mean = HSum256(vsum);
    for (; j < cols; ++j) mean += xr[j];
    mean /= cols;

    const __m256 vmean = _mm256_set1_ps(mean);
    __m256 vvar = _mm256_setzero_ps();
    for (j = 0; j + 7 < cols; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean);
      vvar = _mm256_fmadd_ps(d, d, vvar);
    }
    float var = HSum256(vvar);
    for (; j < cols; ++j) {
      const float d = xr[j] - mean;
      var += d * d;
    }
    var /= cols;

    const float istd = 1.f / std::sqrt(var + eps);
    inv_std[r] = istd;
    float* xh = xhat + size_t(r) * cols;
    float* yr = y + size_t(r) * cols;
    const __m256 vistd = _mm256_set1_ps(istd);
    for (j = 0; j + 7 < cols; j += 8) {
      const __m256 h = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean), vistd);
      _mm256_storeu_ps(xh + j, h);
      _mm256_storeu_ps(yr + j,
                       _mm256_fmadd_ps(_mm256_loadu_ps(gamma + j), h,
                                       _mm256_loadu_ps(beta + j)));
    }
    for (; j < cols; ++j) {
      xh[j] = (xr[j] - mean) * istd;
      yr[j] = gamma[j] * xh[j] + beta[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Attention.
// ---------------------------------------------------------------------------

// [HSum256(s[0]), ..., HSum256(s[7])] in one register: a transposed
// reduction that adds in HSum256's association order, ((v0 + v4) + (v2 +
// v6)) + ((v1 + v5) + (v3 + v7)), so every lane has HSum256's bits. Blends
// stand in for half the shuffles, so it costs 8 shuffle-port uops for eight
// sums where eight HSum256 calls cost 24.
inline __m256 HSum8(const __m256 s[8]) {
  // [lo + hi of s[c] | hi + lo of s[c + 4]] for c = 0..3.
  __m256 t[4];
#pragma GCC unroll 4
  for (int c = 0; c < 4; ++c) {
    t[c] = _mm256_add_ps(_mm256_blend_ps(s[c], s[c + 4], 0xF0),
                         _mm256_permute2f128_ps(s[c], s[c + 4], 0x21));
  }
  // Lanes 0+2 and 1+3: [u0 u0' u1 u1' | u4 u4' u5 u5'] and the same for
  // columns 2, 3, 6, 7.
  const __m256 u01 = _mm256_add_ps(_mm256_blend_ps(t[0], t[1], 0xCC),
                                   _mm256_shuffle_ps(t[0], t[1], 0x4E));
  const __m256 u23 = _mm256_add_ps(_mm256_blend_ps(t[2], t[3], 0xCC),
                                   _mm256_shuffle_ps(t[2], t[3], 0x4E));
  return _mm256_hadd_ps(u01, u23);
}

// Eight scores q . kc[c] in the form matmul_bt gives its 4-column groups:
// one FMA chain over the 8-float blocks, reduced by HSum8, then a scalar
// FMA tail over dh % 8. Lanes 0-3 take their query row from q_lo and lanes
// 4-7 from q_hi, so a lone 4-column group fills the register with two rows.
[[gnu::always_inline]] inline __m256 GroupScores(const float* q_lo,
                                                 const float* q_hi,
                                                 const float* const kc[8],
                                                 int dh) {
  const int blocks = dh & ~7;
  __m256 s[8];
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) s[c] = _mm256_setzero_ps();
  for (int pb = 0; pb < blocks; pb += 8) {
    const __m256 lo = _mm256_loadu_ps(q_lo + pb);
    const __m256 hi = _mm256_loadu_ps(q_hi + pb);
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) {
      s[c] = _mm256_fmadd_ps(c < 4 ? lo : hi, _mm256_loadu_ps(kc[c] + pb),
                             s[c]);
    }
  }
  __m256 r = HSum8(s);
  if (blocks < dh) {
    alignas(32) float sc[8];
    _mm256_store_ps(sc, r);
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) {
      const float* q = c < 4 ? q_lo : q_hi;
      for (int p = blocks; p < dh; ++p) sc[c] = std::fma(q[p], kc[c][p], sc[c]);
    }
    r = _mm256_load_ps(sc);
  }
  return r;
}

// Scores of every query row against the key rows j0..j0+7, scaled in the
// store as vscale did after matmul_bt.
void GroupColumns8(const float* q, const float* k, size_t ld, int t, int dh,
                   int j0, __m256 scale, float* p) {
  const float* kc[8];
  for (int c = 0; c < 8; ++c) kc[c] = k + (j0 + c) * ld;
  for (int i = 0; i < t; ++i) {
    const float* qi = q + i * ld;
    _mm256_storeu_ps(p + size_t(i) * t + j0,
                     _mm256_mul_ps(GroupScores(qi, qi, kc, dh), scale));
  }
}

// The same for a lone last group of four key rows, two query rows per
// register (an odd last row pairs with itself).
void GroupColumns4(const float* q, const float* k, size_t ld, int t, int dh,
                   int j0, __m256 scale, float* p) {
  const float* kc[8];
  for (int c = 0; c < 8; ++c) kc[c] = k + (j0 + c % 4) * ld;
  for (int i = 0; i < t; i += 2) {
    const int i2 = std::min(i + 1, t - 1);
    const __m256 r = _mm256_mul_ps(
        GroupScores(q + i * ld, q + i2 * ld, kc, dh), scale);
    _mm_storeu_ps(p + size_t(i) * t + j0, _mm256_castps256_ps128(r));
    _mm_storeu_ps(p + size_t(i2) * t + j0, _mm256_extractf128_ps(r, 1));
  }
}

// One head, read in place from the strided Q/K/V rows. The scores of the
// 4-column groups (j < t & ~3) go eight key rows at a time through
// GroupScores; the at most three columns past them use DotAvx2, as
// matmul_bt did. Softmax is SoftmaxRowsAvx2 unchanged, and P V is the GEMM
// walk writing straight into the head's columns of the context.
void AttendHeadAvx2(const float* q, const float* k, const float* v, int ld,
                    int t, int dh, float scale, float* p, float* out) {
  const int groups = t & ~3;
  const __m256 vscale = _mm256_set1_ps(scale);
  int j0 = 0;
  for (; j0 + 8 <= groups; j0 += 8) {
    GroupColumns8(q, k, ld, t, dh, j0, vscale, p);
  }
  if (j0 < groups) GroupColumns4(q, k, ld, t, dh, j0, vscale, p);
  for (int i = 0; i < t; ++i) {
    for (int j = groups; j < t; ++j) {
      p[size_t(i) * t + j] =
          DotAvx2(q + size_t(i) * ld, k + size_t(j) * ld, dh) * scale;
    }
  }
  SoftmaxRowsAvx2(p, t, t);
  Gemm({p, t, v, ld, nullptr, false, out, ld, t}, t, dh);
}

double LogSumExpAvx2(const float* x, int n) {
  float mx = x[0];
  int i = 0;
  if (n >= 8) {
    __m256 vmx = _mm256_loadu_ps(x);
    for (i = 8; i + 7 < n; i += 8) {
      vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(x + i));
    }
    mx = HMax256(vmx);
  }
  for (; i < n; ++i) mx = std::max(mx, x[i]);

  const __m256 vm = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (i = 0; i + 7 < n; i += 8) {
    vsum = _mm256_add_ps(vsum,
                         Exp256(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm)));
  }
  double s = double(HSum256(vsum));
  for (; i < n; ++i) s += std::exp(double(x[i]) - mx);
  return double(mx) + std::log(s);
}

}  // namespace

const KernelBackend* Avx2Kernels() {
  static const KernelBackend backend = {
      "avx2",          MatMulAvx2,    MatMulBTAvx2,  MatMulATAvx2,
      LinearAvx2,      AttendHeadAvx2,
      DotAvx2,         AxpyAvx2,      VAddAvx2,      VScaleAvx2,
      ReluAvx2,        GeluAvx2,      TanhAvx2,      SigmoidAvx2,
      SoftmaxRowsAvx2, LayerNormAvx2, LogSumExpAvx2,
  };
  return &backend;
}

}  // namespace kernels
}  // namespace emd

#else  // !(__AVX2__ && __FMA__)

namespace emd {
namespace kernels {

const KernelBackend* Avx2Kernels() { return nullptr; }

}  // namespace kernels
}  // namespace emd

#endif
