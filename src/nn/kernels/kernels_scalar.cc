// Scalar reference backend. The GEMM, softmax, layer-norm and logsumexp
// bodies are the pre-kernel-layer implementations moved verbatim from
// nn/matrix.cc / nn/layer_norm.cc so that EMD_BACKEND=scalar reproduces
// pre-SIMD pipeline output bit for bit. This file must be compiled WITHOUT
// -mavx2/-mfma (and without fast-math) for the same reason: no FP
// contraction differences against the historical build.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/kernels.h"

namespace emd {
namespace kernels {
namespace {

// Cache blocking for the C = A*B kernel: a kBlockK x kBlockJ panel of B
// (64 * 128 * 4B = 32 KB) is streamed over all rows of A before moving on,
// so it stays L1/L2-resident instead of being re-fetched per output row.
// Within a panel, four A rows are processed together: each loaded B value
// feeds four accumulator rows, quartering B-side memory traffic. The k index
// always advances in ascending order for any (i, j), so results are
// bit-identical across block sizes (and to the unblocked triple loop).
constexpr int kGemmBlockK = 64;
constexpr int kGemmBlockJ = 128;

// C[i0..i0+4) += A[i0..i0+4, p0..p1) * B[p0..p1, j0..j1), row-major,
// leading dimensions lda/ldn.
inline void GemmPanel4(const float* __restrict a, const float* __restrict b,
                       float* __restrict c, int lda, int ldn, int p0, int p1,
                       int j0, int j1) {
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  float* c0 = c;
  float* c1 = c + ldn;
  float* c2 = c + 2 * ldn;
  float* c3 = c + 3 * ldn;
  for (int p = p0; p < p1; ++p) {
    const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
    const float* __restrict brow = b + size_t(p) * ldn;
    for (int j = j0; j < j1; ++j) {
      const float bv = brow[j];
      c0[j] += av0 * bv;
      c1[j] += av1 * bv;
      c2[j] += av2 * bv;
      c3[j] += av3 * bv;
    }
  }
}

inline void GemmPanel1(const float* __restrict arow, const float* __restrict b,
                       float* __restrict crow, int ldn, int p0, int p1, int j0,
                       int j1) {
  for (int p = p0; p < p1; ++p) {
    const float av = arow[p];
    const float* __restrict brow = b + size_t(p) * ldn;
    for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
  }
}

void MatMulScalar(const float* A, const float* B, float* C, int m, int k,
                  int n) {
  std::memset(C, 0, sizeof(float) * size_t(m) * n);
  for (int p0 = 0; p0 < k; p0 += kGemmBlockK) {
    const int p1 = std::min(p0 + kGemmBlockK, k);
    for (int j0 = 0; j0 < n; j0 += kGemmBlockJ) {
      const int j1 = std::min(j0 + kGemmBlockJ, n);
      int i = 0;
      for (; i + 3 < m; i += 4) {
        GemmPanel4(A + size_t(i) * k, B, C + size_t(i) * n, k, n, p0, p1, j0,
                   j1);
      }
      for (; i < m; ++i) {
        GemmPanel1(A + size_t(i) * k, B, C + size_t(i) * n, n, p0, p1, j0, j1);
      }
    }
  }
}

void MatMulBTScalar(const float* A, const float* B, float* C, int m, int k,
                    int n) {
  // Dot-product form: tile 2 rows of A x 4 rows of B so each loaded input
  // value feeds several of the 8 independent accumulator chains (ILP), and
  // the B rows are reused from registers/L1 across both A rows.
  int i = 0;
  for (; i + 1 < m; i += 2) {
    const float* __restrict a0 = A + size_t(i) * k;
    const float* __restrict a1 = A + size_t(i + 1) * k;
    float* crow0 = C + size_t(i) * n;
    float* crow1 = C + size_t(i + 1) * n;
    int j = 0;
    for (; j + 3 < n; j += 4) {
      const float* __restrict b0 = B + size_t(j) * k;
      const float* __restrict b1 = B + size_t(j + 1) * k;
      const float* __restrict b2 = B + size_t(j + 2) * k;
      const float* __restrict b3 = B + size_t(j + 3) * k;
      float s00 = 0, s01 = 0, s02 = 0, s03 = 0;
      float s10 = 0, s11 = 0, s12 = 0, s13 = 0;
      for (int p = 0; p < k; ++p) {
        const float av0 = a0[p], av1 = a1[p];
        s00 += av0 * b0[p];
        s01 += av0 * b1[p];
        s02 += av0 * b2[p];
        s03 += av0 * b3[p];
        s10 += av1 * b0[p];
        s11 += av1 * b1[p];
        s12 += av1 * b2[p];
        s13 += av1 * b3[p];
      }
      crow0[j] = s00;
      crow0[j + 1] = s01;
      crow0[j + 2] = s02;
      crow0[j + 3] = s03;
      crow1[j] = s10;
      crow1[j + 1] = s11;
      crow1[j + 2] = s12;
      crow1[j + 3] = s13;
    }
    for (; j < n; ++j) {
      const float* __restrict brow = B + size_t(j) * k;
      float s0 = 0, s1 = 0;
      for (int p = 0; p < k; ++p) {
        s0 += a0[p] * brow[p];
        s1 += a1[p] * brow[p];
      }
      crow0[j] = s0;
      crow1[j] = s1;
    }
  }
  for (; i < m; ++i) {
    const float* __restrict arow = A + size_t(i) * k;
    float* crow = C + size_t(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* __restrict brow = B + size_t(j) * k;
      float s = 0;
      for (int p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

void MatMulATScalar(const float* A, const float* B, float* C, int k, int m,
                    int n) {
  std::memset(C, 0, sizeof(float) * size_t(m) * n);
  // Rank-1 update per p; four C rows share each loaded B row.
  for (int p = 0; p < k; ++p) {
    const float* __restrict arow = A + size_t(p) * m;
    const float* __restrict brow = B + size_t(p) * n;
    int i = 0;
    for (; i + 3 < m; i += 4) {
      const float av0 = arow[i], av1 = arow[i + 1];
      const float av2 = arow[i + 2], av3 = arow[i + 3];
      float* c0 = C + size_t(i) * n;
      float* c1 = C + size_t(i + 1) * n;
      float* c2 = C + size_t(i + 2) * n;
      float* c3 = C + size_t(i + 3) * n;
      for (int j = 0; j < n; ++j) {
        const float bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
    for (; i < m; ++i) {
      const float av = arow[i];
      float* crow = C + size_t(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

float DotScalar(const float* x, const float* y, int n) {
  float s = 0;
  for (int i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void AxpyScalar(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void VAddScalar(const float* x, const float* y, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void VScaleScalar(float alpha, float* x, int n) {
  for (int i = 0; i < n; ++i) x[i] *= alpha;
}

void ReluScalar(const float* x, float* y, float* mask, int n) {
  if (mask != nullptr) {
    for (int i = 0; i < n; ++i) {
      const bool pos = x[i] > 0;
      y[i] = pos ? x[i] : 0.f;
      mask[i] = pos ? 1.f : 0.f;
    }
  } else {
    for (int i = 0; i < n; ++i) y[i] = x[i] > 0 ? x[i] : 0.f;
  }
}

// Tanh-approximation GeLU constants (shared with the AVX2 backend).
constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubicCoeff = 0.044715f;

void GeluScalar(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kGeluSqrt2OverPi * (v + kGeluCubicCoeff * v * v * v);
    y[i] = 0.5f * v * (1.f + std::tanh(inner));
  }
}

void TanhScalar(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void SigmoidScalarKernel(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    if (v >= 0) {
      const float z = std::exp(-v);
      y[i] = 1.f / (1.f + z);
    } else {
      const float z = std::exp(v);
      y[i] = z / (1.f + z);
    }
  }
}

void SoftmaxRowsScalar(float* a, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = a + size_t(r) * cols;
    float mx = row[0];
    for (int j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double s = 0;
    for (int j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      s += row[j];
    }
    const float inv = static_cast<float>(1.0 / s);
    for (int j = 0; j < cols; ++j) row[j] *= inv;
  }
}

void LayerNormScalar(const float* x, const float* gamma, const float* beta,
                     float eps, int rows, int cols, float* y, float* xhat,
                     float* inv_std) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + size_t(r) * cols;
    double mean = 0;
    for (int j = 0; j < cols; ++j) mean += xr[j];
    mean /= cols;
    double var = 0;
    for (int j = 0; j < cols; ++j) {
      double d = xr[j] - mean;
      var += d * d;
    }
    var /= cols;
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std[r] = istd;
    float* xh = xhat + size_t(r) * cols;
    float* yr = y + size_t(r) * cols;
    for (int j = 0; j < cols; ++j) {
      xh[j] = (xr[j] - static_cast<float>(mean)) * istd;
      yr[j] = gamma[j] * xh[j] + beta[j];
    }
  }
}

double LogSumExpScalar(const float* x, int n) {
  float mx = x[0];
  for (int i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  double s = 0;
  for (int i = 0; i < n; ++i) s += std::exp(double(x[i]) - mx);
  return double(mx) + std::log(s);
}

void LinearScalar(const float* a, const float* w, const float* bias, float* c,
                  int m, int k, int n, bool relu) {
  MatMulScalar(a, w, c, m, k, n);
  if (bias != nullptr) {
    for (int i = 0; i < m; ++i) AxpyScalar(1.f, bias, c + size_t(i) * n, n);
  }
  if (relu) ReluScalar(c, c, nullptr, m * n);
}

// The strided head slices are read in place; each score and each context
// element sums its products in ascending order from zero, as MatMulBTScalar
// and MatMulScalar do over contiguous copies.
void AttendHeadScalar(const float* q, const float* k, const float* v, int ld,
                      int tq, int tk, int dh, float scale, float* p,
                      float* out) {
  for (int i = 0; i < tq; ++i) {
    const float* qi = q + size_t(i) * ld;
    float* prow = p + size_t(i) * tk;
    for (int j = 0; j < tk; ++j) {
      const float* kj = k + size_t(j) * ld;
      float s = 0;
      for (int c = 0; c < dh; ++c) s += qi[c] * kj[c];
      prow[j] = s;
    }
  }
  VScaleScalar(scale, p, tq * tk);
  SoftmaxRowsScalar(p, tq, tk);
  for (int i = 0; i < tq; ++i) {
    const float* prow = p + size_t(i) * tk;
    float* orow = out + size_t(i) * ld;
    for (int c = 0; c < dh; ++c) {
      float s = 0;
      for (int j = 0; j < tk; ++j) s += prow[j] * v[size_t(j) * ld + c];
      orow[c] = s;
    }
  }
}

}  // namespace

const KernelBackend& ScalarKernels() {
  static const KernelBackend backend = {
      "scalar",        MatMulScalar,  MatMulBTScalar,      MatMulATScalar,
      LinearScalar,    AttendHeadScalar,
      DotScalar,       AxpyScalar,    VAddScalar,          VScaleScalar,
      ReluScalar,      GeluScalar,    TanhScalar,          SigmoidScalarKernel,
      SoftmaxRowsScalar, LayerNormScalar, LogSumExpScalar,
  };
  return backend;
}

}  // namespace kernels
}  // namespace emd
