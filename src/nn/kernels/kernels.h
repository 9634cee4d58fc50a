// Compute-kernel layer: one table of function pointers per backend, selected
// once at runtime by CPU-feature detection (util/cpuid).
//
// Fp32 backends:
//   * scalar — the pre-SIMD reference code, moved here verbatim from
//     nn/matrix.cc / nn/activations.cc / nn/layer_norm.cc. It is the
//     bit-exact baseline: under EMD_BACKEND=scalar the pipeline reproduces
//     pre-kernel-layer output bit for bit.
//   * avx2 — AVX2+FMA microkernels (kernels_avx2.cc, compiled with
//     -mavx2 -mfma only; every call is guarded by runtime dispatch). May
//     diverge from scalar by float-rounding noise only (the `kernels` ctest
//     label asserts <= 1e-5 max-abs divergence per kernel).
//
// Quantized int8 backends (kernels_int8.cc / kernels_int8_avx2.cc): symmetric
// per-channel int8 weights x per-row dynamic int8 activations with exact
// int32 accumulation. Both int8 implementations compute the same integer
// accumulator bit for bit (the AVX2 path widens s8 to s16 and uses vpmaddwd,
// which cannot saturate at |x| <= 127), so the int8 path is deterministic
// across SIMD levels. The int8 path only runs where a model opted in by
// pre-quantizing its weights; everything else still uses the fp32 table.
//
// Dispatch policy (dispatch.cc): a single tri-state selector, read once at
// first use from EMD_BACKEND in {auto, scalar, avx2, int8}:
//   * auto (default) — avx2 when the binary has it and the CPU reports
//     AVX2+FMA, otherwise scalar.
//   * scalar — always the scalar fp32 table; int8 disabled.
//   * avx2 — the AVX2 fp32 table; falls back to scalar (with the gauge
//     reporting the fallback) when unavailable; int8 disabled.
//   * int8 — fp32 table resolves as `auto` AND Int8Enabled() turns on the
//     quantized path in models that pre-quantized their weights.
// The choice is made once (thread-safe magic static), exported as the
// `emd_kernel_backend_info{backend=...}` gauge (label = resolved selector
// name), and never changes for the life of the process — a run is always
// deterministic within one backend.

#ifndef EMD_NN_KERNELS_KERNELS_H_
#define EMD_NN_KERNELS_KERNELS_H_

#include <cstdint>

namespace emd {
namespace kernels {

/// One backend's kernel table. All matrices are dense row-major float.
/// Every output is fully overwritten (no accumulate-into semantics), so
/// callers may pass recycled scratch buffers without zeroing them first.
struct KernelBackend {
  const char* name;

  // ---- GEMM family. ----
  /// C[m,n] = A[m,k] * B[k,n].
  void (*matmul)(const float* a, const float* b, float* c, int m, int k, int n);
  /// C[m,n] = A[m,k] * B[n,k]^T (dot-product form).
  void (*matmul_bt)(const float* a, const float* b, float* c, int m, int k,
                    int n);
  /// C[m,n] = A[k,m]^T * B[k,n] (rank-1 update form).
  void (*matmul_at)(const float* a, const float* b, float* c, int k, int m,
                    int n);
  /// C[m,n] = A[m,k] * W[k,n] + bias[n] broadcast to every row, then
  /// max(C, 0) when `relu`. `bias` may be nullptr (no bias add). Bit for bit
  /// the composition matmul, axpy(1, bias) per row, relu of the same table.
  void (*linear)(const float* a, const float* w, const float* bias, float* c,
                 int m, int k, int n, bool relu);

  // ---- Attention. ----
  /// One scaled-dot-product attention head over a sequence of t rows. q, k
  /// and v point at the head's first column; row r of each starts `ld`
  /// floats after row r-1 (ld = d_model for the head slices of [t, d_model]
  /// projections). Writes the softmax weights
  /// softmax_rows(scale * Q K^T) to `p` ([t, t], contiguous) and the head's
  /// context P V to `out` (t rows of dh floats, `ld` apart). Bit for bit the
  /// composition matmul_bt, vscale, softmax_rows, matmul of the same table
  /// over contiguous copies of the head slices.
  void (*attend_head)(const float* q, const float* k, const float* v, int ld,
                      int t, int dh, float scale, float* p, float* out);

  // ---- BLAS-1 style. ----
  /// sum(x[i] * y[i]).
  float (*dot)(const float* x, const float* y, int n);
  /// y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, int n);
  /// out[i] = x[i] + y[i]. `out` may alias `x` or `y`.
  void (*vadd)(const float* x, const float* y, float* out, int n);
  /// x[i] *= alpha.
  void (*vscale)(float alpha, float* x, int n);

  // ---- Elementwise activations. `y` may alias `x`. ----
  /// y = max(x, 0); when `mask` is non-null, mask[i] = x[i] > 0 ? 1 : 0.
  void (*relu)(const float* x, float* y, float* mask, int n);
  /// Tanh-approximation GeLU: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
  void (*gelu)(const float* x, float* y, int n);
  void (*vtanh)(const float* x, float* y, int n);
  /// Numerically stable logistic sigmoid.
  void (*vsigmoid)(const float* x, float* y, int n);

  // ---- Row-wise ops. ----
  /// In-place max-subtracted softmax over each row of a [rows, cols] matrix.
  void (*softmax_rows)(float* a, int rows, int cols);
  /// Per-row layer norm: y = gamma * xhat + beta with
  /// xhat = (x - mean) * inv_std. Also writes the xhat rows and the per-row
  /// inv_std values the backward pass caches.
  void (*layer_norm)(const float* x, const float* gamma, const float* beta,
                     float eps, int rows, int cols, float* y, float* xhat,
                     float* inv_std);
  /// Numerically stable log(sum(exp(x))) over n > 0 floats.
  double (*logsumexp)(const float* x, int n);
};

/// One quantized backend's kernel table. Activations are quantized per row
/// (symmetric, scale = maxabs/127); weights are pre-quantized per output
/// channel and stored TRANSPOSED as [n, k] so each output channel's dot runs
/// over contiguous memory. Accumulation is exact int32, so every
/// implementation of this table produces bit-identical results.
struct QuantizedBackend {
  const char* name;

  /// Per-row symmetric quantization of a row-major [m, k] fp32 matrix:
  /// out[i*k+j] = round(a[i*k+j] / scales[i]) clamped to [-127, 127] with
  /// scales[i] = maxabs(row i) / 127 (rows of all zeros get scale 0 and
  /// all-zero codes). round = nearest, ties away from zero (lrintf-free so
  /// scalar and SIMD agree exactly).
  void (*quantize_rows)(const float* a, int m, int k, std::int8_t* out,
                        float* scales);

  /// C[m,n] = (A8[m,k] · W8t[n,k]^T) * a_scales[m] (x) w_scales[n] + bias[n].
  /// `bias` may be nullptr (no bias add). int32-accumulate, dequantized as
  /// acc * a_scales[i] * w_scales[j].
  void (*qgemm)(const std::int8_t* a, const float* a_scales,
                const std::int8_t* wt, const float* w_scales,
                const float* bias, float* c, int m, int k, int n);
};

/// The always-available scalar reference backend.
const KernelBackend& ScalarKernels();

/// The AVX2+FMA backend, or nullptr when this binary was compiled without
/// AVX2 support. Callers must still check CpuHasAvx2Fma() before using it —
/// Kernels() does both.
const KernelBackend* Avx2Kernels();

/// The always-available scalar int8 backend.
const QuantizedBackend& ScalarInt8Kernels();

/// The AVX2 int8 backend, or nullptr when compiled without AVX2 support.
const QuantizedBackend* Avx2Int8Kernels();

/// The dispatched int8 table (scalar unless AVX2 is available). Usable
/// regardless of Int8Enabled(); both implementations are bit-identical.
const QuantizedBackend& Int8Kernels();

/// The tri-state selector, parsed once from EMD_BACKEND (unset or empty
/// means kAuto). Unknown values fall back to kAuto.
enum class BackendSelect { kAuto, kScalar, kAvx2, kInt8 };
BackendSelect SelectedBackend();

/// True when the process opted into quantized inference (EMD_BACKEND=int8):
/// models pre-quantize their weights at load/train time and route their
/// inference GEMMs through Int8Kernels().
bool Int8Enabled();

/// The resolved backend name as reported by the emd_kernel_backend_info
/// gauge: "scalar", "avx2", or "int8". Forces dispatch on first call.
const char* BackendName();

/// The dispatched fp32 backend: selected once per process, see file comment.
const KernelBackend& Kernels();

}  // namespace kernels
}  // namespace emd

#endif  // EMD_NN_KERNELS_KERNELS_H_
