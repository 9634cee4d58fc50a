#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/kernels/kernels.h"
#include "obs/metrics.h"
#include "util/cpuid.h"

namespace emd {
namespace kernels {

BackendSelect SelectedBackend() {
  static const BackendSelect select = [] {
    const char* v = std::getenv("EMD_BACKEND");
    if (v == nullptr || v[0] == '\0') return BackendSelect::kAuto;
    if (std::strcmp(v, "scalar") == 0) return BackendSelect::kScalar;
    if (std::strcmp(v, "avx2") == 0) return BackendSelect::kAvx2;
    if (std::strcmp(v, "int8") == 0) return BackendSelect::kInt8;
    if (std::strcmp(v, "auto") != 0) {
      std::fprintf(stderr,
                   "emd: unknown EMD_BACKEND '%s', falling back to auto\n", v);
    }
    return BackendSelect::kAuto;
  }();
  return select;
}

bool Int8Enabled() { return SelectedBackend() == BackendSelect::kInt8; }

namespace {

/// The avx2 fp32 table when this binary has it and the CPU supports it.
const KernelBackend* UsableAvx2() {
  const KernelBackend* avx2 = Avx2Kernels();
  return (avx2 != nullptr && CpuHasAvx2Fma()) ? avx2 : nullptr;
}

struct Resolved {
  const KernelBackend* fp32;
  /// What the emd_kernel_backend_info gauge reports: the fp32 table's name,
  /// or "int8" when the quantized path is enabled on top of it.
  const char* reported;
};

const Resolved& Resolve() {
  static const Resolved resolved = [] {
    Resolved r;
    switch (SelectedBackend()) {
      case BackendSelect::kScalar:
        r.fp32 = &ScalarKernels();
        break;
      case BackendSelect::kAvx2:
        r.fp32 = UsableAvx2();
        if (r.fp32 == nullptr) {
          std::fprintf(stderr,
                       "emd: EMD_BACKEND=avx2 but AVX2+FMA is unavailable "
                       "(binary or CPU), falling back to scalar\n");
          r.fp32 = &ScalarKernels();
        }
        break;
      case BackendSelect::kAuto:
      case BackendSelect::kInt8: {
        const KernelBackend* avx2 = UsableAvx2();
        r.fp32 = avx2 != nullptr ? avx2 : &ScalarKernels();
        break;
      }
    }
    r.reported = Int8Enabled() ? "int8" : r.fp32->name;
    obs::Metrics()
        .GetGauge("emd_kernel_backend_info",
                  "Which compute-kernel backend the dispatcher selected "
                  "(constant 1; the backend is in the label)",
                  obs::Label{"backend", r.reported})
        ->Set(1);
    return r;
  }();
  return resolved;
}

}  // namespace

const char* BackendName() { return Resolve().reported; }

const KernelBackend& Kernels() { return *Resolve().fp32; }

const QuantizedBackend& Int8Kernels() {
  static const QuantizedBackend& chosen = []() -> const QuantizedBackend& {
    const QuantizedBackend* avx2 = Avx2Int8Kernels();
    if (avx2 != nullptr && CpuHasAvx2Fma()) return *avx2;
    return ScalarInt8Kernels();
  }();
  return chosen;
}

}  // namespace kernels
}  // namespace emd
