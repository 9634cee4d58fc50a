#include "core/candidate_base.h"

#include <cstring>

#include "nn/kernels/kernels.h"

namespace emd {

void CandidateRecord::PooledMeanInto(float* out) const {
  EMD_CHECK_GT(embedding_count, 0);
  const size_t n = embedding_sum.size();
  if (n == 0) return;
  std::memcpy(out, embedding_sum.data(), n * sizeof(float));
  // Decay off (or no decay has applied yet): the original integer-count
  // mean, bit-exact with pre-governance builds.
  const float scale = embedding_weight == static_cast<double>(embedding_count)
                          ? 1.f / static_cast<float>(embedding_count)
                          : 1.f / static_cast<float>(embedding_weight);
  kernels::Kernels().vscale(scale, out, static_cast<int>(n));
}

const char* CandidateLabelName(CandidateLabel label) {
  switch (label) {
    case CandidateLabel::kUnlabeled:
      return "unlabeled";
    case CandidateLabel::kEntity:
      return "entity";
    case CandidateLabel::kNonEntity:
      return "non-entity";
    case CandidateLabel::kAmbiguous:
      return "ambiguous";
  }
  return "?";
}

}  // namespace emd
