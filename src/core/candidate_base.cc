#include "core/candidate_base.h"

#include <cstring>

namespace emd {

void CandidateRecord::PooledMeanInto(float* out) const {
  EMD_CHECK_GT(embedding_count, 0);
  const size_t n = embedding_sum.size();
  if (n == 0) return;
  std::memcpy(out, embedding_sum.data(), n * sizeof(float));
  // With decay off the weight is the exact integer count, and
  // float(double(n)) == float(n): the plain integer-count mean.
  kernels::Kernels().vscale(1.f / static_cast<float>(embedding_weight), out,
                            static_cast<int>(n));
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
