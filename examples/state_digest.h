// State digest of a Globalizer: what incremental_stream prints as "Final
// state digest" and what its kill-and-resume checks compare. Header-only so
// the tests hash exactly what the example prints.

#ifndef EMD_EXAMPLES_STATE_DIGEST_H_
#define EMD_EXAMPLES_STATE_DIGEST_H_

#include <cstdint>

#include "core/global_state.h"
#include "core/globalizer.h"
#include "core/tweet_base.h"
#include "util/crc32.h"

namespace emd {

/// Digest of the global state the mention digest cannot see: every live
/// candidate's label, entity_probability bits and embedding_sum bits, and
/// every stored tweet record's identity and mentions (span, candidate id,
/// origin). A resumed run must match an uninterrupted one bit for bit.
inline uint32_t StateDigest(const Globalizer& g) {
  uint32_t crc = 0;
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    if (!state.Contains(gid)) continue;
    const CandidateRecord& rec = state.at(gid);
    const uint8_t label = static_cast<uint8_t>(state.Label(gid));
    crc = Crc32(&gid, sizeof(gid), crc);
    crc = Crc32(&label, sizeof(label), crc);
    crc = Crc32(&rec.entity_probability, sizeof(rec.entity_probability), crc);
    crc = Crc32(rec.embedding_sum.data(),
                rec.embedding_sum.size() * sizeof(float), crc);
  }
  const TweetBase& tweets = g.tweet_base();
  for (size_t i = 0; i < tweets.size(); ++i) {
    const TweetRecord& rec = tweets.at(i);
    const int64_t identity[3] = {rec.tweet_id, rec.sentence_id,
                                 rec.quarantined ? 1 : 0};
    crc = Crc32(identity, sizeof(identity), crc);
    for (const RecordedMention& m : tweets.mentions(i)) {
      const int64_t packed[4] = {m.span.begin, m.span.end, m.candidate_id,
                                 m.locally_detected ? 1 : 0};
      crc = Crc32(packed, sizeof(packed), crc);
    }
  }
  return crc;
}

}  // namespace emd

#endif  // EMD_EXAMPLES_STATE_DIGEST_H_
