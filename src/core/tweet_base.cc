#include "core/tweet_base.h"

namespace emd {

size_t TweetBase::Add(const TweetRecord& record,
                      std::span<const RecordedMention> mentions) {
  // Positions are 32 bits, and kNoPosting is never one.
  EMD_CHECK_LE(mentions.size(), kNoPosting - mentions_.size())
      << "the TweetBase holds at most 2^32 - 1 mentions";
  records_.push_back(record);
  const size_t first = mentions_.size();
  mentions_.insert(mentions_.end(), mentions.begin(), mentions.end());
  next_.resize(mentions_.size(), kNoPosting);
  for (size_t pos = first; pos < mentions_.size(); ++pos) {
    const int gid = mentions_[pos].candidate_id;
    if (gid < 0) continue;
    if (static_cast<size_t>(gid) >= heads_.size()) {
      heads_.resize(static_cast<size_t>(gid) + 1, kNoPosting);
    }
    next_[pos] = heads_[gid];
    heads_[gid] = static_cast<uint32_t>(pos);
  }
  offsets_.push_back(static_cast<uint32_t>(mentions_.size()));
  return size() - 1;
}

}  // namespace emd
