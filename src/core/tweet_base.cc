#include "core/tweet_base.h"

#include <algorithm>
#include <limits>

namespace emd {
namespace {

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
void EraseFront(std::vector<T>* v, size_t n) {
  v->erase(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(n));
  v->shrink_to_fit();
}

}  // namespace

StoredToken TweetBase::Tokens::operator[](size_t t) const {
  EMD_CHECK_LT(t, size_t{count_});
  const Segment& seg = *segment_;
  const size_t j = first_ + t;
  const size_t text_begin = j == 0 ? 0 : seg.text_end[j - 1];
  return {std::string_view(seg.chars.data() + text_begin,
                           seg.text_end[j] - text_begin),
          seg.source_begin[j], seg.source_end[j],
          static_cast<TokenKind>(seg.kind[j])};
}

size_t TweetBase::Segment::Bytes() const {
  return CapacityBytes(records) + CapacityBytes(token_end) +
         CapacityBytes(chars) + CapacityBytes(text_end) +
         CapacityBytes(source_begin) + CapacityBytes(source_end) +
         CapacityBytes(kind);
}

void TweetBase::Segment::ShrinkToFit() {
  chars.shrink_to_fit();
  text_end.shrink_to_fit();
  source_begin.shrink_to_fit();
  source_end.shrink_to_fit();
  kind.shrink_to_fit();
}

void TweetBase::Segment::DropTokensBefore(size_t cut) {
  const uint32_t n = token_end[cut - 1];
  if (n == 0) return;
  const uint32_t text = text_end[n - 1];
  EraseFront(&chars, text);
  EraseFront(&text_end, n);
  EraseFront(&source_begin, n);
  EraseFront(&source_end, n);
  EraseFront(&kind, n);
  for (uint32_t& e : text_end) e -= text;
  for (size_t r = 0; r < token_end.size(); ++r) {
    token_end[r] = r < cut ? 0 : token_end[r] - n;
  }
}

size_t TweetBase::Add(const TweetRecord& record, std::span<const Token> tokens,
                      std::span<const RecordedMention> mentions) {
  EMD_CHECK(!record.trimmed || tokens.empty())
      << "a trimmed record holds no tokens";
  if (segments_.empty() || segments_.back().records.size() == kSegmentRecords) {
    segments_.emplace_back();
  }
  Segment& seg = segments_.back();
  const size_t before = seg.Bytes();
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  for (const Token& tok : tokens) {
    EMD_CHECK(tok.begin <= kMax && tok.end <= kMax)
        << "token offsets must fit in 32 bits";
    seg.chars.insert(seg.chars.end(), tok.text.begin(), tok.text.end());
    EMD_CHECK_LE(seg.chars.size(), kMax);
    seg.text_end.push_back(static_cast<uint32_t>(seg.chars.size()));
    seg.source_begin.push_back(static_cast<uint32_t>(tok.begin));
    seg.source_end.push_back(static_cast<uint32_t>(tok.end));
    seg.kind.push_back(static_cast<uint8_t>(tok.kind));
  }
  seg.records.push_back(record);
  seg.token_end.push_back(static_cast<uint32_t>(seg.text_end.size()));
  // Sealed: no more records arrive, so drop the growth slack now.
  if (seg.records.size() == kSegmentRecords) seg.ShrinkToFit();
  segment_bytes_ = segment_bytes_ - before + seg.Bytes();
  // Positions are 32 bits, and kNoPosting is never one.
  EMD_CHECK_LE(mentions.size(), kNoPosting - mentions_.size())
      << "the TweetBase holds at most 2^32 - 1 mentions";
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

TweetBase::Tokens TweetBase::tokens(size_t index) const {
  EMD_CHECK_LT(index, size());
  const Segment& seg = segments_[index / kSegmentRecords];
  const size_t r = index % kSegmentRecords;
  const uint32_t first = r == 0 ? 0 : seg.token_end[r - 1];
  return Tokens(&seg, first, seg.token_end[r] - first);
}

size_t TweetBase::TrimTokens(size_t end) {
  EMD_CHECK_LE(end, size());
  size_t trimmed = 0;
  for (size_t i = trimmed_end_; i < end;) {
    Segment& seg = segments_[i / kSegmentRecords];
    const size_t base = i / kSegmentRecords * kSegmentRecords;
    const size_t cut = std::min(end - base, seg.records.size());
    for (size_t r = i - base; r < cut; ++r) {
      if (seg.records[r].trimmed) continue;  // restored already trimmed
      seg.records[r].trimmed = true;
      ++trimmed;
    }
    const size_t before = seg.Bytes();
    seg.DropTokensBefore(cut);
    segment_bytes_ = segment_bytes_ - before + seg.Bytes();
    i = base + cut;
  }
  trimmed_end_ = std::max(trimmed_end_, end);
  return trimmed;
}

size_t TweetBase::RecountBytes() const {
  size_t bytes = ContainerBytes();
  for (const Segment& seg : segments_) bytes += seg.Bytes();
  return bytes;
}

}  // namespace emd
