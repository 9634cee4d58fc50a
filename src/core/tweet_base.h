// TweetBase — per-sentence record store of §IV: one entry per
// (tweet id, sentence id), holding the sentence's identity and its final
// mentions. It is the one store that grows for the life of a stream, so it
// keeps only what the output reads: §V-C emits the stored mention spans of
// candidates labelled entity, and the re-scan (§V-A) reads the current batch
// from the batch itself. No token text is stored.
//
// Append-only: a record is added once, final, when its batch reaches the
// Globalizer's merge barrier, with the mentions Global EMD settled on for it
// (the Local EMD spans in kLocalOnly). Records and mentions never change
// afterwards. A record restored from a checkpoint is added the same way, so
// a restored store holds the same bytes as the live one it was saved from.
//
// Layout: records are one flat array of identities (16 B each). Every
// record's mentions live in one flat RecordedMention array (16 B each:
// 32-bit span ends, candidate id and origin), record i owning
// [offsets_[i], offsets_[i + 1]) with 32-bit offsets, so a stream holds at
// most 2^32 - 1 mentions.
//
// Postings: each candidate's stored mentions are one intrusive list through
// the flat array, newest first — a 32-bit next-link per mention (parallel to
// the array) and a 32-bit head per gid, 4 B per mention plus 4 B per gid.
// Positions never move (the store is append-only), so the list of a gid is
// final for every record already added. Finalize walks it to re-emit the
// records of a candidate whose verdict flipped; mentions of no candidate are
// not listed.
//
// Byte accounting: ApproxBytes() sums the capacities of those five arrays,
// so it is O(1) and needs no running total.

#ifndef EMD_CORE_TWEET_BASE_H_
#define EMD_CORE_TWEET_BASE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/token.h"
#include "util/logging.h"

namespace emd {

/// A recorded mention's token span, 32 bits per end: the TweetBase keeps
/// one per mention for the life of the stream. Converts to and from
/// TokenSpan; a span past 32 bits is refused (checked when converted,
/// Corruption on checkpoint restore).
struct MentionSpan {
  uint32_t begin = 0;
  uint32_t end = 0;

  MentionSpan() = default;
  constexpr MentionSpan(uint32_t b, uint32_t e) : begin(b), end(e) {}
  MentionSpan(const TokenSpan& span)  // NOLINT(google-explicit-constructor)
      : begin(static_cast<uint32_t>(span.begin)),
        end(static_cast<uint32_t>(span.end)) {
    EMD_CHECK(span.begin <= UINT32_MAX && span.end <= UINT32_MAX)
        << "mention span must fit in 32 bits";
  }
  size_t length() const { return end - begin; }
  operator TokenSpan() const {  // NOLINT(google-explicit-constructor)
    return {begin, end};
  }
  bool operator==(const MentionSpan&) const = default;
  bool operator==(const TokenSpan& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// A mention recorded for a sentence during the pipeline: 16 B.
struct RecordedMention {
  MentionSpan span;
  int candidate_id = -1;
  /// True when Local EMD itself produced this mention (vs recovered by the
  /// Candidate Mention Extraction re-scan).
  bool locally_detected = false;
  bool operator==(const RecordedMention&) const = default;
};

/// One sentence record's identity. Its mentions are held by the TweetBase.
struct TweetRecord {
  long tweet_id = 0;
  int sentence_id = 0;
  /// True when Local EMD failed on this sentence and it was isolated: the
  /// record stays (dense stream indexes) but contributes no candidates.
  bool quarantined = false;
};

/// Append-only store, indexed densely by insertion order.
class TweetBase {
 public:
  /// Adds a record with its final mentions, and links each mention of a
  /// candidate into its gid's postings; returns its dense index. The store's
  /// mention total must stay below 2^32.
  size_t Add(const TweetRecord& record,
             std::span<const RecordedMention> mentions = {});

  const TweetRecord& at(size_t index) const {
    EMD_CHECK_LT(index, size());
    return records_[index];
  }

  /// The mentions of record `index`.
  std::span<const RecordedMention> mentions(size_t index) const {
    EMD_CHECK_LT(index, size());
    return {mentions_.data() + offsets_[index],
            mentions_.data() + offsets_[index + 1]};
  }

  size_t size() const { return records_.size(); }

  /// Visits every stored mention of candidate `gid`, newest first, as
  /// fn(record index, position in the flat mention array); a record that
  /// mentions `gid` twice is visited twice. O(mentions of gid × log records).
  template <typename Fn>
  void ForEachMentionOf(int gid, Fn&& fn) const {
    if (gid < 0 || static_cast<size_t>(gid) >= heads_.size()) return;
    // Positions fall as the walk goes, so each record lies at or before the
    // last one found.
    auto end = offsets_.end();
    for (uint32_t pos = heads_[gid]; pos != kNoPosting; pos = next_[pos]) {
      end = std::upper_bound(offsets_.begin(), end, pos);
      fn(static_cast<size_t>(end - offsets_.begin() - 1), pos);
    }
  }

  /// Approximate heap bytes: the records, the flat mention array, its
  /// offsets and the postings. O(1).
  size_t ApproxBytes() const {
    return records_.capacity() * sizeof(TweetRecord) +
           mentions_.capacity() * sizeof(RecordedMention) +
           offsets_.capacity() * sizeof(uint32_t) +
           next_.capacity() * sizeof(uint32_t) +
           heads_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kNoPosting = UINT32_MAX;

  std::vector<TweetRecord> records_;
  std::vector<RecordedMention> mentions_;  // every record's, in record order
  std::vector<uint32_t> offsets_{0};       // size() + 1 entries
  // Postings: next_[p] is the position of the previous mention of
  // mentions_[p]'s candidate (kNoPosting for the first, and for a mention of
  // no candidate); heads_[gid] is the position of gid's newest mention.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;
};

}  // namespace emd

#endif  // EMD_CORE_TWEET_BASE_H_
