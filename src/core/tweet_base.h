// TweetBase — per-sentence record store of §IV: one entry per
// (tweet id, sentence id), holding the sentence's tokens and its final
// mentions. It is the one store that grows for the life of a stream, so it
// keeps each token once, in compact form.
//
// Append-only: a record is added once, final, when its batch reaches the
// Globalizer's merge barrier, with the mentions Global EMD settled on for it
// (the Local EMD spans in kLocalOnly). Records and mentions never change
// afterwards; the only other mutator is TrimTokens. A record restored from a
// checkpoint is added the same way, so a restored store holds the same
// bytes as the live one it was saved from.
//
// Layout: records live in fixed-size segments of kSegmentRecords records,
// record i in segment i / kSegmentRecords. A segment holds its records'
// identity and flags, one char arena with every token's text back to back,
// and flat per-token columns (text end in the arena, source begin/end, kind)
// with per-record token offsets: 13 B per token plus its text, and no heap
// block per token or per record. A segment's columns are shrunk to fit
// when its last record arrives, so only the open segment carries growth
// slack, and a growth step copies at most one segment: never the whole
// store. Every record's mentions live in one flat RecordedMention array
// (16 B each: 32-bit span ends, candidate id and origin), record i owning
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
// The pipeline reads a batch's tokens from the batch itself; stored tokens
// are read back (tokens()) by the checkpoint writer and by tests.
//
// Memory governance: token text can be trimmed once no future stage needs
// it (mention spans and ids — the output — are retained). Trims are
// prefix-only: TrimTokens(end) trims every record before `end`, so a
// segment drops its trimmed records' text by cutting a prefix of its
// columns, and a fully trimmed segment frees them.
//
// Byte accounting: each segment's heap bytes (column and arena capacities)
// are a running sum adjusted by Add and TrimTokens — the only ways to change
// a segment. The segment table, the flat mention array, the offsets and the
// postings are container terms read at query time, so ApproxBytes() is O(1).

#ifndef EMD_CORE_TWEET_BASE_H_
#define EMD_CORE_TWEET_BASE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
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

/// One sentence record: identity and flags. Its tokens and mentions are
/// held by the TweetBase.
struct TweetRecord {
  long tweet_id = 0;
  int sentence_id = 0;
  /// True when Local EMD failed on this sentence and it was isolated: the
  /// record stays (dense stream indexes) but contributes no candidates.
  bool quarantined = false;
  /// True once the memory governor dropped the token text (spans/mentions
  /// survive; the surface strings do not).
  bool trimmed = false;
};

/// A stored token, read in place: `text` views its segment's arena and is
/// valid until the next Add or TrimTokens.
struct StoredToken {
  std::string_view text;
  size_t begin = 0;  // inclusive char offset in the source string
  size_t end = 0;    // exclusive char offset
  TokenKind kind = TokenKind::kWord;
};

/// Append-only store, indexed densely by insertion order.
class TweetBase {
  struct Segment;

 public:
  /// Records per segment (DESIGN §8, "Segmented TweetBase"): on
  /// long_stream a sealed segment holds ~3.1k tokens in ~63 KB, so the open
  /// segment's growth slack and the copy that seals it stay under 0.2% of the
  /// store, while the segment table costs under one byte per tweet.
  static constexpr size_t kSegmentRecords = 256;

  /// The tokens of one record, read in place from its segment's columns.
  class Tokens {
   public:
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    StoredToken operator[](size_t t) const;

   private:
    friend class TweetBase;
    Tokens(const Segment* segment, uint32_t first, uint32_t count)
        : segment_(segment), first_(first), count_(count) {}
    const Segment* segment_;
    uint32_t first_;
    uint32_t count_;
  };

  /// Adds a record with its tokens and final mentions, and links each
  /// mention of a candidate into its gid's postings; returns its dense
  /// index. Token offsets must fit in 32 bits, the store's mention total
  /// must stay below 2^32, and a trimmed record has no tokens.
  size_t Add(const TweetRecord& record, std::span<const Token> tokens = {},
             std::span<const RecordedMention> mentions = {});

  const TweetRecord& at(size_t index) const {
    EMD_CHECK_LT(index, size());
    return segments_[index / kSegmentRecords].records[index % kSegmentRecords];
  }

  /// The stored tokens of record `index`: none once it is trimmed.
  Tokens tokens(size_t index) const;

  /// The mentions of record `index`.
  std::span<const RecordedMention> mentions(size_t index) const {
    EMD_CHECK_LT(index, size());
    return {mentions_.data() + offsets_[index],
            mentions_.data() + offsets_[index + 1]};
  }

  size_t size() const { return offsets_.size() - 1; }

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

  /// Drops the token text of every record before `end` (mentions and spans
  /// are retained). Returns how many records were newly trimmed. Only safe
  /// for batches that finished Global EMD — their re-scan no longer needs
  /// text.
  size_t TrimTokens(size_t end);

  /// Approximate heap bytes: the segment table, every segment's records,
  /// columns and arena, the flat mention array, its offsets and the
  /// postings. O(1).
  size_t ApproxBytes() const { return ContainerBytes() + segment_bytes_; }

  /// The same figure by walking every segment: the oracle ApproxBytes() must
  /// equal. O(segments).
  size_t RecountBytes() const;

 private:
  struct Segment {
    std::vector<TweetRecord> records;  // at most kSegmentRecords
    std::vector<uint32_t> token_end;   // per record: end of its tokens
    std::vector<char> chars;           // every token's text, back to back
    std::vector<uint32_t> text_end;    // per token: end of its text in chars
    std::vector<uint32_t> source_begin, source_end;  // per token
    std::vector<uint8_t> kind;                       // per token: TokenKind

    size_t Bytes() const;
    /// Frees the tokens of records [0, cut): cuts that prefix off every
    /// column and shrinks them to fit.
    void DropTokensBefore(size_t cut);
    void ShrinkToFit();
  };

  static constexpr uint32_t kNoPosting = UINT32_MAX;

  size_t ContainerBytes() const {
    return segments_.capacity() * sizeof(Segment) +
           mentions_.capacity() * sizeof(RecordedMention) +
           offsets_.capacity() * sizeof(uint32_t) +
           next_.capacity() * sizeof(uint32_t) +
           heads_.capacity() * sizeof(uint32_t);
  }

  std::vector<Segment> segments_;
  std::vector<RecordedMention> mentions_;  // every record's, in record order
  std::vector<uint32_t> offsets_{0};       // size() + 1 entries
  // Postings: next_[p] is the position of the previous mention of
  // mentions_[p]'s candidate (kNoPosting for the first, and for a mention of
  // no candidate); heads_[gid] is the position of gid's newest mention.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;
  size_t segment_bytes_ = 0;  // sum of every segment's Bytes()
  size_t trimmed_end_ = 0;    // records before it are trimmed
};

}  // namespace emd

#endif  // EMD_CORE_TWEET_BASE_H_
