// TweetBase — per-sentence record store of §IV: one entry per
// (tweet id, sentence id), holding the detected mentions (updated as the
// sentence moves through Global EMD) and, while its batch is in flight, the
// deep system's token-level entity-aware embeddings.
//
// Memory governance: old records can have their token text trimmed once no
// future stage needs it (tokens serve the current batch's candidate re-scan
// and checkpointing; mention spans and ids — the output — are retained).
//
// Byte accounting: each record's payload (cached token bytes, mention list,
// in-flight embeddings) is a running sum adjusted by Add, SetMentions,
// ReleaseEmbeddings and TrimTokens — the only ways to change a record's
// footprint, since at() is read-only — so ApproxBytes() is O(1).

#ifndef EMD_CORE_TWEET_BASE_H_
#define EMD_CORE_TWEET_BASE_H_

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "nn/matrix.h"
#include "text/token.h"
#include "util/logging.h"

namespace emd {

/// A mention recorded for a sentence during the pipeline.
struct RecordedMention {
  TokenSpan span;
  int candidate_id = -1;
  /// True when Local EMD itself produced this mention (vs recovered by the
  /// Candidate Mention Extraction re-scan).
  bool locally_detected = false;
};

/// One sentence record.
struct TweetRecord {
  long tweet_id = 0;
  int sentence_id = 0;
  std::vector<Token> tokens;
  std::vector<RecordedMention> mentions;
  /// Entity-aware token embeddings [T, d]; cleared once the batch has been
  /// globally processed (memory bound is one batch, not the stream).
  Mat token_embeddings;
  /// True when Local EMD failed on this sentence and it was isolated: the
  /// record stays (dense stream indexes) but contributes no candidates.
  bool quarantined = false;
  /// True once the memory governor dropped the token text (spans/mentions
  /// survive; the surface strings do not).
  bool trimmed = false;
  /// Token heap bytes cached at Add time so budget accounting never re-walks
  /// token strings. Not serialized; recomputed when a restored record is
  /// re-added.
  size_t approx_token_bytes = 0;

  /// Heap bytes this record contributes to TweetBase::ApproxBytes.
  size_t PayloadBytes() const {
    return approx_token_bytes +
           mentions.capacity() * sizeof(RecordedMention) +
           token_embeddings.size() * sizeof(float);
  }
};

// Vector growth must move records: a copy would shrink their capacities
// behind TweetBase's running byte sum.
static_assert(std::is_nothrow_move_constructible_v<TweetRecord>);

/// Append-only store, indexed densely by insertion order.
class TweetBase {
 public:
  /// Adds a record; returns its dense index.
  size_t Add(TweetRecord record) {
    record.approx_token_bytes = TokenBytes(record.tokens);
    record_bytes_ += record.PayloadBytes();
    records_.push_back(std::move(record));
    return records_.size() - 1;
  }

  const TweetRecord& at(size_t index) const {
    EMD_CHECK_LT(index, records_.size());
    return records_[index];
  }

  /// The mentions of record `index`, writable in place (candidate ids) but
  /// not resizable, so the record's footprint cannot change through it.
  std::span<RecordedMention> mutable_mentions(size_t index) {
    EMD_CHECK_LT(index, records_.size());
    return records_[index].mentions;
  }

  /// Replaces the mention list of record `index`.
  void SetMentions(size_t index, std::vector<RecordedMention> mentions) {
    EMD_CHECK_LT(index, records_.size());
    TweetRecord& rec = records_[index];
    record_bytes_ -= rec.PayloadBytes();
    rec.mentions = std::move(mentions);
    record_bytes_ += rec.PayloadBytes();
  }

  size_t size() const { return records_.size(); }

  /// Frees the embedding matrices of records [begin, end) after their batch
  /// completes Global EMD.
  void ReleaseEmbeddings(size_t begin, size_t end) {
    EMD_CHECK_LE(begin, end);
    EMD_CHECK_LE(end, records_.size());
    for (size_t i = begin; i < end; ++i) {
      Mat& emb = records_[i].token_embeddings;
      record_bytes_ -= emb.size() * sizeof(float);
      emb = Mat();
    }
  }

  /// Drops the token text of records [begin, end) (mentions and spans are
  /// retained). Returns how many records were newly trimmed. Only safe for
  /// batches that finished Global EMD — their re-scan no longer needs text.
  size_t TrimTokens(size_t begin, size_t end) {
    EMD_CHECK_LE(begin, end);
    EMD_CHECK_LE(end, records_.size());
    size_t trimmed = 0;
    for (size_t i = begin; i < end; ++i) {
      TweetRecord& rec = records_[i];
      if (rec.trimmed) continue;
      rec.tokens.clear();
      rec.tokens.shrink_to_fit();
      record_bytes_ -= rec.approx_token_bytes;
      rec.approx_token_bytes = 0;
      rec.trimmed = true;
      ++trimmed;
    }
    return trimmed;
  }

  /// Approximate heap bytes across all records: cached token text, mention
  /// lists, and any in-flight embedding matrices. O(1).
  size_t ApproxBytes() const { return ContainerBytes() + record_bytes_; }

  /// The same figure by walking every record: the oracle ApproxBytes() must
  /// equal. O(records).
  size_t RecountBytes() const {
    size_t bytes = ContainerBytes();
    for (const TweetRecord& rec : records_) bytes += rec.PayloadBytes();
    return bytes;
  }

 private:
  static size_t TokenBytes(const std::vector<Token>& tokens) {
    size_t bytes = tokens.capacity() * sizeof(Token);
    for (const Token& tok : tokens) bytes += tok.text.capacity();
    return bytes;
  }

  size_t ContainerBytes() const {
    return records_.capacity() * sizeof(TweetRecord);
  }

  std::vector<TweetRecord> records_;
  size_t record_bytes_ = 0;  // sum of every record's PayloadBytes()
};

}  // namespace emd

#endif  // EMD_CORE_TWEET_BASE_H_
