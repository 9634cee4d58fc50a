// TweetBase — per-sentence record store of §IV: one entry per
// (tweet id, sentence id), holding the detected mentions (updated as the
// sentence moves through Global EMD) and, while its batch is in flight, the
// deep system's token-level entity-aware embeddings.
//
// Layout: records hold identity, tokens and in-flight embeddings; every
// record's mentions live in one flat RecordedMention array, record i owning
// [offsets_[i], offsets_[i + 1]), so the output walk of Finalize is one
// sequential pass over two arrays.
//
// Mention rewrites are suffix-only: the merge barrier rewrites the current
// batch, which is always the store's tail, so ReplaceMentionTail replaces
// the mentions of records [first, size()) and refuses any other range.
// Earlier records' mentions are written once (Add) and afterwards only their
// candidate ids change, in place (mutable_mentions).
//
// Memory governance: old records can have their token text trimmed once no
// future stage needs it (tokens serve the current batch's candidate re-scan
// and checkpointing; mention spans and ids — the output — are retained).
//
// Byte accounting: each record's payload (cached token bytes, in-flight
// embeddings) is a running sum adjusted by Add, ReleaseEmbeddings and
// TrimTokens — the only ways to change a record's footprint, since at() is
// read-only. The record slots, the flat mention array and the offsets are
// container terms read at query time, so ApproxBytes() is O(1).

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
#include "util/status.h"

namespace emd {

/// A mention recorded for a sentence during the pipeline.
struct RecordedMention {
  TokenSpan span;
  int candidate_id = -1;
  /// True when Local EMD itself produced this mention (vs recovered by the
  /// Candidate Mention Extraction re-scan).
  bool locally_detected = false;
  bool operator==(const RecordedMention&) const = default;
};

/// One sentence record. Its mentions are held by the TweetBase.
struct TweetRecord {
  long tweet_id = 0;
  int sentence_id = 0;
  std::vector<Token> tokens;
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
    return approx_token_bytes + token_embeddings.size() * sizeof(float);
  }
};

// Vector growth must move records: a copy would shrink their capacities
// behind TweetBase's running byte sum.
static_assert(std::is_nothrow_move_constructible_v<TweetRecord>);

/// Append-only store, indexed densely by insertion order.
class TweetBase {
 public:
  /// Adds a record with its mentions; returns its dense index.
  size_t Add(TweetRecord record,
             std::span<const RecordedMention> mentions = {}) {
    record.approx_token_bytes = TokenBytes(record.tokens);
    record_bytes_ += record.PayloadBytes();
    records_.push_back(std::move(record));
    mentions_.insert(mentions_.end(), mentions.begin(), mentions.end());
    offsets_.push_back(mentions_.size());
    return records_.size() - 1;
  }

  const TweetRecord& at(size_t index) const {
    EMD_CHECK_LT(index, records_.size());
    return records_[index];
  }

  /// The mentions of record `index`.
  std::span<const RecordedMention> mentions(size_t index) const {
    EMD_CHECK_LT(index, records_.size());
    return {mentions_.data() + offsets_[index],
            mentions_.data() + offsets_[index + 1]};
  }

  /// The mentions of record `index`, writable in place (candidate ids) but
  /// not resizable.
  std::span<RecordedMention> mutable_mentions(size_t index) {
    EMD_CHECK_LT(index, records_.size());
    return {mentions_.data() + offsets_[index],
            mentions_.data() + offsets_[index + 1]};
  }

  /// Replaces the mentions of records [first, first + counts.size()), which
  /// must be the store's tail: record first + k gets the next counts[k]
  /// entries of `tail`, in order; `tail` must not view this store's own
  /// mentions. Refused with InvalidArgument, leaving the store untouched,
  /// when the range is not a suffix or the counts do not sum to tail.size().
  Status ReplaceMentionTail(size_t first,
                            std::span<const RecordedMention> tail,
                            std::span<const size_t> counts) {
    if (first > records_.size() || counts.size() != records_.size() - first) {
      return Status::InvalidArgument(
          "mention rewrite of records [", first, ", ", first + counts.size(),
          ") is not the suffix of a store of ", records_.size(), " records");
    }
    size_t total = 0;
    for (size_t c : counts) total += c;
    if (total != tail.size()) {
      return Status::InvalidArgument("mention rewrite counts sum to ", total,
                                     " for ", tail.size(), " mentions");
    }
    mentions_.resize(offsets_[first]);
    mentions_.insert(mentions_.end(), tail.begin(), tail.end());
    for (size_t k = 0; k < counts.size(); ++k) {
      offsets_[first + k + 1] = offsets_[first + k] + counts[k];
    }
    return Status::OK();
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

  /// Approximate heap bytes across all records: record slots, cached token
  /// text, any in-flight embedding matrices, the flat mention array and its
  /// offsets. O(1).
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
    return records_.capacity() * sizeof(TweetRecord) +
           mentions_.capacity() * sizeof(RecordedMention) +
           offsets_.capacity() * sizeof(size_t);
  }

  std::vector<TweetRecord> records_;
  std::vector<RecordedMention> mentions_;  // every record's, in record order
  std::vector<size_t> offsets_{0};         // size() + 1 entries
  size_t record_bytes_ = 0;  // sum of every record's PayloadBytes()
};

}  // namespace emd

#endif  // EMD_CORE_TWEET_BASE_H_
