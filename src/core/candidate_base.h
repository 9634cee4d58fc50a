// CandidateBase — per-candidate record store of §V-C. Maintains, for every
// entity candidate discovered during Local EMD, the incrementally pooled
// global embedding over the local embeddings of its mentions, a mention
// count (the mentions live in the TweetBase) and the classifier's entity
// probability. A record holds no key, length or label: the candidate's key
// and token count live in its CTrie, its verdict in ShardedGlobalState's
// per-gid label column.
//
// Memory governance: pooling can be exponentially time-decayed (a half-life
// in stream positions, fixed at construction) so stale evidence fades; cold
// candidates can be evicted, freeing their record and its slot, which the
// next new record reuses (the label column keeps the final verdict, so
// already-emitted output stays stable). Pooling has one formula,
// sum * (1 / weight); with decay off every scale is exactly 1 and the weight
// the integer count, so it is bit-exact with the plain mean.
//
// Byte accounting: the live records' payload bytes (CandidateRecord::
// ApproxBytes) are a running sum adjusted by GetOrCreate, AddMention and
// Evict, so ApproxBytes() is O(1). Those are the only mutations of a
// record's footprint fields (embedding_sum, mention_embeddings); callers of
// the mutable at() write scores and positions only. The checkpoint restore,
// which fills records field by field, calls RebuildByteTotals() once
// afterwards.

#ifndef EMD_CORE_CANDIDATE_BASE_H_
#define EMD_CORE_CANDIDATE_BASE_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "nn/kernels/kernels.h"
#include "nn/matrix.h"
#include "util/logging.h"

namespace emd {

/// Classifier verdicts (§V-C): alpha >= 0.55 entity, beta <= 0.4 non-entity,
/// gamma in between = ambiguous (needs more evidence).
enum class CandidateLabel { kUnlabeled, kEntity, kNonEntity, kAmbiguous };

const char* CandidateLabelName(CandidateLabel label);

/// One candidate record.
struct CandidateRecord {
  int candidate_id = -1;
  uint32_t num_mentions = 0;  // the TweetBase mentions carrying this id

  /// Running (optionally decayed) sum of local mention embeddings, [1, d];
  /// the global embedding is sum * (1 / weight).
  Mat embedding_sum;
  int embedding_count = 0;
  /// Total decayed weight of pooled mentions. Equals embedding_count exactly
  /// (an integer-valued double) when decay is off.
  double embedding_weight = 0.0;
  /// Stream position (tweet index) of the last pooled mention — the decay
  /// reference point — and of the last mention of any kind (recency key for
  /// eviction).
  uint64_t last_update_pos = 0;
  uint64_t last_mention_pos = 0;
  /// Individual mention embeddings, retained only by a store built to retain
  /// them (classifier training wants prefix pools; normal runs keep memory
  /// flat).
  std::vector<Mat> mention_embeddings;

  float entity_probability = -1.f;

  /// Writes the pooled global candidate embedding (embedding_sum scaled by
  /// 1.f / float(embedding_weight), embedding_sum.size() floats) to `out`.
  /// The one definition of the mean: GlobalEmbedding() and the classifier's
  /// feature gather both call it, so their values are bit-identical.
  void PooledMeanInto(float* out) const;

  /// PooledMeanInto as a [1, d] matrix.
  Mat GlobalEmbedding() const {
    Mat g(embedding_sum.rows(), embedding_sum.cols());
    PooledMeanInto(g.data());
    return g;
  }

  /// Heap bytes attributable to this record (estimate for budget accounting).
  size_t ApproxBytes() const {
    size_t bytes = embedding_sum.size() * sizeof(float);
    for (const Mat& m : mention_embeddings) bytes += m.size() * sizeof(float);
    bytes += mention_embeddings.capacity() * sizeof(Mat);
    return bytes;
  }
};

// Vector growth must move records: a copy would shrink their capacities
// behind CandidateBase's running byte sum.
static_assert(std::is_nothrow_move_constructible_v<CandidateRecord>);

/// Record store addressed by dense CTrie candidate id.
class CandidateBase {
 public:
  /// The pooling policy, fixed for the store's life. `decay_half_life_tweets`
  /// is the exponential decay half-life in stream positions (tweets); 0
  /// disables decay (lambda = 1), and the pooled mean is then bit-exact with
  /// a plain running sum scaled by 1 / count. `retain_mention_embeddings`
  /// keeps every pooled row in its record (classifier training reads them;
  /// off by default to bound memory).
  explicit CandidateBase(uint64_t decay_half_life_tweets = 0,
                         bool retain_mention_embeddings = false)
      : decay_lambda_(decay_half_life_tweets == 0
                          ? 1.0
                          : std::exp2(-1.0 / static_cast<double>(
                                                 decay_half_life_tweets))),
        retain_mention_embeddings_(retain_mention_embeddings) {}

  /// Ensures a record exists for `candidate_id` (ids are dense CTrie ids).
  /// A new record takes the most recently freed slot, if any.
  CandidateRecord& GetOrCreate(int candidate_id) {
    EMD_CHECK_GE(candidate_id, 0);
    if (candidate_id >= static_cast<int>(slot_of_.size())) {
      slot_of_.resize(candidate_id + 1, kNoSlot);
    }
    int32_t& slot = slot_of_[candidate_id];
    if (slot == kNoSlot) {
      if (free_slots_.empty()) {
        slot = static_cast<int32_t>(records_.size());
        records_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      records_[slot].candidate_id = candidate_id;
    }
    return records_[slot];
  }

  CandidateRecord& at(int candidate_id) {
    EMD_CHECK(Contains(candidate_id)) << "no record for id " << candidate_id;
    return records_[slot_of_[candidate_id]];
  }
  /// The record of `candidate_id`, or an empty record (candidate_id -1) for
  /// an id that has none.
  const CandidateRecord& at(int candidate_id) const {
    EMD_CHECK_GE(candidate_id, 0);
    EMD_CHECK_LT(candidate_id, static_cast<int>(slot_of_.size()));
    const int32_t slot = slot_of_[candidate_id];
    return slot == kNoSlot ? NoRecord() : records_[slot];
  }

  bool Contains(int candidate_id) const {
    return candidate_id >= 0 &&
           candidate_id < static_cast<int>(slot_of_.size()) &&
           slot_of_[candidate_id] != kNoSlot;
  }

  /// Bound of the id space seen so far (ids with and without a record).
  size_t size() const { return slot_of_.size(); }
  /// Live records.
  size_t num_records() const { return records_.size() - free_slots_.size(); }
  /// The live records' payload bytes (the running sum). O(1).
  size_t PayloadBytes() const { return record_bytes_; }

  /// Counts a mention at stream position `pos` (its tweet index) and pools
  /// its local embedding into the global embedding (incremental update of
  /// §V: "the global embedding can be incrementally updated ... as and when
  /// new mentions arrive"). Earlier evidence is scaled by lambda^(Δpos), Δpos
  /// the stream distance since the last pooled mention, before the new row
  /// joins the pool. An empty `local_emb` counts the mention only.
  void AddMention(int candidate_id, uint64_t pos,
                  std::span<const float> local_emb) {
    CandidateRecord& rec = at(candidate_id);
    ++rec.num_mentions;
    if (pos > rec.last_mention_pos) rec.last_mention_pos = pos;
    if (local_emb.empty()) return;
    const int dim = static_cast<int>(local_emb.size());
    if (rec.embedding_sum.empty()) {
      rec.embedding_sum =
          Mat(1, dim, std::vector<float>(local_emb.begin(), local_emb.end()));
      rec.embedding_weight = 1.0;
      record_bytes_ += local_emb.size() * sizeof(float);
    } else {
      EMD_CHECK_EQ(rec.embedding_sum.size(), local_emb.size());
      const uint64_t delta =
          pos > rec.last_update_pos ? pos - rec.last_update_pos : 0;
      // At lambda = 1 the scale is exactly 1 and changes no float, so it is
      // skipped; the weight then stays the exact integer count.
      if (delta > 0 && decay_lambda_ != 1.0) {
        const double scale = std::pow(decay_lambda_, static_cast<double>(delta));
        rec.embedding_sum.Scale(static_cast<float>(scale));
        rec.embedding_weight *= scale;
      }
      kernels::Kernels().vadd(rec.embedding_sum.data(), local_emb.data(),
                              rec.embedding_sum.data(), dim);
      rec.embedding_weight += 1.0;
    }
    ++rec.embedding_count;
    rec.last_update_pos = pos;
    if (retain_mention_embeddings_) {
      record_bytes_ -= rec.mention_embeddings.capacity() * sizeof(Mat);
      rec.mention_embeddings.emplace_back(
          1, dim, std::vector<float>(local_emb.begin(), local_emb.end()));
      record_bytes_ += rec.mention_embeddings.capacity() * sizeof(Mat) +
                       local_emb.size() * sizeof(float);
    }
  }

  /// Frees the record for `candidate_id` and puts its slot on the free list;
  /// once free slots outnumber live ones the pool is compacted. After
  /// eviction Contains() is false; the id itself is never reissued (the CTrie
  /// assigns fresh ids), so a dead id costs only its slot index. Invalidates
  /// references to records.
  void Evict(int candidate_id) {
    CandidateRecord& rec = at(candidate_id);
    record_bytes_ -= rec.ApproxBytes();
    rec = CandidateRecord();
    free_slots_.push_back(slot_of_[candidate_id]);
    slot_of_[candidate_id] = kNoSlot;
    if (free_slots_.size() * 2 > records_.size()) CompactRecords();
  }

  /// Approximate heap bytes across all live records. O(1).
  size_t ApproxBytes() const { return ContainerBytes() + record_bytes_; }

  /// The same figure by walking every live record: the oracle ApproxBytes()
  /// must equal. O(records).
  size_t RecountBytes() const { return ContainerBytes() + WalkRecordBytes(); }

  /// Resets the running payload sum from a walk. For code that filled
  /// records field by field through at() (checkpoint restore).
  void RebuildByteTotals() { record_bytes_ = WalkRecordBytes(); }

 private:
  static constexpr int32_t kNoSlot = -1;

  static const CandidateRecord& NoRecord() {
    static const CandidateRecord empty;
    return empty;
  }

  /// Moves the live records to the front of the pool in slot order,
  /// re-pointing their ids, and releases the free slots. O(pool), and only
  /// run once as many records were evicted as remain live.
  void CompactRecords() {
    size_t live = 0;
    for (size_t s = 0; s < records_.size(); ++s) {
      const int id = records_[s].candidate_id;
      if (id < 0) continue;
      if (s != live) {
        records_[live] = std::move(records_[s]);
        slot_of_[id] = static_cast<int32_t>(live);
      }
      ++live;
    }
    records_.resize(live);
    records_.shrink_to_fit();
    free_slots_.clear();
    free_slots_.shrink_to_fit();
    record_bytes_ = WalkRecordBytes();
  }

  size_t ContainerBytes() const {
    return slot_of_.capacity() * sizeof(int32_t) +
           records_.capacity() * sizeof(CandidateRecord) +
           free_slots_.capacity() * sizeof(int32_t);
  }
  size_t WalkRecordBytes() const {
    size_t bytes = 0;
    for (const CandidateRecord& rec : records_) {
      if (rec.candidate_id >= 0) bytes += rec.ApproxBytes();
    }
    return bytes;
  }

  // Records live in slots: an id maps to its slot (kNoSlot once evicted or
  // never created), an evicted record's slot is reused by the next new
  // record, and the pool is compacted once it is mostly free, so it is
  // bounded by the live count, not the id space.
  std::vector<int32_t> slot_of_;
  std::vector<CandidateRecord> records_;
  std::vector<int32_t> free_slots_;
  size_t record_bytes_ = 0;  // sum of live records' ApproxBytes()
  double decay_lambda_;
  bool retain_mention_embeddings_;
};

}  // namespace emd

#endif  // EMD_CORE_CANDIDATE_BASE_H_
