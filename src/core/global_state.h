// ShardedGlobalState — the global candidate state of §IV/§V partitioned into
// shard-local slices (docs/SHARDING.md).
//
// Each shard owns one CTrie + one CandidateBase; a candidate lives in exactly
// one shard, chosen by ShardRouter over its case-folded key. Callers address
// candidates through *global ids* (gids) assigned in discovery order — the
// same dense id sequence the unsharded CTrie would have produced — so
// pooling order, classification order, eviction victim order, and therefore
// every emitted label are bit-identical at any shard count. A gid→(shard,
// local id) index translates between the two spaces.
//
// Concurrency contract: registration (Insert / GetOrCreate / AppendTombstone),
// structural mutation (Evict / Prune) and the label column / dirty set
// (MarkDirty / SetLabel) require the single-writer batch barrier, exactly
// like the unsharded CTrie. Extract() is read-only and safe
// from worker threads. AddMention(gid) mutates only the owning shard, so the
// Globalizer's bucketed merge drain may pool different shards from different
// workers concurrently as long as no two workers touch the same shard.

#ifndef EMD_CORE_GLOBAL_STATE_H_
#define EMD_CORE_GLOBAL_STATE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/shard_router.h"
#include "text/symbol_table.h"
#include "text/token.h"

namespace emd {

namespace obs {
class Gauge;
}  // namespace obs

/// Location of a gid inside the shard set.
struct GidRef {
  int32_t shard = -1;
  int32_t local = -1;  // candidate id inside the shard's CTrie/CandidateBase
};

/// One candidate mention found by the §V-A re-scan: the longest registered
/// phrase starting at `span.begin`, addressed by its gid.
struct ExtractedMention {
  TokenSpan span;
  int candidate_id = CTrie::kNoCandidate;

  bool operator==(const ExtractedMention& o) const {
    return span == o.span && candidate_id == o.candidate_id;
  }
};

/// Candidate-keyed sharded global state: N × (CTrie + CandidateBase) behind a
/// gid-addressed facade that is drop-in equivalent to the single pair.
class ShardedGlobalState {
 public:
  /// Builds `shard_count` shards, each pooling with the given policy (see
  /// CandidateBase's constructor): the policy is fixed for the state's life.
  explicit ShardedGlobalState(int shard_count = 1,
                              uint64_t decay_half_life_tweets = 0,
                              bool retain_mention_embeddings = false);

  int shard_count() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }

  // --- Registration (single-writer) -------------------------------------

  /// Registers the case-folded phrase under `span`, routing it to its shard.
  /// Returns the gid; re-inserting an existing phrase returns its gid.
  int Insert(const std::vector<Token>& tokens, const TokenSpan& span);

  /// Registers an explicit word sequence (folded internally).
  int Insert(const std::vector<std::string>& words);

  /// Looks up a full phrase; returns its gid or CTrie::kNoCandidate.
  int Find(const std::vector<std::string>& words) const;

  /// Restore-path only: appends a tombstoned gid (homed in shard 0, like the
  /// unsharded layout) so a checkpointed id space with holes rebuilds
  /// exactly. Returns the gid.
  int AppendTombstone();

  // --- Extraction (read-only, thread-safe) ------------------------------

  /// Per-worker reusable scan scratch. After warm-up (capacities grown to
  /// the steady-state tweet shape) ExtractInto performs zero heap
  /// allocations. One instance per worker slot — never shared concurrently.
  struct ScanScratch {
    std::vector<int32_t> syms;  // per-token symbol ids
    std::string fold_scratch;   // single fold buffer
  };

  /// Longest-match candidate scan (§V-A); appends mentions carrying gids to
  /// `*out` (cleared first). Each token is case-folded and interned to an
  /// int32 symbol exactly once per tweet; each window start then resolves
  /// through the service-wide first-token dispatch table and walks int-keyed
  /// edges (StepSymbol). Tokens that begin no candidate in any shard cost
  /// one table lookup regardless of S. At most one shard terminates a
  /// candidate per (start, length) window — a phrase lives in exactly one
  /// shard — so the longest match is unique and the result equals a
  /// single-trie scan at any shard count.
  void ExtractInto(const std::vector<Token>& tokens, ScanScratch* scratch,
                   std::vector<ExtractedMention>* out) const;

  /// Convenience wrapper allocating throwaway scratch (tests, cold paths).
  std::vector<ExtractedMention> Extract(const std::vector<Token>& tokens) const;

  // --- Gid-level lookups -------------------------------------------------

  /// Total gids ever assigned, including tombstones (dense id space bound).
  int num_candidates() const { return static_cast<int>(gids_.size()); }
  /// Live (non-tombstoned) candidates across all shards.
  int num_live_candidates() const;
  bool IsTombstone(int gid) const;
  /// Case-folded surface string (empty for a pruned gid).
  const std::string& CandidateKey(int gid) const;
  /// Token count (0 for a pruned gid).
  int CandidateLength(int gid) const;
  /// Longest registered candidate across shards (scan window bound of §V-A).
  int max_candidate_length() const;
  /// Shard owning `gid`.
  int ShardOf(int gid) const;
  GidRef ref(int gid) const;

  // --- Candidate records (gid-addressed CandidateBase facade) ------------

  /// Ensures a record exists for `gid`. A newly created record starts
  /// kUnlabeled and dirty.
  CandidateRecord& GetOrCreate(int gid);
  CandidateRecord& at(int gid);
  const CandidateRecord& at(int gid) const;
  bool Contains(int gid) const;
  /// Counts a mention at tweet `pos`, pools its row if any. Owning shard only.
  void AddMention(int gid, uint64_t pos, std::span<const float> local_emb);
  /// Frees the record, freezing its label in the column and marking the gid
  /// evicted; drops any dirty mark.
  void Evict(int gid);
  /// Prunes the phrase from its owning trie; returns trie nodes freed.
  int Prune(int gid);
  /// True when `gid`'s record was evicted (its column label is frozen).
  bool WasEvicted(int gid) const {
    return static_cast<size_t>(gid) < flags_.size() &&
           (flags_[gid] & kEvictedFlag) != 0;
  }

  // --- Incremental classification (single-writer) ------------------------
  //
  // A verdict is a pure function of a candidate's pooled inputs, so only
  // *dirty* gids — created, or pooled into, since their last verdict — need
  // re-scoring. Every gid also owns one byte of a dense label column: the
  // live verdict, frozen at eviction — the only place a verdict is stored.

  /// Marks `gid` for re-scoring (deduplicated). Record creation marks
  /// implicitly; the Globalizer marks each pooled mention in the serial
  /// phase of its merge barrier.
  void MarkDirty(int gid);
  /// The dirty live gids in ascending order, after dropping the entries that
  /// SetLabel / Evict cleared since the last call.
  const std::vector<int>& DirtyGids();
  /// Records a fresh verdict for live `gid`: writes the column, moves it
  /// between the per-label tallies and clears its dirty mark.
  void SetLabel(int gid, CandidateLabel label);
  /// The label the output rule reads: the live verdict, or the label frozen
  /// at eviction; kUnlabeled for tombstones and unassigned ids.
  CandidateLabel Label(int gid) const {
    return static_cast<size_t>(gid) < labels_.size()
               ? static_cast<CandidateLabel>(labels_[gid])
               : CandidateLabel::kUnlabeled;
  }
  /// Live records whose column holds `label` (kUnlabeled: created, never
  /// labelled). The four tallies sum to the live record count.
  int NumLive(CandidateLabel label) const {
    return live_by_label_[static_cast<size_t>(label)];
  }
  /// Restore path: writes a checkpointed verdict into the column, with the
  /// evicted mark for a dead gid whose record was evicted.
  void RestoreLabel(int gid, CandidateLabel label, bool evicted);
  /// Restore path: recomputes the tallies from the column and marks every
  /// live gid dirty.
  void RebuildLabelColumn();

  // --- Accounting & views -------------------------------------------------

  /// Approximate heap bytes across all shards (tries + candidate records)
  /// plus the shared symbol table, first-token dispatch, the gid map, and
  /// the per-gid label / flag columns with the dirty list. O(shards): every
  /// store keeps its per-element bytes as running sums (docs/MEMORY.md).
  size_t ApproxBytes() const;
  /// Approximate heap bytes held by one shard. O(1).
  size_t ShardApproxBytes(int shard) const;
  /// The memory governor's figure: the bytes eviction returns, which are
  /// each live candidate's record and payload, trie entry, key, key path and
  /// first-token dispatch entry, all charged by gid-level counts so the
  /// figure is the same at any shard count and so are the governor's
  /// decisions. Structures no eviction shrinks (the symbol table, the
  /// per-gid columns, container slack) are left out; ApproxBytes() has them
  /// (docs/MEMORY.md, "The governor's figure"). O(shards).
  size_t GovernedBytes() const;
  /// The same figure with the live key bytes, token count and first-token
  /// count taken from a walk of every live candidate and dispatch list: the
  /// oracle GovernedBytes() must equal. O(state).
  size_t RecountGovernedBytes() const;
  /// The same two figures by walking every node, record and symbol: the
  /// oracle the running sums must equal. O(state).
  size_t RecountBytes() const;
  size_t ShardRecountBytes(int shard) const;
  /// Resets the candidate records' running byte sums from a walk. Called
  /// once by checkpoint restore, which fills records field by field.
  void RebuildByteTotals();
  /// Live candidates homed in one shard.
  int ShardLiveCandidates(int shard) const;

  /// Publishes per-shard gauges (emd_shard_candidates / emd_shard_bytes,
  /// labelled shard="<index>"). Called at the batch merge barrier.
  void UpdateShardGauges();

  /// Live interned symbols across all shard tries (scan vocabulary size).
  int num_live_symbols() const { return symbols_->num_live(); }
  const SymbolTable& symbols() const { return *symbols_; }

  /// First-token dispatch entries currently registered for `sym` (test /
  /// introspection hook; empty when no candidate starts with that symbol).
  int DispatchFanout(int32_t sym) const;

 private:
  struct Shard {
    Shard(SymbolTable* symbols, uint64_t decay_half_life_tweets,
          bool retain_mention_embeddings)
        : trie(symbols),
          candidates(decay_half_life_tweets, retain_mention_embeddings) {}
    CTrie trie;
    CandidateBase candidates;
    std::vector<int> local_to_gid;  // dense: local candidate id -> gid
  };

  /// One continuation of the first-token dispatch: candidate phrases
  /// starting with the indexing symbol continue from `node` of `shard`.
  struct DispatchEntry {
    int32_t shard;
    int32_t node;
  };

  /// Assigns the next gid to `ref`, growing the per-gid columns with it.
  int AppendGid(GidRef ref);

  /// Tallies and marks a freshly created record (kUnlabeled).
  void OnRecordCreated(int gid);

  /// Drops the dirty list's stale and repeated entries and sorts it.
  void CompactDirty();

  /// Registers a folded phrase in the shard its key routes to.
  int InsertFolded(const FoldedPhrase& phrase);

  /// Ensures first_token_[first.symbol] carries `shard`'s root continuation
  /// `first.node`, the root child the trie insert stepped to. Idempotent;
  /// called after every trie insert.
  void RegisterFirstToken(int shard, CTrie::RootEdge first);

  /// The GovernedBytes terms that do not depend on the running sums.
  size_t GovernedRecordBytes() const;

  /// Byte terms of the service-wide structures read from container
  /// capacities at query time (the dispatch lists' bytes are a running
  /// sum): the gid -> (shard, local) map, the dispatch table and the
  /// label / flag columns.
  size_t SharedContainerBytes() const;

  ShardRouter router_;
  // Heap-owned so CTrie's raw SymbolTable* (and the dispatch table's node
  // ids) survive move-assignment of the whole state — checkpoint restore
  // builds a fresh state and moves it over the live one.
  std::unique_ptr<SymbolTable> symbols_;
  std::vector<Shard> shards_;
  std::vector<GidRef> gids_;
  // Per-gid label column (a CandidateLabel per byte) and flag bytes (dirty,
  // evicted), plus the dirty list (may hold cleared or repeated entries until
  // DirtyGids compacts it) and live-record tallies indexed by CandidateLabel.
  static constexpr uint8_t kDirtyFlag = 1;
  static constexpr uint8_t kEvictedFlag = 2;
  std::vector<uint8_t> labels_;
  std::vector<uint8_t> flags_;
  std::vector<int> dirty_;
  std::array<int, 4> live_by_label_{};
  // Service-wide first-token dispatch: symbol id -> continuations, sorted by
  // shard. Invariant: an entry (shard, node) exists iff that shard's root
  // has an edge for the symbol — maintained by Insert (register) and Prune
  // (unregister when the root edge disappears), so a recycled symbol id
  // always starts with an empty slot.
  std::vector<std::vector<DispatchEntry>> first_token_;
  // Registration scratch (single writer): each phrase is folded once into
  // it, so re-registering a known candidate allocates nothing once warm.
  FoldedPhrase register_scratch_;
  // Capacity bytes of every first_token_ list, kept by RegisterFirstToken.
  size_t dispatch_bytes_ = 0;
  // GovernedBytes terms kept by registration and Prune: the live
  // candidates' KeyBytes and token counts, and the symbols with a
  // non-empty dispatch list.
  size_t live_key_bytes_ = 0;
  size_t live_key_tokens_ = 0;
  size_t live_first_tokens_ = 0;
  // Lazily resolved per-shard gauges (registry owns the objects).
  std::vector<obs::Gauge*> shard_candidate_gauges_;
  std::vector<obs::Gauge*> shard_byte_gauges_;
};

}  // namespace emd

#endif  // EMD_CORE_GLOBAL_STATE_H_
