// MemoryGovernor — byte-budget governance for unbounded streams.
//
// The paper's incremental pooling (§V) accumulates CandidateBase / CTrie /
// TweetBase state forever, which caps stream lifetime: the one
// resource-exhaustion failure the resilience ladder (deadlines, breakers,
// backpressure, drain) does not cover. The governor bounds that state under
// an operator-set byte budget with graceful, observable degradation instead
// of an OOM kill:
//
//   * byte accounting — the global state's GovernedBytes() plus the
//     TweetBase's ApproxBytes(), read at every batch barrier and exported as
//     gauges. GovernedBytes() charges per-shard structures by gid-level
//     counts, so every decision below is the same at any shard count. Each
//     store keeps its per-element bytes as running sums, so a read is
//     O(shards), not a walk of the state (the Recount* walks are kept as
//     test oracles);
//   * soft watermark — reclaim in escalating rungs: trim token text of
//     tweets that finished Global EMD, then evict cold candidates (coldest
//     first by last-mention recency; confirmed non-entities before
//     ambiguous/unlabeled; confirmed entities never) with safe CTrie subtree
//     pruning. The admission edge reads pressure() and tightens;
//   * hard watermark — when reclaim cannot get back under the hard line, the
//     serving edge sheds with RETRY_AFTER (reason=memory_pressure) until
//     eviction catches up;
//   * periodic re-classification — every `reclassify_interval_batches`
//     cycles the owner re-scores γ-band (ambiguous/unlabeled) candidates
//     whose decayed global embeddings accumulated evidence, the
//     revisit-labels win the paper leaves on the table.
//
// Threading: Run() mutates the stores and must only be called at the
// Globalizer's single-threaded batch merge barrier (the same single-writer
// contract as CTrie::Insert). pressure() is an atomic read, safe from any
// thread (the admission controller polls it from the serving thread).

#ifndef EMD_CORE_MEMORY_GOVERNOR_H_
#define EMD_CORE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/global_state.h"
#include "core/tweet_base.h"

namespace emd {

/// Memory-pressure state, exported to the admission edge. Order matters:
/// higher = more degraded.
enum class MemoryPressure : int { kNone = 0, kSoft = 1, kHard = 2 };

const char* MemoryPressureName(MemoryPressure p);

struct MemoryGovernorOptions {
  /// Total byte budget across CandidateBase + CTrie + TweetBase. 0 (default)
  /// disables budget governance entirely — no accounting, no eviction — so
  /// an ungoverned Globalizer behaves exactly like pre-governor builds.
  size_t budget_bytes = 0;

  /// Watermarks as fractions of budget_bytes. Crossing soft starts
  /// reclamation and tightens admission; failing to reclaim below hard makes
  /// the serving edge shed with RETRY_AFTER.
  double soft_watermark = 0.75;
  double hard_watermark = 0.95;

  /// Reclamation target: eviction stops once accounted bytes drop below
  /// evict_target * budget_bytes (hysteresis below the soft line so the
  /// governor doesn't thrash at the watermark).
  double evict_target = 0.60;

  /// Exponential decay half-life for global-embedding pooling, in stream
  /// positions (tweets). 0 = no decay: pooling stays bit-exact with the
  /// original unweighted mean. The Globalizer builds its state's shards with
  /// it, at construction and at restore; the governor does not read it.
  uint64_t decay_half_life_tweets = 0;

  /// Ambiguous/unlabeled candidates younger than this many stream positions
  /// are never evicted — they have not had a fair chance to accumulate
  /// evidence yet. Confirmed non-entities are evictable at any age.
  uint64_t min_retain_tweets = 512;

  /// Re-classify γ-band candidates every N batches (0 = never). Runs via the
  /// owner-provided callback so the governor stays classifier-agnostic.
  uint64_t reclassify_interval_batches = 0;
};

/// Lifetime reclamation totals; persisted in checkpoints (v4+) so a resumed
/// stream's operator report stays cumulative.
struct MemoryGovernorStats {
  uint64_t evicted_candidates = 0;
  uint64_t pruned_nodes = 0;
  uint64_t trimmed_tweets = 0;
  uint64_t reclassified = 0;
};

class MemoryGovernor {
 public:
  /// All pointers must outlive the governor; they are the Globalizer's own
  /// stores, mutated only at its batch barrier. One governor per Globalizer
  /// (i.e. per stream): budgets and eviction sweeps never cross streams.
  MemoryGovernor(ShardedGlobalState* state, TweetBase* tweets,
                 MemoryGovernorOptions options);

  /// True when a byte budget or periodic reclassification is set. Decay is
  /// not a trigger: it acts inside pooling. An inert governor costs one
  /// branch per batch.
  bool enabled() const {
    return options_.budget_bytes > 0 ||
           options_.reclassify_interval_batches > 0;
  }
  bool budgeted() const { return options_.budget_bytes > 0; }

  /// One governance pass; call at the end of every ProcessBatch, on the
  /// merge thread. `reclassify` (may be empty) re-scores γ-band candidates
  /// and returns how many labels flipped; the governor invokes it when the
  /// reclassification interval elapses. Failpoints:
  ///   core.memory_governor.pressure — a fire forces hard pressure this pass
  ///     (chaos: exercise shedding without filling real memory);
  ///   core.memory_governor.evict — polled between victims; a fire aborts
  ///     the eviction sweep early, leaving consistent state (chaos:
  ///     kill-and-resume mid-eviction).
  void Run(const std::function<size_t()>& reclassify);

  /// Current pressure; atomic, readable from any thread. The admission
  /// controller maps kSoft to a tightened watermark and kHard to
  /// reason=memory_pressure shedding.
  MemoryPressure pressure() const {
    return static_cast<MemoryPressure>(
        pressure_.load(std::memory_order_relaxed));
  }

  /// Bytes accounted at the last pass (0 before the first budgeted pass).
  size_t governed_bytes() const {
    return governed_bytes_.load(std::memory_order_relaxed);
  }

  const MemoryGovernorStats& stats() const { return stats_; }
  /// Checkpoint-restore only: re-baselines the lifetime totals.
  void RestoreStats(const MemoryGovernorStats& stats);

  const MemoryGovernorOptions& options() const { return options_; }

 private:
  size_t ComputeBytes() const;
  /// Escalating reclamation; returns bytes after the sweep.
  size_t Reclaim(size_t bytes);
  /// Evicts cold candidates of the given tier until `bytes` (in/out, re-read
  /// after each victim) falls below `target` or victims run out. Tier 0 =
  /// confirmed non-entities, tier 1 = ambiguous/unlabeled past
  /// min_retain_tweets. Returns false when the eviction failpoint fired
  /// (sweep aborted).
  bool EvictTier(int tier, size_t target, size_t* bytes);

  ShardedGlobalState* state_;
  TweetBase* tweets_;
  MemoryGovernorOptions options_;

  std::atomic<int> pressure_{0};
  std::atomic<size_t> governed_bytes_{0};
  MemoryGovernorStats stats_;
  uint64_t batches_ = 0;
};

}  // namespace emd

#endif  // EMD_CORE_MEMORY_GOVERNOR_H_
