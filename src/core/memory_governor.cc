#include "core/memory_governor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace emd {
namespace {

struct GovernorCounters {
  obs::Gauge* governed_bytes = obs::Metrics().GetGauge(
      "emd_memory_governed_bytes",
      "Approximate bytes held by CandidateBase + CTrie + TweetBase");
  obs::Gauge* budget_bytes = obs::Metrics().GetGauge(
      "emd_memory_budget_bytes",
      "Configured memory budget (0 = governance off)");
  obs::Gauge* pressure = obs::Metrics().GetGauge(
      "emd_memory_pressure_state",
      "Memory pressure: 0 none, 1 soft (reclaiming), 2 hard (shedding)");
  obs::Counter* evicted = obs::Metrics().GetCounter(
      "emd_memory_evicted_candidates_total",
      "Cold candidates evicted by the memory governor");
  obs::Counter* pruned = obs::Metrics().GetCounter(
      "emd_memory_pruned_nodes_total",
      "CTrie nodes freed by eviction subtree pruning");
  obs::Counter* trimmed = obs::Metrics().GetCounter(
      "emd_memory_trimmed_tweets_total",
      "Tweet records whose token text was trimmed under memory pressure");
  obs::Counter* reclassified = obs::Metrics().GetCounter(
      "emd_memory_reclassified_total",
      "Ambiguous-band candidates whose label flipped on periodic re-scoring");
};

const GovernorCounters& Counters() {
  static const GovernorCounters counters;
  return counters;
}

}  // namespace

const char* MemoryPressureName(MemoryPressure p) {
  switch (p) {
    case MemoryPressure::kNone: return "none";
    case MemoryPressure::kSoft: return "soft";
    case MemoryPressure::kHard: return "hard";
  }
  return "unknown";
}

MemoryGovernor::MemoryGovernor(ShardedGlobalState* state, TweetBase* tweets,
                               MemoryGovernorOptions options)
    : state_(state), tweets_(tweets), options_(options) {
  EMD_CHECK(state != nullptr);
  EMD_CHECK(tweets != nullptr);
  if (options_.budget_bytes > 0) {
    EMD_CHECK_GT(options_.soft_watermark, 0.0);
    EMD_CHECK_LE(options_.soft_watermark, options_.hard_watermark);
    EMD_CHECK_LE(options_.hard_watermark, 1.0);
    EMD_CHECK_LE(options_.evict_target, options_.soft_watermark);
  }
}

void MemoryGovernor::RestoreStats(const MemoryGovernorStats& stats) {
  stats_ = stats;
  Counters().evicted->Set(stats.evicted_candidates);
  Counters().pruned->Set(stats.pruned_nodes);
  Counters().trimmed->Set(stats.trimmed_tweets);
  Counters().reclassified->Set(stats.reclassified);
}

size_t MemoryGovernor::ComputeBytes() const {
  return state_->GovernedBytes() + tweets_->ApproxBytes();
}

void MemoryGovernor::Run(const std::function<size_t()>& reclassify) {
  if (!enabled()) return;
  EMD_TRACE_SPAN("memory_governor");
  ++batches_;

  if (options_.reclassify_interval_batches > 0 && reclassify &&
      batches_ % options_.reclassify_interval_batches == 0) {
    const size_t flipped = reclassify();
    if (flipped > 0) {
      stats_.reclassified += flipped;
      Counters().reclassified->Increment(flipped);
    }
  }

  if (!budgeted()) return;

  // Chaos hook: a fired pressure failpoint simulates a full budget without
  // actually filling memory, driving the same reclaim + shed paths.
  const bool forced_hard =
      !EMD_FAILPOINT("core.memory_governor.pressure").ok();

  size_t bytes = ComputeBytes();
  const size_t soft =
      static_cast<size_t>(options_.soft_watermark *
                          static_cast<double>(options_.budget_bytes));
  const size_t hard =
      static_cast<size_t>(options_.hard_watermark *
                          static_cast<double>(options_.budget_bytes));

  if (forced_hard || bytes >= soft) {
    bytes = Reclaim(bytes);
  }

  MemoryPressure next = MemoryPressure::kNone;
  if (forced_hard || bytes >= hard) {
    next = MemoryPressure::kHard;
  } else if (bytes >= soft) {
    next = MemoryPressure::kSoft;
  }
  const auto prev = static_cast<MemoryPressure>(
      pressure_.exchange(static_cast<int>(next), std::memory_order_relaxed));
  if (prev != next) {
    EMD_LOG(Warn) << "memory governor: pressure " << MemoryPressureName(prev)
                  << " -> " << MemoryPressureName(next) << " (" << bytes
                  << " / " << options_.budget_bytes << " bytes)";
  }

  governed_bytes_.store(bytes, std::memory_order_relaxed);
  Counters().governed_bytes->Set(static_cast<int64_t>(bytes));
  Counters().budget_bytes->Set(static_cast<int64_t>(options_.budget_bytes));
  Counters().pressure->Set(static_cast<int64_t>(next));
}

size_t MemoryGovernor::Reclaim(size_t bytes) {
  // Rung 1: trim token text of every record that already finished Global
  // EMD — pure savings, no output impact (mentions/spans are retained).
  const size_t trimmed = tweets_->TrimTokens(tweets_->size());
  if (trimmed > 0) {
    stats_.trimmed_tweets += trimmed;
    Counters().trimmed->Increment(trimmed);
    bytes = ComputeBytes();
  }

  const size_t target =
      static_cast<size_t>(options_.evict_target *
                          static_cast<double>(options_.budget_bytes));
  if (bytes < target) return bytes;

  // Rungs 2-3: evict cold candidates, confirmed non-entities first, then
  // aged ambiguous/unlabeled ones. Confirmed entities are never evicted —
  // they are the stream's accumulated signal.
  if (EvictTier(0, target, &bytes)) {
    EvictTier(1, target, &bytes);
  }
  return ComputeBytes();
}

bool MemoryGovernor::EvictTier(int tier, size_t target, size_t* bytes) {
  if (*bytes < target) return true;
  const uint64_t stream_pos = tweets_->size();

  // Victims, coldest first (oldest last mention; ties broken by gid so the
  // sweep order is deterministic at any shard count — gids are assigned in
  // discovery order regardless of which shard homes the candidate).
  std::vector<std::pair<uint64_t, int>> victims;
  for (int id = 0; id < state_->num_candidates(); ++id) {
    if (!state_->Contains(id)) continue;
    const CandidateRecord& rec = state_->at(id);
    const CandidateLabel label = state_->Label(id);
    if (label == CandidateLabel::kEntity) continue;
    if (tier == 0) {
      if (label != CandidateLabel::kNonEntity) continue;
    } else {
      if (label == CandidateLabel::kNonEntity) continue;
      if (rec.last_mention_pos + options_.min_retain_tweets > stream_pos) {
        continue;
      }
    }
    victims.emplace_back(rec.last_mention_pos, id);
  }
  std::sort(victims.begin(), victims.end());

  for (const auto& [pos, id] : victims) {
    (void)pos;
    if (*bytes < target) break;
    // Chaos hook: lets tests abort the sweep between victims (each eviction
    // is atomic — record freed and trie pruned together — so state stays
    // checkpointable mid-sweep).
    if (!EMD_FAILPOINT("core.memory_governor.evict").ok()) return false;
    state_->Evict(id);
    // Prune also unwinds the scan index: per-edge symbol references
    // are released (dead symbol ids recycle) and the shard's first-token
    // dispatch entry is unregistered once its root edge disappears, so the
    // scan index shrinks with the trie instead of accreting garbage.
    const int pruned = state_->Prune(id);
    ++stats_.evicted_candidates;
    stats_.pruned_nodes += static_cast<uint64_t>(pruned);
    Counters().evicted->Increment();
    Counters().pruned->Increment(static_cast<uint64_t>(pruned));
    *bytes = ComputeBytes();
  }
  return true;
}

}  // namespace emd
