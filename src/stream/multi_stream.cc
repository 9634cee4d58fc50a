#include "stream/multi_stream.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace emd {

MultiStreamService::MultiStreamService(MultiStreamOptions options)
    : options_(std::move(options)) {}

Result<int> MultiStreamService::RegisterStream(
    const std::string& name, LocalEmdSystem* system,
    const PhraseEmbedder* phrase_embedder, const EntityClassifier* classifier) {
  return RegisterStream(name, system, phrase_embedder, classifier,
                        options_.globalizer);
}

Result<int> MultiStreamService::RegisterStream(
    const std::string& name, LocalEmdSystem* system,
    const PhraseEmbedder* phrase_embedder, const EntityClassifier* classifier,
    GlobalizerOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("stream name must be non-empty");
  }
  for (const StreamSlot& slot : streams_) {
    if (slot.name == name) {
      return Status::AlreadyExists("stream '", name, "' is already registered");
    }
  }
  // The service owns the aggregate shard gauges; a per-stream Globalizer
  // publishing its own would fight its neighbours last-writer-wins.
  options.publish_shard_gauges = false;
  StreamSlot slot;
  slot.name = name;
  slot.globalizer = std::make_unique<Globalizer>(system, phrase_embedder,
                                                 classifier, options);
  streams_.push_back(std::move(slot));
  return static_cast<int>(streams_.size()) - 1;
}

int MultiStreamService::ResolveStream(std::string_view name) const {
  if (name.empty()) return 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].name == name) return static_cast<int>(i);
  }
  EMD_LOG(Warn) << "unknown stream '" << name
                << "' routed to the default stream 0";
  return 0;
}

const std::string& MultiStreamService::stream_name(int stream_id) const {
  EMD_CHECK_GE(stream_id, 0);
  EMD_CHECK_LT(stream_id, num_streams());
  return streams_[stream_id].name;
}

Globalizer& MultiStreamService::stream(int stream_id) {
  EMD_CHECK_GE(stream_id, 0);
  EMD_CHECK_LT(stream_id, num_streams());
  return *streams_[stream_id].globalizer;
}

const Globalizer& MultiStreamService::stream(int stream_id) const {
  EMD_CHECK_GE(stream_id, 0);
  EMD_CHECK_LT(stream_id, num_streams());
  return *streams_[stream_id].globalizer;
}

Status MultiStreamService::ProcessBatch(std::span<const AnnotatedTweet> batch) {
  EMD_CHECK_GT(num_streams(), 0);
  // Stable group-by: one bucket per stream, each preserving batch order.
  std::vector<std::vector<AnnotatedTweet>> groups(streams_.size());
  for (const AnnotatedTweet& tweet : batch) {
    int sid = tweet.stream_id;
    if (sid < 0 || sid >= num_streams()) sid = 0;
    groups[sid].push_back(tweet);
  }
  // Run every non-empty group even after one stream fails: a faulty stream
  // drops its own batch (Globalizer contract) but never starves neighbours.
  Status first_error = Status::OK();
  for (size_t sid = 0; sid < groups.size(); ++sid) {
    if (groups[sid].empty()) continue;
    const Status st = streams_[sid].globalizer->ProcessBatch(groups[sid]);
    if (st.ok()) {
      ++streams_[sid].batches;
    } else if (first_error.ok()) {
      first_error = Status::Internal("stream '", streams_[sid].name,
                                     "': ", st.ToString());
    }
  }
  return first_error;
}

ServiceSnapshot MultiStreamService::Snapshot() const {
  ServiceSnapshot snap;
  int max_shards = 0;
  for (const StreamSlot& slot : streams_) {
    max_shards = std::max(max_shards, slot.globalizer->global_state().shard_count());
  }
  snap.shard_candidates.assign(static_cast<size_t>(max_shards), 0);
  snap.shard_bytes.assign(static_cast<size_t>(max_shards), 0);

  for (size_t sid = 0; sid < streams_.size(); ++sid) {
    const StreamSlot& slot = streams_[sid];
    const Globalizer& g = *slot.globalizer;
    const ShardedGlobalState& state = g.global_state();

    StreamStats stats;
    stats.name = slot.name;
    stats.stream_id = static_cast<int>(sid);
    stats.tweets = g.processed_tweets();
    stats.live_candidates = state.num_live_candidates();
    stats.approx_bytes = state.ApproxBytes() + g.tweet_base().ApproxBytes();
    stats.evicted = g.memory_governor().stats().evicted_candidates;
    stats.memory_pressure = static_cast<int>(g.memory_pressure());
    snap.total_tweets += stats.tweets;
    snap.total_bytes += stats.approx_bytes;

    for (int s = 0; s < state.shard_count(); ++s) {
      snap.shard_candidates[s] += state.ShardLiveCandidates(s);
      snap.shard_bytes[s] += static_cast<int64_t>(state.ShardApproxBytes(s));
    }

    // Per-stream observability, labelled by stream name so a dashboard can
    // fan out without guessing ids (names are stable across restarts, ids
    // depend on registration order).
    const obs::Label label{"stream", slot.name};
    obs::Metrics()
        .GetGauge("emd_stream_tweets",
                  "Tweets processed by this stream's pipeline", label)
        ->Set(static_cast<int64_t>(stats.tweets));
    obs::Metrics()
        .GetGauge("emd_stream_candidates",
                  "Live candidates in this stream's global state", label)
        ->Set(stats.live_candidates);
    obs::Metrics()
        .GetGauge("emd_stream_bytes",
                  "Approximate heap bytes held by this stream", label)
        ->Set(static_cast<int64_t>(stats.approx_bytes));
    obs::Metrics()
        .GetGauge("emd_stream_evicted",
                  "Candidates evicted by this stream's memory governor", label)
        ->Set(static_cast<int64_t>(stats.evicted));
    obs::Metrics()
        .GetGauge("emd_stream_pressure",
                  "Memory pressure of this stream: 0 none, 1 soft, 2 hard",
                  label)
        ->Set(stats.memory_pressure);

    snap.streams.push_back(std::move(stats));
  }

  // Aggregate shard gauges: the service-wide view the per-stream Globalizers
  // were told not to publish (publish_shard_gauges=false).
  for (int s = 0; s < max_shards; ++s) {
    const obs::Label label{"shard", std::to_string(s)};
    obs::Metrics()
        .GetGauge("emd_shard_candidates",
                  "Live candidates homed in this shard of the global state",
                  label)
        ->Set(snap.shard_candidates[s]);
    obs::Metrics()
        .GetGauge("emd_shard_bytes",
                  "Approximate heap bytes held by this shard (trie + records)",
                  label)
        ->Set(snap.shard_bytes[s]);
  }
  return snap;
}

std::vector<MultiStreamService::CandidateHit> MultiStreamService::QueryCandidate(
    const std::vector<std::string>& words) const {
  std::vector<CandidateHit> hits;
  for (size_t sid = 0; sid < streams_.size(); ++sid) {
    const ShardedGlobalState& state = streams_[sid].globalizer->global_state();
    const int gid = state.Find(words);
    if (gid < 0 || !state.Contains(gid)) continue;
    CandidateHit hit;
    hit.stream_id = static_cast<int>(sid);
    hit.candidate_id = gid;
    hit.label = state.Label(gid);
    hit.num_mentions = state.at(gid).num_mentions;
    hits.push_back(hit);
  }
  return hits;
}

std::string MultiStreamService::CheckpointPath(const std::string& dir,
                                               int stream_id) const {
  return dir + "/stream-" + std::to_string(stream_id) + ".ckpt";
}

Status MultiStreamService::SaveCheckpoints(const std::string& dir) const {
  for (size_t sid = 0; sid < streams_.size(); ++sid) {
    const std::string path = CheckpointPath(dir, static_cast<int>(sid));
    const Status st = streams_[sid].globalizer->SaveCheckpoint(path);
    if (!st.ok()) {
      return Status::IoError("stream '", streams_[sid].name, "' checkpoint to ",
                             path, " failed: ", st.ToString());
    }
  }
  return Status::OK();
}

Status MultiStreamService::RestoreCheckpoints(const std::string& dir) {
  for (size_t sid = 0; sid < streams_.size(); ++sid) {
    const std::string path = CheckpointPath(dir, static_cast<int>(sid));
    if (!FileExists(path)) {
      // New stream since the save: it starts empty by design.
      continue;
    }
    const Status st = streams_[sid].globalizer->RestoreCheckpoint(path);
    if (!st.ok()) {
      return Status::Corruption("stream '", streams_[sid].name,
                                "' restore from ", path,
                                " failed: ", st.ToString());
    }
  }
  return Status::OK();
}

}  // namespace emd
