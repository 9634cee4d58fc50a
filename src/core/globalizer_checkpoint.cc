// Globalizer checkpoint/restore — crash-safe persistence of the accumulated
// global state (CTrie, TweetBase, CandidateBase, fault counters).
//
// Binary layout (little-endian), version 5:
//   u32 magic 'EMDG'   u32 version
//   u8  mode           u64 processed_tweets
//   u32 num_quarantined  u32 num_degraded  u8 classifier_degraded
//   [v2+] u32 num_retries  u32 num_fallback  u32 num_dead_lettered
//         u32 breaker_trips  u32 breaker_recoveries   (lifetime totals; the
//         live circuit breaker restarts closed after a restore)
//   [v4+] memory-governor lifetime totals: u64 evicted_candidates,
//         u64 pruned_nodes, u64 trimmed_tweets, u64 reclassified
//   Candidate keys:
//     [v5+] sharded layout — u32 shard_count, u32 num_gids; per gid
//           (ascending) u8 live; then per shard s (ascending): u32 count,
//           followed by that shard's live candidates in gid order:
//           u32 gid, string key, u32 len. Dead gids rebuild as tombstones so
//           the dense gid space (including eviction holes) survives.
//     [v1-4] single-trie layout — u32 count; per candidate id (ascending):
//           [v4] u8 live; when live (always in v1-3): string key, u32 len.
//   TweetBase: u64 count; per record: i64 tweet_id, i32 sentence_id,
//              u8 quarantined, [v4+] u8 trimmed,
//              tokens[u32: string text, u64 begin, u64 end,
//              u8 kind], mentions[u32: u64 span.begin, u64 span.end,
//              i32 candidate_id, u8 locally_detected]
//              The TweetBase stores no token text, so the writer puts every
//              record in the trimmed form (trimmed 1, no tokens); restore
//              validates the tokens of older files and discards them.
//   CandidateBase: u64 slots (== num_gids in v5); per slot (gid order):
//              u8 present; when present:
//              string key, i32 num_tokens (both as the candidate-key section
//              registered them; restore refuses any other),
//              mentions[u32: u64 tweet_index,
//              u64 span.begin, u64 span.end, u8 locally_detected] (this
//              gid's TweetBase mentions; restore refuses any other list),
//              embedding_sum[i32 rows, i32 cols, f32 data...],
//              i32 embedding_count,
//              [v4+] f64 embedding_weight, u64 last_update_pos,
//                    u64 last_mention_pos,
//              u8 label, f32 entity_probability,
//              mention_embeddings[u32: i32 rows, i32 cols, f32 data...];
//              when absent in v4+: u8 evicted_label (0 = never evicted,
//              else CandidateLabel + 1 — the emit rule for mentions of
//              evicted candidates survives a resume)
//   The key and length come from the CTrie and the labels and evicted marks
//   from the state's label column; the record stores none of them.
//   [v3+] Metrics block — a serialized obs::MetricsSnapshot of the process
//         registry, so a resumed stream continues its lifetime observability
//         totals (gauges are instantaneous and deliberately not persisted):
//         counters[u32: string name, string help, string label_key,
//                  string label_value, u64 value]
//         histograms[u32: string name, string help, string label_key,
//                  string label_value, bounds[u32: f64],
//                  buckets[u32 = bounds+1: u64], f64 sum, u64 count]
//   u32 CRC32 over everything above
//
// Every version restores through one generic path: candidate keys are
// re-inserted in gid order into the *current* shard layout (Insert assigns
// dense gids in insertion order, so the rebuilt state reproduces every gid —
// verified during restore; tombstones re-home to shard 0, where the unsharded
// layout kept them). Because routing hashes the key, a v5 file written with S
// shards restores into any shard count — and a v1-4 file restores into a
// sharded build — with bit-identical pipeline output either way. When the
// shard counts do match, the recorded shard assignments are additionally
// validated against the router. Token embeddings in flight are not captured:
// checkpoints are only valid between execution cycles, and every
// ProcessBatch releases its batch's token embeddings before it returns.
//
// Pre-v4 checkpoints carry no decay/governance fields; they restore with
// embedding_weight = embedding_count and last positions derived from the
// mention list, which is exactly the ungoverned state they were saved in.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/globalizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace emd {
namespace {

constexpr uint32_t kCheckpointMagic = 0x454D4447;  // 'EMDG'
constexpr uint32_t kCheckpointVersion = 5;
// Version 1 (no resilience counters), version 2 (no metrics block), version 3
// (no memory-governance fields), and version 4 (single-trie candidate key
// section) checkpoints are still readable.
constexpr uint32_t kMinCheckpointVersion = 1;

void AppendMat(std::string* out, const Mat& m) {
  binio::AppendI32(out, m.rows());
  binio::AppendI32(out, m.cols());
  binio::AppendFloats(out, m.data(), m.size());
}

// Smallest encoded size of one element of each counted checkpoint list. A
// count read from the file is bounded by the bytes left before any
// allocation, so a corrupt count is rejected rather than reserved.
// token: string text, u64 begin, u64 end, u8 kind
constexpr uint64_t kMinTokenBytes = 4 + 8 + 8 + 1;
// tweet mention: u64 begin, u64 end, i32 candidate_id, u8 locally_detected
constexpr uint64_t kMinTweetMentionBytes = 8 + 8 + 4 + 1;
// candidate mention: u64 tweet_index, u64 begin, u64 end, u8 locally_detected
constexpr uint64_t kMinCandidateMentionBytes = 8 + 8 + 8 + 1;
// matrix: i32 rows, i32 cols
constexpr uint64_t kMinMatBytes = 4 + 4;
// counter: four strings, u64 value
constexpr uint64_t kMinCounterBytes = 4 * 4 + 8;
// histogram: four strings, u32 bound count, one u64 bucket, f64 sum, u64 count
constexpr uint64_t kMinHistogramBytes = 4 * 4 + 4 + 8 + 8 + 8;

/// Reads a u32 element count and checks that `count` elements of at least
/// `min_bytes` each fit in what is left of the reader.
Status ReadCount(binio::Reader* reader, uint64_t min_bytes, const char* what,
                 uint32_t* count) {
  EMD_RETURN_IF_ERROR(reader->ReadU32(count));
  if (uint64_t(*count) * min_bytes > reader->remaining()) {
    return Status::Corruption("checkpoint ", what, " count ", *count,
                              " exceeds remaining bytes");
  }
  return Status::OK();
}

Status ReadMat(binio::Reader* reader, Mat* m) {
  int32_t rows = 0, cols = 0;
  EMD_RETURN_IF_ERROR(reader->ReadI32(&rows));
  EMD_RETURN_IF_ERROR(reader->ReadI32(&cols));
  if (rows < 0 || cols < 0 ||
      uint64_t(rows) * uint64_t(cols) * sizeof(float) > reader->remaining()) {
    return Status::Corruption("checkpoint matrix shape [", rows, ", ", cols,
                              "] exceeds remaining bytes");
  }
  *m = Mat(rows, cols);
  return reader->ReadFloats(m->data(), m->size());
}

void AppendMetricsBlock(std::string* buf, const obs::MetricsSnapshot& snap) {
  binio::AppendU32(buf, static_cast<uint32_t>(snap.counters.size()));
  for (const auto& c : snap.counters) {
    binio::AppendString(buf, c.name);
    binio::AppendString(buf, c.help);
    binio::AppendString(buf, c.label.key);
    binio::AppendString(buf, c.label.value);
    binio::AppendU64(buf, c.value);
  }
  binio::AppendU32(buf, static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& h : snap.histograms) {
    binio::AppendString(buf, h.name);
    binio::AppendString(buf, h.help);
    binio::AppendString(buf, h.label.key);
    binio::AppendString(buf, h.label.value);
    binio::AppendU32(buf, static_cast<uint32_t>(h.bounds.size()));
    for (double b : h.bounds) binio::AppendF64(buf, b);
    for (uint64_t c : h.buckets) binio::AppendU64(buf, c);
    binio::AppendF64(buf, h.sum);
    binio::AppendU64(buf, h.count);
  }
}

Status ReadMetricsBlock(binio::Reader* reader, obs::MetricsSnapshot* snap) {
  uint32_t num_counters = 0;
  EMD_RETURN_IF_ERROR(
      ReadCount(reader, kMinCounterBytes, "metrics counter", &num_counters));
  snap->counters.reserve(num_counters);
  for (uint32_t i = 0; i < num_counters; ++i) {
    obs::MetricsSnapshot::CounterSample c;
    EMD_RETURN_IF_ERROR(reader->ReadString(&c.name));
    EMD_RETURN_IF_ERROR(reader->ReadString(&c.help));
    EMD_RETURN_IF_ERROR(reader->ReadString(&c.label.key));
    EMD_RETURN_IF_ERROR(reader->ReadString(&c.label.value));
    EMD_RETURN_IF_ERROR(reader->ReadU64(&c.value));
    snap->counters.push_back(std::move(c));
  }
  uint32_t num_histograms = 0;
  EMD_RETURN_IF_ERROR(ReadCount(reader, kMinHistogramBytes, "metrics histogram",
                                &num_histograms));
  snap->histograms.reserve(num_histograms);
  for (uint32_t i = 0; i < num_histograms; ++i) {
    obs::MetricsSnapshot::HistogramSample h;
    EMD_RETURN_IF_ERROR(reader->ReadString(&h.name));
    EMD_RETURN_IF_ERROR(reader->ReadString(&h.help));
    EMD_RETURN_IF_ERROR(reader->ReadString(&h.label.key));
    EMD_RETURN_IF_ERROR(reader->ReadString(&h.label.value));
    uint32_t num_bounds = 0;
    EMD_RETURN_IF_ERROR(reader->ReadU32(&num_bounds));
    // bounds (f64) + buckets (u64, bounds+1) + sum + count must fit in what
    // is left, or the length field is corrupt.
    if (uint64_t(num_bounds) * 16 + 24 > reader->remaining()) {
      return Status::Corruption("checkpoint metrics histogram \"", h.name,
                                "\" bound count ", num_bounds,
                                " exceeds remaining bytes");
    }
    h.bounds.resize(num_bounds);
    for (uint32_t b = 0; b < num_bounds; ++b) {
      EMD_RETURN_IF_ERROR(reader->ReadF64(&h.bounds[b]));
    }
    h.buckets.resize(num_bounds + 1);
    for (uint32_t b = 0; b <= num_bounds; ++b) {
      EMD_RETURN_IF_ERROR(reader->ReadU64(&h.buckets[b]));
    }
    EMD_RETURN_IF_ERROR(reader->ReadF64(&h.sum));
    EMD_RETURN_IF_ERROR(reader->ReadU64(&h.count));
    snap->histograms.push_back(std::move(h));
  }
  return Status::OK();
}

/// Each gid's TweetBase mentions as (tweet index, mention), in tweet order
/// and then position within the tweet: the order ExtractAndPool counts them
/// in, at any shard or thread count. Mentions with no candidate are left out.
using TweetMention = std::pair<uint64_t, RecordedMention>;
std::vector<std::vector<TweetMention>> MentionsByGid(const TweetBase& tweets,
                                                     size_t num_gids) {
  std::vector<std::vector<TweetMention>> by_gid(num_gids);
  for (size_t i = 0; i < tweets.size(); ++i) {
    for (const RecordedMention& m : tweets.mentions(i)) {
      if (m.candidate_id >= 0) by_gid[m.candidate_id].emplace_back(i, m);
    }
  }
  return by_gid;
}

obs::Counter* CheckpointSavesCounter() {
  static obs::Counter* const counter = obs::Metrics().GetCounter(
      "checkpoint_saves_total", "Checkpoints written successfully");
  return counter;
}

obs::Counter* CheckpointRestoresCounter() {
  static obs::Counter* const counter = obs::Metrics().GetCounter(
      "checkpoint_restores_total", "Checkpoints restored successfully");
  return counter;
}

}  // namespace

Status Globalizer::SaveCheckpoint(const std::string& path) const {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.globalizer.save_checkpoint"));
  EMD_TRACE_SPAN("checkpoint_save");

  std::string buf;
  binio::AppendU32(&buf, kCheckpointMagic);
  binio::AppendU32(&buf, kCheckpointVersion);
  binio::AppendU8(&buf, static_cast<uint8_t>(options_.mode));
  binio::AppendU64(&buf, tweets_.size());
  binio::AppendU32(&buf, static_cast<uint32_t>(num_quarantined_));
  binio::AppendU32(&buf, static_cast<uint32_t>(num_degraded_));
  binio::AppendU8(&buf, classifier_degraded_ ? 1 : 0);
  // v2: resilience counters, as lifetime totals (restored baseline + the live
  // breaker's counters).
  binio::AppendU32(&buf, static_cast<uint32_t>(num_retries_));
  binio::AppendU32(&buf, static_cast<uint32_t>(num_fallback_));
  binio::AppendU32(&buf, static_cast<uint32_t>(num_dead_lettered_));
  binio::AppendU32(&buf, static_cast<uint32_t>(restored_breaker_trips_ +
                                               breaker_.trips()));
  binio::AppendU32(&buf, static_cast<uint32_t>(restored_breaker_recoveries_ +
                                               breaker_.recoveries()));
  // v4: memory-governor lifetime totals.
  const MemoryGovernorStats& gov = governor_.stats();
  binio::AppendU64(&buf, gov.evicted_candidates);
  binio::AppendU64(&buf, gov.pruned_nodes);
  binio::AppendU64(&buf, gov.trimmed_tweets);
  binio::AppendU64(&buf, gov.reclassified);

  // v5 candidate keys: the gid live-map, then one section per shard holding
  // that shard's live candidates in gid order. Re-inserting across the
  // sections in gid order reproduces every gid; pruned gids are saved as
  // tombstones so the id space keeps its holes.
  const int num_gids = state_.num_candidates();
  binio::AppendU32(&buf, static_cast<uint32_t>(state_.shard_count()));
  binio::AppendU32(&buf, static_cast<uint32_t>(num_gids));
  for (int g = 0; g < num_gids; ++g) {
    binio::AppendU8(&buf, state_.IsTombstone(g) ? 0 : 1);
  }
  for (int s = 0; s < state_.shard_count(); ++s) {
    binio::AppendU32(&buf,
                     static_cast<uint32_t>(state_.ShardLiveCandidates(s)));
    for (int g = 0; g < num_gids; ++g) {
      if (state_.IsTombstone(g) || state_.ShardOf(g) != s) continue;
      binio::AppendU32(&buf, static_cast<uint32_t>(g));
      binio::AppendString(&buf, state_.CandidateKey(g));
      binio::AppendU32(&buf, static_cast<uint32_t>(state_.CandidateLength(g)));
    }
  }

  // TweetBase.
  binio::AppendU64(&buf, tweets_.size());
  for (size_t i = 0; i < tweets_.size(); ++i) {
    const TweetRecord& rec = tweets_.at(i);
    binio::AppendI64(&buf, rec.tweet_id);
    binio::AppendI32(&buf, rec.sentence_id);
    binio::AppendU8(&buf, rec.quarantined ? 1 : 0);
    binio::AppendU8(&buf, 1);   // trimmed
    binio::AppendU32(&buf, 0);  // tokens
    const std::span<const RecordedMention> mentions = tweets_.mentions(i);
    binio::AppendU32(&buf, static_cast<uint32_t>(mentions.size()));
    for (const RecordedMention& m : mentions) {
      binio::AppendU64(&buf, m.span.begin);
      binio::AppendU64(&buf, m.span.end);
      binio::AppendI32(&buf, m.candidate_id);
      binio::AppendU8(&buf, m.locally_detected ? 1 : 0);
    }
  }

  // CandidateBase: one slot per gid, in gid order across shards.
  const auto by_gid = MentionsByGid(tweets_, static_cast<size_t>(num_gids));
  binio::AppendU64(&buf, static_cast<uint64_t>(num_gids));
  for (int id = 0; id < num_gids; ++id) {
    const bool present = state_.Contains(id);
    binio::AppendU8(&buf, present ? 1 : 0);
    if (!present) {
      // v4+: eviction-time label (0 when this slot was simply never created).
      binio::AppendU8(&buf, state_.WasEvicted(id)
                                ? static_cast<uint8_t>(state_.Label(id)) + 1
                                : 0);
      continue;
    }
    const CandidateRecord& rec = state_.at(id);
    binio::AppendString(&buf, state_.CandidateKey(id));
    binio::AppendI32(&buf, state_.CandidateLength(id));
    binio::AppendU32(&buf, static_cast<uint32_t>(by_gid[id].size()));
    for (const auto& [tweet_index, m] : by_gid[id]) {
      binio::AppendU64(&buf, tweet_index);
      binio::AppendU64(&buf, m.span.begin);
      binio::AppendU64(&buf, m.span.end);
      binio::AppendU8(&buf, m.locally_detected ? 1 : 0);
    }
    // The running sum is stored verbatim so restored classification is
    // bit-identical to the uninterrupted run.
    AppendMat(&buf, rec.embedding_sum);
    binio::AppendI32(&buf, rec.embedding_count);
    // v4: decayed-pooling state (weight == count exactly when decay is off).
    binio::AppendF64(&buf, rec.embedding_weight);
    binio::AppendU64(&buf, rec.last_update_pos);
    binio::AppendU64(&buf, rec.last_mention_pos);
    binio::AppendU8(&buf, static_cast<uint8_t>(state_.Label(id)));
    binio::AppendF32(&buf, rec.entity_probability);
    binio::AppendU32(&buf, static_cast<uint32_t>(rec.mention_embeddings.size()));
    for (const Mat& m : rec.mention_embeddings) AppendMat(&buf, m);
  }

  // v3: observability metrics, so a kill-and-resume keeps lifetime counters.
  AppendMetricsBlock(&buf, obs::Metrics().Snapshot());

  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));

  RetryStats retry_stats;
  const Status written = RunWithRetry(
      options_.resilience.checkpoint_io, clock_, &retry_rng_,
      [&] { return WriteFileAtomic(path, buf); }, &retry_stats);
  num_retries_ += retry_stats.retries;
  if (retry_stats.retries > 0) {
    obs::Metrics()
        .GetCounter("emd_retries_total",
                    "Transient-failure retries across all pipeline stages")
        ->Increment(retry_stats.retries);
  }
  if (written.ok()) CheckpointSavesCounter()->Increment();
  return written;
}

Status Globalizer::RestoreCheckpoint(const std::string& path) {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.globalizer.restore_checkpoint"));
  EMD_TRACE_SPAN("checkpoint_restore");
  if (tweets_.size() != 0 || state_.num_candidates() != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a freshly constructed Globalizer");
  }

  std::string buf;
  EMD_ASSIGN_OR_RETURN(buf, ReadFileToString(path));
  if (buf.size() < sizeof(uint32_t)) {
    return Status::Corruption("checkpoint ", path, " too short (", buf.size(),
                              " bytes)");
  }
  const size_t body_size = buf.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + body_size, sizeof(stored_crc));
  const uint32_t actual_crc = Crc32(buf.data(), body_size);
  if (stored_crc != actual_crc) {
    return Status::Corruption("checkpoint ", path, " checksum mismatch (stored ",
                              stored_crc, ", computed ", actual_crc, ")");
  }

  binio::Reader reader(std::string_view(buf.data(), body_size),
                       "checkpoint " + path);
  uint32_t magic = 0, version = 0;
  EMD_RETURN_IF_ERROR(reader.ReadU32(&magic));
  EMD_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (magic != kCheckpointMagic) {
    return Status::Corruption("checkpoint ", path, " bad magic");
  }
  if (version < kMinCheckpointVersion || version > kCheckpointVersion) {
    return Status::Corruption(
        "checkpoint ", path, " has unsupported format version ", version,
        "; this build reads versions ", kMinCheckpointVersion, " through ",
        kCheckpointVersion,
        version > kCheckpointVersion
            ? " (the file was written by a newer build)"
            : " (the file predates the oldest supported format)");
  }
  uint8_t mode = 0, classifier_degraded = 0;
  uint64_t cursor = 0;
  uint32_t num_quarantined = 0, num_degraded = 0;
  uint32_t num_retries = 0, num_fallback = 0, num_dead_lettered = 0;
  uint32_t breaker_trips = 0, breaker_recoveries = 0;
  EMD_RETURN_IF_ERROR(reader.ReadU8(&mode));
  EMD_RETURN_IF_ERROR(reader.ReadU64(&cursor));
  EMD_RETURN_IF_ERROR(reader.ReadU32(&num_quarantined));
  EMD_RETURN_IF_ERROR(reader.ReadU32(&num_degraded));
  EMD_RETURN_IF_ERROR(reader.ReadU8(&classifier_degraded));
  if (version >= 2) {
    EMD_RETURN_IF_ERROR(reader.ReadU32(&num_retries));
    EMD_RETURN_IF_ERROR(reader.ReadU32(&num_fallback));
    EMD_RETURN_IF_ERROR(reader.ReadU32(&num_dead_lettered));
    EMD_RETURN_IF_ERROR(reader.ReadU32(&breaker_trips));
    EMD_RETURN_IF_ERROR(reader.ReadU32(&breaker_recoveries));
  }
  MemoryGovernorStats gov;
  if (version >= 4) {
    EMD_RETURN_IF_ERROR(reader.ReadU64(&gov.evicted_candidates));
    EMD_RETURN_IF_ERROR(reader.ReadU64(&gov.pruned_nodes));
    EMD_RETURN_IF_ERROR(reader.ReadU64(&gov.trimmed_tweets));
    EMD_RETURN_IF_ERROR(reader.ReadU64(&gov.reclassified));
  }
  if (mode != static_cast<uint8_t>(options_.mode)) {
    return Status::InvalidArgument("checkpoint ", path, " was saved in mode ",
                                   int(mode), " but this Globalizer runs mode ",
                                   int(static_cast<uint8_t>(options_.mode)));
  }

  // Parse into local stores; the members are only touched once the whole
  // checkpoint has validated, so a corrupt file leaves this Globalizer as
  // freshly constructed.
  ShardedGlobalState state = NewGlobalState();
  TweetBase tweets;

  // Candidate keys. Both layouts produce the same inputs to the generic
  // rebuild below: the gid live-map plus each live gid's key.
  uint32_t saved_shards = 1;
  uint32_t num_candidates = 0;
  std::vector<uint8_t> live_map;
  std::vector<std::string> keys;        // per gid; empty for tombstones
  std::vector<uint32_t> lens;           // per gid
  std::vector<int32_t> saved_shard_of;  // per gid; -1 for tombstones
  if (version >= 5) {
    EMD_RETURN_IF_ERROR(reader.ReadU32(&saved_shards));
    EMD_RETURN_IF_ERROR(reader.ReadU32(&num_candidates));
    if (saved_shards == 0) {
      return Status::Corruption("checkpoint ", path, " has shard count 0");
    }
    if (uint64_t(num_candidates) > reader.remaining()) {
      return Status::Corruption("checkpoint ", path, " candidate count ",
                                num_candidates, " exceeds remaining bytes");
    }
    live_map.resize(num_candidates, 0);
    for (uint32_t g = 0; g < num_candidates; ++g) {
      EMD_RETURN_IF_ERROR(reader.ReadU8(&live_map[g]));
    }
    keys.resize(num_candidates);
    lens.assign(num_candidates, 0);
    saved_shard_of.assign(num_candidates, -1);
    uint64_t total_live = 0;
    for (uint32_t s = 0; s < saved_shards; ++s) {
      uint32_t count = 0;
      EMD_RETURN_IF_ERROR(reader.ReadU32(&count));
      total_live += count;
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t gid = 0;
        EMD_RETURN_IF_ERROR(reader.ReadU32(&gid));
        if (gid >= num_candidates || !live_map[gid]) {
          return Status::Corruption("checkpoint ", path, " shard ", s,
                                    " lists gid ", gid,
                                    " that is out of range or tombstoned");
        }
        if (saved_shard_of[gid] != -1) {
          return Status::Corruption("checkpoint ", path, " gid ", gid,
                                    " appears in more than one shard section");
        }
        saved_shard_of[gid] = static_cast<int32_t>(s);
        EMD_RETURN_IF_ERROR(reader.ReadString(&keys[gid]));
        EMD_RETURN_IF_ERROR(reader.ReadU32(&lens[gid]));
      }
    }
    for (uint32_t g = 0; g < num_candidates; ++g) {
      if (live_map[g] && saved_shard_of[g] == -1) {
        return Status::Corruption("checkpoint ", path, " live gid ", g,
                                  " missing from every shard section");
      }
    }
    (void)total_live;
  } else {
    EMD_RETURN_IF_ERROR(reader.ReadU32(&num_candidates));
    live_map.assign(num_candidates, 1);
    keys.resize(num_candidates);
    lens.assign(num_candidates, 0);
    saved_shard_of.assign(num_candidates, -1);
    for (uint32_t c = 0; c < num_candidates; ++c) {
      if (version >= 4) EMD_RETURN_IF_ERROR(reader.ReadU8(&live_map[c]));
      if (!live_map[c]) continue;
      EMD_RETURN_IF_ERROR(reader.ReadString(&keys[c]));
      EMD_RETURN_IF_ERROR(reader.ReadU32(&lens[c]));
    }
  }

  // Generic rebuild: re-inserting live keys in gid order must reproduce
  // every gid under the *current* shard layout (routing is a pure function
  // of the key, so any saved shard count restores into any configured one);
  // dead gids rebuild as shard-0 tombstones so eviction holes survive.
  for (uint32_t c = 0; c < num_candidates; ++c) {
    if (!live_map[c]) {
      const int id = state.AppendTombstone();
      if (id != static_cast<int>(c)) {
        return Status::Corruption("checkpoint ", path, " tombstone restored ",
                                  "with id ", id, ", want ", c);
      }
      continue;
    }
    const std::string& key = keys[c];
    const std::vector<std::string> words = Split(key);
    if (words.empty() || words.size() != lens[c]) {
      return Status::Corruption("checkpoint ", path, " candidate ", c,
                                " key \"", key, "\" does not split into ",
                                lens[c], " tokens");
    }
    if (saved_shard_of[c] != -1 &&
        static_cast<int>(saved_shards) == state.shard_count() &&
        saved_shard_of[c] != state.router().ShardOfFolded(key)) {
      return Status::Corruption(
          "checkpoint ", path, " candidate \"", key, "\" recorded in shard ",
          saved_shard_of[c], " but the router homes it in shard ",
          state.router().ShardOfFolded(key));
    }
    const int id = state.Insert(words);
    if (id != static_cast<int>(c)) {
      return Status::Corruption("checkpoint ", path, " candidate \"", key,
                                "\" restored with id ", id, ", want ", c);
    }
  }

  // TweetBase.
  uint64_t num_tweets = 0;
  EMD_RETURN_IF_ERROR(reader.ReadU64(&num_tweets));
  if (num_tweets != cursor) {
    return Status::Corruption("checkpoint ", path, " cursor ", cursor,
                              " does not match ", num_tweets, " tweet records");
  }
  std::string token_text;  // read to validate, then discarded
  std::vector<RecordedMention> mentions;
  for (uint64_t i = 0; i < num_tweets; ++i) {
    TweetRecord rec;
    int64_t tweet_id = 0;
    int32_t sentence_id = 0;
    uint8_t quarantined = 0, trimmed = 0;
    EMD_RETURN_IF_ERROR(reader.ReadI64(&tweet_id));
    EMD_RETURN_IF_ERROR(reader.ReadI32(&sentence_id));
    EMD_RETURN_IF_ERROR(reader.ReadU8(&quarantined));
    if (version >= 4) EMD_RETURN_IF_ERROR(reader.ReadU8(&trimmed));
    rec.tweet_id = tweet_id;
    rec.sentence_id = sentence_id;
    rec.quarantined = quarantined != 0;
    uint32_t num_tokens = 0;
    EMD_RETURN_IF_ERROR(
        ReadCount(&reader, kMinTokenBytes, "token", &num_tokens));
    if (trimmed != 0 && num_tokens > 0) {
      return Status::Corruption("checkpoint ", path, " trimmed tweet record ",
                                i, " holds ", num_tokens, " tokens");
    }
    // Older files carry token text: it is validated, then dropped.
    for (uint32_t t = 0; t < num_tokens; ++t) {
      uint64_t begin = 0, end = 0;
      uint8_t kind = 0;
      EMD_RETURN_IF_ERROR(reader.ReadString(&token_text));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&begin));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&end));
      EMD_RETURN_IF_ERROR(reader.ReadU8(&kind));
      if (begin > UINT32_MAX || end > UINT32_MAX) {
        return Status::Corruption("checkpoint ", path, " token offsets [",
                                  begin, ", ", end, ") of tweet record ", i,
                                  " do not fit in 32 bits");
      }
      if (kind > static_cast<uint8_t>(TokenKind::kPunct)) {
        return Status::Corruption("checkpoint ", path, " bad token kind ",
                                  int(kind));
      }
    }
    uint32_t num_mentions = 0;
    EMD_RETURN_IF_ERROR(ReadCount(&reader, kMinTweetMentionBytes,
                                  "tweet mention", &num_mentions));
    mentions.clear();
    mentions.reserve(num_mentions);
    for (uint32_t m = 0; m < num_mentions; ++m) {
      RecordedMention mention;
      uint64_t begin = 0, end = 0;
      uint8_t local = 0;
      EMD_RETURN_IF_ERROR(reader.ReadU64(&begin));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&end));
      EMD_RETURN_IF_ERROR(reader.ReadI32(&mention.candidate_id));
      EMD_RETURN_IF_ERROR(reader.ReadU8(&local));
      // The TweetBase keeps mention spans in 32 bits.
      if (begin > UINT32_MAX || end > UINT32_MAX) {
        return Status::Corruption("checkpoint ", path, " mention span [", begin,
                                  ", ", end, ") of tweet record ", i,
                                  " does not fit in 32 bits");
      }
      mention.span = MentionSpan(static_cast<uint32_t>(begin),
                                 static_cast<uint32_t>(end));
      mention.locally_detected = local != 0;
      if (mention.candidate_id < -1 ||
          mention.candidate_id >= static_cast<int>(num_candidates)) {
        return Status::Corruption("checkpoint ", path, " mention candidate id ",
                                  mention.candidate_id, " out of range");
      }
      mentions.push_back(mention);
    }
    tweets.Add(rec, mentions);
  }

  // CandidateBase. Slots are gid-ordered; v5 always writes one per gid,
  // earlier versions wrote only up to the highest created record.
  const auto by_gid = MentionsByGid(tweets, num_candidates);
  uint64_t num_slots = 0;
  EMD_RETURN_IF_ERROR(reader.ReadU64(&num_slots));
  if (num_slots > num_candidates ||
      (version >= 5 && num_slots != num_candidates)) {
    return Status::Corruption("checkpoint ", path, " has ", num_slots,
                              " candidate slots for ", num_candidates,
                              " candidate ids");
  }
  for (uint64_t c = 0; c < num_slots; ++c) {
    uint8_t present = 0;
    EMD_RETURN_IF_ERROR(reader.ReadU8(&present));
    if (!present) {
      if (version >= 4) {
        uint8_t evicted_enc = 0;
        EMD_RETURN_IF_ERROR(reader.ReadU8(&evicted_enc));
        if (evicted_enc >
            static_cast<uint8_t>(CandidateLabel::kAmbiguous) + 1) {
          return Status::Corruption("checkpoint ", path,
                                    " bad evicted label code ",
                                    int(evicted_enc));
        }
        if (evicted_enc != 0) {
          state.RestoreLabel(static_cast<int>(c),
                             static_cast<CandidateLabel>(evicted_enc - 1),
                             /*evicted=*/true);
        }
      }
      continue;
    }
    // The slot repeats the key and length the candidate-key section
    // registered for this gid; a slot that disagrees (or names a tombstone)
    // would describe a candidate the trie does not hold.
    std::string key;
    int32_t num_tokens = 0;
    EMD_RETURN_IF_ERROR(reader.ReadString(&key));
    EMD_RETURN_IF_ERROR(reader.ReadI32(&num_tokens));
    const int gid = static_cast<int>(c);
    if (state.IsTombstone(gid) || key != state.CandidateKey(gid) ||
        num_tokens != state.CandidateLength(gid)) {
      return Status::Corruption(
          "checkpoint ", path, " candidate slot ", c, " (\"", key, "\", ",
          num_tokens, " tokens) disagrees with the candidate-key section");
    }
    CandidateRecord& rec = state.GetOrCreate(gid);
    uint32_t num_mentions = 0;
    EMD_RETURN_IF_ERROR(ReadCount(&reader, kMinCandidateMentionBytes,
                                  "candidate mention", &num_mentions));
    // The list must be this gid's TweetBase mentions (which bounds every
    // tweet index), or a re-save would not reproduce it; its length is kept.
    const std::vector<TweetMention>& want = by_gid[c];
    bool same = num_mentions == want.size();
    for (uint32_t m = 0; same && m < num_mentions; ++m) {
      uint64_t tweet = 0, begin = 0, end = 0;
      uint8_t local = 0;
      EMD_RETURN_IF_ERROR(reader.ReadU64(&tweet));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&begin));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&end));
      EMD_RETURN_IF_ERROR(reader.ReadU8(&local));
      const auto& [want_tweet, want_mention] = want[m];
      same = want_tweet == tweet && want_mention.span.begin == begin &&
             want_mention.span.end == end &&
             want_mention.locally_detected == (local != 0);
      rec.last_mention_pos = tweet;  // tweet order: the last is the largest
    }
    if (!same) {
      return Status::Corruption("checkpoint ", path, " candidate ", c,
                                " mentions disagree with the TweetBase");
    }
    rec.num_mentions = num_mentions;
    EMD_RETURN_IF_ERROR(ReadMat(&reader, &rec.embedding_sum));
    EMD_RETURN_IF_ERROR(reader.ReadI32(&rec.embedding_count));
    if (version >= 4) {
      EMD_RETURN_IF_ERROR(reader.ReadF64(&rec.embedding_weight));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&rec.last_update_pos));
      EMD_RETURN_IF_ERROR(reader.ReadU64(&rec.last_mention_pos));
    } else {
      // Pre-governance checkpoints: undecayed pooling (weight == count) with
      // recency derived from the mention list while it was parsed.
      rec.embedding_weight = static_cast<double>(rec.embedding_count);
      rec.last_update_pos = rec.last_mention_pos;
    }
    uint8_t label = 0;
    EMD_RETURN_IF_ERROR(reader.ReadU8(&label));
    if (label > static_cast<uint8_t>(CandidateLabel::kAmbiguous)) {
      return Status::Corruption("checkpoint ", path, " bad candidate label ",
                                int(label));
    }
    state.RestoreLabel(gid, static_cast<CandidateLabel>(label),
                       /*evicted=*/false);
    EMD_RETURN_IF_ERROR(reader.ReadF32(&rec.entity_probability));
    uint32_t num_embeddings = 0;
    EMD_RETURN_IF_ERROR(ReadCount(&reader, kMinMatBytes, "mention embedding",
                                  &num_embeddings));
    // No reserve: growing one push_back at a time gives the restored vector
    // the capacity AddMention's growth gives it, so the byte accounting of a
    // resumed run matches an uninterrupted one.
    for (uint32_t m = 0; m < num_embeddings; ++m) {
      Mat emb;
      EMD_RETURN_IF_ERROR(ReadMat(&reader, &emb));
      rec.mention_embeddings.push_back(std::move(emb));
    }
  }

  // v3: metrics block. Parsed fully before the commit point below so a
  // corrupt block rejects the whole checkpoint.
  obs::MetricsSnapshot metrics;
  if (version >= 3) {
    EMD_RETURN_IF_ERROR(ReadMetricsBlock(&reader, &metrics));
  }

  if (reader.remaining() != 0) {
    return Status::Corruption("checkpoint ", path, " has ", reader.remaining(),
                              " trailing bytes");
  }

  // Commit. governor_ points at state_/tweets_, whose addresses
  // move-assignment keeps stable.
  // The label column was filled from the slots above; the tallies and dirty
  // set are derived state, not checkpointed. Every live candidate is
  // re-scored by the next classify pass, which reproduces its saved verdict
  // exactly.
  state.RebuildLabelColumn();
  // Records were filled field by field above; their byte sums are rebuilt
  // once here (trie, symbol and dispatch sums were kept by Insert).
  state.RebuildByteTotals();
  state_ = std::move(state);
  tweets_ = std::move(tweets);
  num_quarantined_ = static_cast<int>(num_quarantined);
  num_degraded_ = static_cast<int>(num_degraded);
  classifier_degraded_ = classifier_degraded != 0;
  num_retries_ = static_cast<int>(num_retries);
  num_fallback_ = static_cast<int>(num_fallback);
  num_dead_lettered_ = static_cast<int>(num_dead_lettered);
  restored_breaker_trips_ = static_cast<int>(breaker_trips);
  restored_breaker_recoveries_ = static_cast<int>(breaker_recoveries);
  governor_.RestoreStats(gov);
  obs::Metrics().Restore(metrics);
  CheckpointRestoresCounter()->Increment();
  return Status::OK();
}

}  // namespace emd
