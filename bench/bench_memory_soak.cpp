// Memory-soak benchmark for the governed pipeline: replays one topical
// stream N times (fresh tweet ids per epoch, identical content) so the
// ungoverned pipeline's state grows without bound, then runs the same replay
// under a byte budget and asserts the governance contract:
//
//   * the budget holds — governed accounted bytes never finish an epoch
//     above it, while the unbounded baseline ends at >= 1.5x the budget;
//   * RSS plateaus — after the warmup half of the governed replay,
//     end-of-epoch resident-set size stays within 10%. (Accounted bytes are
//     reported per epoch but not gated at 10%: the append-only output ledger
//     and the dense id-space structures grow with the stream by design, in
//     lumpy vector-doubling steps; RSS is what an operator's container limit
//     sees.) The governed run executes first so its RSS curve is not masked
//     by allocator reuse of the baseline's freed pages — the budget is sized
//     from a short unbounded probe, extrapolated linearly;
//   * reclamation actually ran — eviction and token-trim counters nonzero;
//   * degradation is graceful — governed F1 no more than 1.0 point below
//     unbounded;
//   * the accounting is exact — at every sample the O(1) running byte
//     totals equal a full RecountBytes() walk of the same stores.
//
// Emits machine-readable JSON (emd-bench-v1, bench_common.h) to
// BENCH_memory.json; scripts/check.sh --memory runs the --smoke variant.
//
// Flags:
//   --smoke         tiny sizes for CI smoke jobs
//   --replays N     replay epochs (default 10, smoke 6)
//   --budget-mb N   byte budget override (default: 45% of the probe-estimated
//                   unbounded footprint, forcing real reclamation)
//   --out PATH      JSON output path (default BENCH_memory.json)

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "bench_common.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "emd/local_emd_system.h"
#include "eval/metrics.h"
#include "nn/matrix.h"
#include "stream/entity_catalog.h"
#include "stream/tweet_generator.h"
#include "util/rng.h"

namespace emd {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resident set size, or 0 where /proc is unavailable (reported, not
/// asserted: the allocator rarely returns freed pages to the OS, so RSS is a
/// coarse upper bound on the governed footprint).
size_t CurrentRssBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0, pages_resident = 0;
  const int matched = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<size_t>(pages_resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// Deterministic deep local system: hash-seeded token embeddings and
/// capitalized-run mention detection. Cheap enough that the soak measures
/// state growth, not encoder inference.
class HashDeepSystem : public LocalEmdSystem {
 public:
  explicit HashDeepSystem(int dim) : dim_(dim) {}

  std::string name() const override { return "HashDeep"; }
  bool is_deep() const override { return true; }
  bool concurrent_safe() const override { return true; }
  int embedding_dim() const override { return dim_; }

  LocalEmdResult Process(const std::vector<Token>& tokens) override {
    LocalEmdResult result;
    result.token_embeddings = Mat(static_cast<int>(tokens.size()), dim_);
    for (size_t t = 0; t < tokens.size(); ++t) {
      uint64_t h = 1469598103934665603ULL;
      for (char c : tokens[t].text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
      Rng rng(h);
      for (int j = 0; j < dim_; ++j) {
        result.token_embeddings(static_cast<int>(t), j) =
            rng.NextFloat(-1.f, 1.f);
      }
    }
    size_t t = 0;
    while (t < tokens.size()) {
      if (!tokens[t].text.empty() && tokens[t].text[0] >= 'A' &&
          tokens[t].text[0] <= 'Z') {
        size_t end = t + 1;
        while (end < tokens.size() && !tokens[end].text.empty() &&
               tokens[end].text[0] >= 'A' && tokens[end].text[0] <= 'Z') {
          ++end;
        }
        result.mentions.push_back({t, end});
        t = end;
      } else {
        ++t;
      }
    }
    return result;
  }

 private:
  int dim_;
};

/// `replays` epochs of the same `base_tweets`-tweet topical stream. Each
/// epoch re-issues the tweets under fresh ids (a replayed firehose window),
/// so per-tweet state grows while the candidate vocabulary stays fixed —
/// exactly the workload an unbounded deployment faces.
Dataset MakeReplayedStream(int base_tweets, int replays) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 300;
  copt.seed = 99;
  const EntityCatalog catalog = EntityCatalog::Build(copt);
  TweetGeneratorOptions gopt;
  gopt.seed = 11;
  TweetGenerator gen(&catalog, Topic::kHealth, gopt);

  std::vector<AnnotatedTweet> base;
  base.reserve(base_tweets);
  for (int i = 0; i < base_tweets; ++i) base.push_back(gen.Next());

  Dataset d;
  d.name = "memory-soak";
  d.tweets.reserve(static_cast<size_t>(base_tweets) * replays);
  for (int epoch = 0; epoch < replays; ++epoch) {
    for (const AnnotatedTweet& t : base) {
      AnnotatedTweet copy = t;
      copy.tweet_id += static_cast<long>(epoch) * 1000000L;
      d.tweets.push_back(std::move(copy));
    }
  }
  return d;
}

struct SoakRun {
  double f1 = 0;
  double seconds = 0;
  std::vector<size_t> epoch_bytes;        // accounted bytes after each epoch
  std::vector<size_t> epoch_min_bytes;    // min across the epoch's barriers
  std::vector<size_t> epoch_rss_bytes;    // resident set after each epoch
  double state_bytes_per_candidate = 0;   // global state / live candidates
  double tweet_bytes_per_tweet = 0;       // TweetBase / stored tweets
  MemoryGovernorStats stats;
  size_t accounting_mismatches = 0;       // samples where totals != recount
};

SoakRun RunSoak(const Dataset& d, int replays, size_t batch_size,
                const MemoryGovernorOptions& memory) {
  const size_t epoch_size = d.tweets.size() / static_cast<size_t>(replays);
  HashDeepSystem system(16);
  PhraseEmbedder pe(16, 8);
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.batch_size = batch_size;
  opt.memory = memory;
  Globalizer g(&system, &pe, nullptr, opt);

  SoakRun run;
  const auto start = Clock::now();
  for (int epoch = 0; epoch < replays; ++epoch) {
    const size_t begin = static_cast<size_t>(epoch) * epoch_size;
    const size_t end =
        epoch + 1 == replays ? d.tweets.size() : begin + epoch_size;
    size_t epoch_min = SIZE_MAX;
    size_t bytes = 0;
    for (size_t i = begin; i < end; i += batch_size) {
      const size_t n = std::min(batch_size, end - i);
      const Status st =
          g.ProcessBatch(std::span<const AnnotatedTweet>(d.tweets.data() + i, n));
      if (!st.ok()) {
        std::fprintf(stderr, "ProcessBatch failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      // The stores' own accounting (every shard, the symbol table, the
      // first-token dispatch and the gid index, plus the TweetBase), sampled
      // at every batch barrier right after the governor's own pass so both
      // runs' curves are directly comparable. The governor itself decides
      // on GovernedBytes(), which charges the per-shard structures by
      // gid-level counts; the budget gate below holds the bytes the stores
      // actually hold. The per-epoch minimum is the reclaim floor: the level
      // eviction sweeps return to.
      bytes = g.global_state().ApproxBytes() + g.tweet_base().ApproxBytes();
      const size_t recounted =
          g.global_state().RecountBytes() + g.tweet_base().RecountBytes();
      if (bytes != recounted) {
        if (run.accounting_mismatches == 0) {
          std::fprintf(stderr,
                       "accounting drift at tweet %zu: running totals %zu, "
                       "recount %zu\n",
                       i + n, bytes, recounted);
        }
        ++run.accounting_mismatches;
      }
      epoch_min = std::min(epoch_min, bytes);
    }
    run.epoch_bytes.push_back(bytes);
    run.epoch_min_bytes.push_back(epoch_min);
    run.epoch_rss_bytes.push_back(CurrentRssBytes());
  }
  const ShardedGlobalState& state = g.global_state();
  run.state_bytes_per_candidate =
      static_cast<double>(state.ApproxBytes()) /
      std::max(1, state.num_live_candidates());
  run.tweet_bytes_per_tweet =
      static_cast<double>(g.tweet_base().ApproxBytes()) /
      static_cast<double>(std::max<size_t>(1, g.tweet_base().size()));
  GlobalizerOutput out = g.Finalize().value();
  run.seconds = SecondsSince(start);
  run.f1 = EvaluateMentions(d, out.mentions).f1;
  run.stats = g.memory_governor().stats();
  return run;
}

}  // namespace
}  // namespace emd

int main(int argc, char** argv) {
  bool smoke = false;
  long replays = 0;
  long budget_mb = 0;
  std::string out_path = "BENCH_memory.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--replays") == 0 && i + 1 < argc) {
      replays = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      budget_mb = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--replays N] [--budget-mb N] "
                   "[--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  const int base_tweets = smoke ? 160 : 800;
  if (replays <= 1) replays = smoke ? 6 : 10;
  const size_t batch_size = 64;

  std::printf("memory soak: %d tweets/epoch x %ld replays, batch=%zu\n",
              base_tweets, replays, batch_size);
  const emd::Dataset d =
      emd::MakeReplayedStream(base_tweets, static_cast<int>(replays));

  // Size the budget from a short unbounded probe (2 epochs, extrapolated
  // linearly) so the governed run can execute FIRST: its RSS curve would be
  // meaningless after a full unbounded run, whose freed pages the allocator
  // reuses without ever returning them to the OS.
  size_t budget_bytes = static_cast<size_t>(budget_mb) * 1024 * 1024;
  if (budget_bytes == 0) {
    emd::Dataset probe = d;
    probe.tweets.resize(static_cast<size_t>(base_tweets) * 2);
    const emd::SoakRun probed = emd::RunSoak(probe, 2, batch_size, {});
    const size_t u1 = probed.epoch_bytes[0], u2 = probed.epoch_bytes[1];
    const size_t estimated_final =
        u1 + (u2 - u1) * static_cast<size_t>(replays - 1);
    budget_bytes = estimated_final * 45 / 100;
    std::printf("  probe: %.1f -> %.1f KiB/epoch, estimated unbounded final "
                "%.1f KiB\n",
                u1 / 1024.0, u2 / 1024.0, estimated_final / 1024.0);
  }

  // Governed replay under a budget tight enough to force real reclamation.
  emd::MemoryGovernorOptions memory;
  memory.budget_bytes = budget_bytes;
  // min_retain_tweets = 0: in a soak every candidate is re-mentioned every
  // epoch, so recency immunity would pin the zipf head resident forever and
  // its mention lists would grow without bound. Steady state wants eviction
  // to reach the reclaim target; hot candidates are re-admitted (fresh ids)
  // at their next mention.
  memory.min_retain_tweets = 0;
  memory.decay_half_life_tweets = static_cast<uint64_t>(base_tweets);
  const emd::SoakRun governed =
      emd::RunSoak(d, static_cast<int>(replays), batch_size, memory);
  const size_t governed_final = governed.epoch_bytes.back();
  std::printf("  governed:  %.1f KiB -> %.1f KiB under %.1f KiB budget, "
              "F1=%.4f (%.2fs)\n",
              governed.epoch_bytes.front() / 1024.0, governed_final / 1024.0,
              memory.budget_bytes / 1024.0, governed.f1, governed.seconds);
  std::printf("  reclaimed: evicted=%" PRIu64 " pruned_nodes=%" PRIu64
              " trimmed=%" PRIu64 "\n",
              governed.stats.evicted_candidates, governed.stats.pruned_nodes,
              governed.stats.trimmed_tweets);

  // Baseline: the full unbounded replay, state growing with the stream.
  const emd::SoakRun unbounded =
      emd::RunSoak(d, static_cast<int>(replays), batch_size, {});
  const size_t unbounded_final = unbounded.epoch_bytes.back();
  std::printf("  unbounded: %.1f KiB -> %.1f KiB, F1=%.4f (%.2fs), "
              "%.0f state bytes/candidate, %.0f TweetBase bytes/tweet\n",
              unbounded.epoch_bytes.front() / 1024.0,
              unbounded_final / 1024.0, unbounded.f1, unbounded.seconds,
              unbounded.state_bytes_per_candidate,
              unbounded.tweet_bytes_per_tweet);
  for (size_t e = 0; e < governed.epoch_bytes.size(); ++e) {
    std::printf("    epoch %zu: unbounded %8.1f KiB | governed %8.1f KiB "
                "(floor %.1f KiB, rss %.1f MiB)\n",
                e + 1, unbounded.epoch_bytes[e] / 1024.0,
                governed.epoch_bytes[e] / 1024.0,
                governed.epoch_min_bytes[e] / 1024.0,
                governed.epoch_rss_bytes[e] / 1024.0 / 1024.0);
  }

  // Plateau: after the warmup half of the governed replay, end-of-epoch RSS
  // must stay flat within 10% — the operator-visible signature of bounded
  // steady state (this is what a container memory limit sees). Accounted
  // bytes are gated against the budget above instead of at 10%: the
  // append-only output ledger and the dense id-space vectors grow with the
  // stream by design, in lumpy capacity-doubling steps.
  const size_t warmup = governed.epoch_rss_bytes.size() / 2;
  size_t plateau_min = SIZE_MAX, plateau_max = 0;
  for (size_t e = warmup; e < governed.epoch_rss_bytes.size(); ++e) {
    plateau_min = std::min(plateau_min, governed.epoch_rss_bytes[e]);
    plateau_max = std::max(plateau_max, governed.epoch_rss_bytes[e]);
  }
  const bool have_rss = plateau_min > 0 && plateau_min != SIZE_MAX;
  const double plateau_spread =
      have_rss
          ? static_cast<double>(plateau_max) / static_cast<double>(plateau_min)
          : 1.0;
  const double f1_delta_points = (governed.f1 - unbounded.f1) * 100.0;
  if (have_rss) {
    std::printf("  governed rss (epochs %zu..%zu): %.1f..%.1f MiB "
                "(spread %.1f%%)\n",
                warmup + 1, governed.epoch_rss_bytes.size(),
                plateau_min / 1024.0 / 1024.0, plateau_max / 1024.0 / 1024.0,
                (plateau_spread - 1.0) * 100.0);
  } else {
    std::printf("  governed rss unavailable on this platform; plateau check "
                "skipped\n");
  }
  std::printf("  F1 delta: %+.2f points\n", f1_delta_points);

  emd::bench::BenchReporter reporter;
  reporter.Add("memory_soak/unbounded_final", replays,
               unbounded.seconds * 1e9 / d.tweets.size(),
               static_cast<double>(unbounded_final), "bytes");
  reporter.Add("memory_soak/governed_final", replays,
               governed.seconds * 1e9 / d.tweets.size(),
               static_cast<double>(governed_final), "bytes");
  reporter.Add("memory_soak/unbounded_state_bytes_per_candidate", 1, 0,
               unbounded.state_bytes_per_candidate, "bytes");
  reporter.Add("memory_soak/unbounded_tweet_bytes_per_tweet", 1, 0,
               unbounded.tweet_bytes_per_tweet, "bytes");
  reporter.Add("memory_soak/budget", 1, 0,
               static_cast<double>(memory.budget_bytes), "bytes");
  reporter.Add("memory_soak/evicted", 1, 0,
               static_cast<double>(governed.stats.evicted_candidates),
               "candidates");
  reporter.Add("memory_soak/trimmed", 1, 0,
               static_cast<double>(governed.stats.trimmed_tweets), "tweets");
  reporter.Add("memory_soak/rss_plateau_spread", 1, 0,
               (plateau_spread - 1.0) * 100.0, "percent");
  reporter.Add("memory_soak/f1_delta", 1, 0, f1_delta_points, "points");
  if (have_rss) {
    reporter.Add("memory_soak/governed_rss", 1, 0,
                 static_cast<double>(governed.epoch_rss_bytes.back()),
                 "bytes");
  }
  if (!reporter.WriteJson(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;
  if (governed_final > memory.budget_bytes) {
    std::fprintf(stderr, "FAIL: governed footprint %zu exceeds budget %zu\n",
                 governed_final, memory.budget_bytes);
    ok = false;
  }
  if (unbounded_final < memory.budget_bytes * 3 / 2) {
    std::fprintf(stderr,
                 "FAIL: unbounded footprint %zu never outgrew the budget %zu "
                 "(workload too small to exercise governance)\n",
                 unbounded_final, memory.budget_bytes);
    ok = false;
  }
  if (governed.stats.evicted_candidates == 0 ||
      governed.stats.trimmed_tweets == 0) {
    std::fprintf(stderr, "FAIL: governance never reclaimed (evicted=%" PRIu64
                         " trimmed=%" PRIu64 ")\n",
                 governed.stats.evicted_candidates,
                 governed.stats.trimmed_tweets);
    ok = false;
  }
  if (have_rss && plateau_spread > 1.10) {
    std::fprintf(stderr, "FAIL: governed RSS did not plateau (spread %.1f%% "
                         "over the last %zu epochs)\n",
                 (plateau_spread - 1.0) * 100.0,
                 governed.epoch_rss_bytes.size() - warmup);
    ok = false;
  }
  for (const emd::SoakRun* run : {&governed, &unbounded}) {
    if (run->accounting_mismatches > 0) {
      std::fprintf(stderr,
                   "FAIL: running byte totals differed from RecountBytes() at "
                   "%zu %s samples\n",
                   run->accounting_mismatches,
                   run == &governed ? "governed" : "unbounded");
      ok = false;
    }
  }
  if (f1_delta_points < -1.0) {
    std::fprintf(stderr, "FAIL: governed F1 degraded %.2f points below "
                         "unbounded (budget allows 1.0)\n",
                 -f1_delta_points);
    ok = false;
  }
  return ok ? 0 : 1;
}
