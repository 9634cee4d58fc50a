#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string_view>
#include <thread>

#include "core/framework_kit.h"
#include "core/globalizer.h"
#include "eval/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "stream/entity_catalog.h"
#include "stream/tweet_generator.h"
#include "text/tweet_tokenizer.h"
#include "trace.h"
#include "util/rng.h"

namespace emdbench {
namespace {

using emd::AnnotatedTweet;
using emd::Globalizer;
using emd::GlobalizerOptions;
using emd::GlobalizerOutput;
using emd::SystemKind;
using emd::TokenSpan;

// ---------------------------------------------------------------------------
// Workload definitions. Sizes were set from probes of the unchanged library
// on a 4-vCPU x86-64 host (see README.md); they size the work, they are not
// targets.

constexpr size_t kClosedLoopBatch = 256;
constexpr int kSetupRepeatsBefore = 8;
constexpr int kSetupRepeatsAfter = 7;
constexpr int kRescanSampleTweets = 2048;

struct WorkloadSpec {
  const char* name;
  SystemKind kind;
  emd::TweetGeneratorOptions stream;
  bool served;
  // Closed loops: stream length is seconds * tweets_per_second, so a run is
  // a fixed amount of work (a faster program finishes it sooner).
  double tweets_per_second;
  int finalize_every_cycles;
  double f1_floor;  // sanity floor on output quality
  // served_governed only.
  double arrival_rate;  // tweets per second, open loop
  int threads;
  size_t budget_bytes;
  uint64_t reclassify_interval;
};

emd::TweetGeneratorOptions D4LikeStream() {
  emd::TweetGeneratorOptions g;
  g.pool_size = 160;
  g.zipf_exponent = 1.1;
  return g;
}

// Mostly novel entities over a wide, flat pool, with a high share of freshly
// coined words: the candidate base keeps growing for the whole stream.
emd::TweetGeneratorOptions NovelHeavyStream() {
  emd::TweetGeneratorOptions g;
  g.pool_size = 700;
  g.zipf_exponent = 0.5;
  g.novel_pool_bias = 0.95;
  g.rare_word_prob = 0.45;
  g.slang_share = 0.2;
  return g;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"deep_local", SystemKind::kBertweet, D4LikeStream(), false,
       /*tweets_per_second=*/5600, /*finalize_every_cycles=*/16,
       /*f1_floor=*/0.6, 0, 1, 0, 0},
      {"long_stream", SystemKind::kNpChunker, NovelHeavyStream(), false,
       /*tweets_per_second=*/7650, /*finalize_every_cycles=*/16,
       /*f1_floor=*/0.3, 0, 1, 0, 0},
      {"served_governed", SystemKind::kTwitterNlp, NovelHeavyStream(), true, 0,
       /*finalize_every_cycles=*/32, /*f1_floor=*/0.6,
       /*arrival_rate=*/1400, /*threads=*/2,
       /*budget_bytes=*/size_t{16} << 20, /*reclassify_interval=*/8},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs.

emd::FrameworkKitOptions KitOptions(const std::string& cache_dir) {
  emd::FrameworkKitOptions o;
  o.cache_dir = cache_dir;
  o.use_cache = true;
  o.scale = 1.0;
  o.training_tweets = 4000;
  o.seed = 42;
  return o;
}

// The same entity world FrameworkKit builds for its models (same options),
// constructed by the benchmark so the load generator is not part of set-up.
emd::EntityCatalog StreamCatalog() {
  emd::EntityCatalogOptions o;
  o.entities_per_topic = 800;
  o.seed = 42 * 7 + 1;
  return emd::EntityCatalog::Build(o);
}

/// Five interleaved topic generators (one per topic), like BuildD4:
/// the library only ever sees the tweets.
class TopicMixStream {
 public:
  TopicMixStream(const emd::EntityCatalog* catalog,
                 const emd::TweetGeneratorOptions& options, uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5EED) {
    const int topics = static_cast<int>(emd::Topic::kNumTopics);
    gens_.reserve(topics);
    for (int t = 0; t < topics; ++t) {
      emd::TweetGeneratorOptions o = options;
      o.seed = rng_.NextU64();
      gens_.emplace_back(catalog, static_cast<emd::Topic>(t), o);
    }
  }

  AnnotatedTweet Next() {
    AnnotatedTweet tweet = gens_[rng_.NextU64(gens_.size())].Next();
    tweet.tweet_id = next_id_++;
    return tweet;
  }

 private:
  emd::Rng rng_;
  std::vector<emd::TweetGenerator> gens_;
  long next_id_ = 1;
};

/// Order-sensitive digest of the final mention spans.
uint64_t MentionDigest(const std::vector<std::vector<TokenSpan>>& mentions) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& per_tweet : mentions) {
    mix(per_tweet.size() + 0x9E37);
    for (const TokenSpan& s : per_tweet) {
      mix(s.begin);
      mix(s.end + 0x100000);
    }
  }
  return h;
}

/// Span-exact mention counts of `predicted` against `gold` (same tweets).
struct MentionCounts {
  long tp = 0, fp = 0, fn = 0;
  void Add(const std::vector<TokenSpan>& gold,
           const std::vector<TokenSpan>& predicted) {
    std::vector<TokenSpan> g = gold, p = predicted;
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    for (const TokenSpan& s : p) {
      if (std::binary_search(g.begin(), g.end(), s)) {
        ++tp;
      } else {
        ++fp;
      }
    }
    for (const TokenSpan& s : g) {
      if (!std::binary_search(p.begin(), p.end(), s)) ++fn;
    }
  }
  double F1() const { return emd::ScoresFromCounts(tp, fp, fn).f1; }
};

std::vector<TokenSpan> GoldSpans(const AnnotatedTweet& t) {
  std::vector<TokenSpan> spans;
  spans.reserve(t.gold.size());
  for (const emd::GoldSpan& g : t.gold) spans.push_back(g.span);
  return spans;
}

// ---------------------------------------------------------------------------
// Registry reads (the counters and histograms the library already exports).

struct RegistryDelta {
  emd::obs::MetricsSnapshot before;
  emd::obs::MetricsSnapshot after;

  static double HistSum(const emd::obs::MetricsSnapshot& s,
                        std::string_view name, std::string_view stage) {
    double sum = 0;
    for (const auto& h : s.histograms) {
      if (h.name == name && (stage.empty() || h.label.value == stage)) sum += h.sum;
    }
    return sum;
  }
  static double CounterSum(const emd::obs::MetricsSnapshot& s,
                           std::string_view name) {
    double sum = 0;
    for (const auto& c : s.counters) {
      if (c.name == name) sum += static_cast<double>(c.value);
    }
    return sum;
  }
  double Hist(std::string_view name, std::string_view stage = {}) const {
    return HistSum(after, name, stage) - HistSum(before, name, stage);
  }
  double Counter(std::string_view name) const {
    return CounterSum(after, name) - CounterSum(before, name);
  }
};

// ---------------------------------------------------------------------------
// Set-up: model load + Globalizer (+ Server) construction.

struct Models {
  std::unique_ptr<emd::FrameworkKit> kit;
  emd::LocalEmdSystem* system = nullptr;
  const emd::PhraseEmbedder* embedder = nullptr;
  const emd::EntityClassifier* classifier = nullptr;
};

Models LoadModels(SystemKind kind, const std::string& cache_dir) {
  Models m;
  m.kit = std::make_unique<emd::FrameworkKit>(KitOptions(cache_dir));
  m.system = m.kit->system(kind);
  m.embedder = m.kit->phrase_embedder(kind);
  m.classifier = m.kit->classifier(kind);
  return m;
}

GlobalizerOptions PipelineOptions(const WorkloadSpec& w) {
  GlobalizerOptions o;
  o.mode = GlobalizerOptions::Mode::kFull;
  o.num_threads = w.threads;
  o.shard_count = 1;
  o.memory.budget_bytes = w.budget_bytes;
  o.memory.reclassify_interval_batches = w.reclassify_interval;
  if (w.budget_bytes > 0) {
    // Reclaim in large, rare sweeps (from 85% of the budget down towards
    // 30%). With a low soft watermark the TweetBase, which the governor can
    // trim but not evict, soon stays above it, and every batch then rescans
    // all candidate ids ever assigned: cycle time ramps with the stream and
    // cycle_p95_ms measures only the last second of a run.
    o.memory.soft_watermark = 0.85;
    o.memory.evict_target = 0.3;
  }
  return o;
}

/// What the served process_batch callback records, by offer index. Written
/// only on the server thread; read after it is joined.
struct ServeLog {
  std::vector<double> cycle_start;  // per offer: when its cycle started
  std::vector<double> done;         // per offer: ProcessBatch return
  std::vector<int64_t> order;       // tweet ids in processing order
  std::vector<double> cycle_s;
  std::vector<double> finalize_s;
  double lanes_sum = 0;
  uint64_t dead_lettered = 0;
  uint64_t failed_batches = 0;
  std::vector<std::string> errors;
};

/// One pipeline instance: models, the forwarding local system, the
/// Globalizer and, for the served workload, the started server.
struct Rig {
  Rig(const WorkloadSpec& spec, const std::string& cache_dir, Tracer* tr,
      size_t offers)
      : models(LoadModels(spec.kind, cache_dir)),
        traced(models.system, tr),
        globalizer(&traced, models.embedder, models.classifier,
                   PipelineOptions(spec)),
        tracer(tr),
        finalize_every(spec.finalize_every_cycles) {
    if (!spec.served) return;
    log.cycle_start.assign(offers, 0);
    log.done.assign(offers, 0);
    emd::net::ServingPipeline pipeline;
    pipeline.process_batch = [this](std::span<const AnnotatedTweet> batch) {
      return ServeBatch(batch);
    };
    pipeline.dead_letter = [this](const AnnotatedTweet&, const emd::Status&) {
      ++log.dead_lettered;
    };
    emd::net::ServerOptions options;  // defaults: batch 32, 20 ms interval
    options.admission.memory_pressure = [this] {
      return static_cast<int>(globalizer.memory_pressure());
    };
    server = std::make_unique<emd::net::Server>(std::move(pipeline), options);
    const emd::Status st = server->Start();
    if (!st.ok()) log.errors.push_back("server start: " + st.ToString());
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  emd::Status ServeBatch(std::span<const AnnotatedTweet> batch) {
    ScopedSpan serve_span(tracer, SpanKind::kServeBatch,
                          static_cast<int64_t>(log.cycle_s.size()), 0);
    const double start = Now();
    emd::Status st;
    {
      ScopedSpan cycle_span(tracer, SpanKind::kCycle,
                            static_cast<int64_t>(log.cycle_s.size()),
                            serve_span.id());
      if (tracer != nullptr) tracer->set_current_parent(cycle_span.id());
      st = globalizer.ProcessBatch(batch);
    }
    const double end = Now();
    log.cycle_s.push_back(end - start);
    log.lanes_sum += globalizer.last_local_lanes();
    if (!st.ok()) {
      ++log.failed_batches;
      return st;
    }
    for (const AnnotatedTweet& t : batch) {
      const size_t idx = static_cast<size_t>(t.tweet_id - 1);
      if (idx >= log.done.size()) {
        log.errors.push_back("unknown tweet id " + std::to_string(t.tweet_id));
        continue;
      }
      log.cycle_start[idx] = start;
      log.done[idx] = end;
      log.order.push_back(t.tweet_id);
    }
    if (log.cycle_s.size() % static_cast<size_t>(finalize_every) == 0) {
      ScopedSpan fin_span(tracer, SpanKind::kFinalize,
                          static_cast<int64_t>(log.cycle_s.size()),
                          serve_span.id());
      const double f0 = Now();
      emd::Result<GlobalizerOutput> out = globalizer.Finalize();
      log.finalize_s.push_back(Now() - f0);
      if (!out.ok()) log.errors.push_back("finalize: " + out.status().ToString());
    }
    return emd::Status::OK();
  }

  Models models;
  TracedSystem traced;
  Globalizer globalizer;
  Tracer* tracer;
  int finalize_every;
  ServeLog log;
  std::unique_ptr<emd::net::Server> server;
};

/// Times `repeats` constructions of a rig into `times`; returns the last one.
/// Set-up is sampled before and after the streaming phase because the host's
/// speed regime can change within a run; setup_s is the median of all.
std::unique_ptr<Rig> TimedSetup(const WorkloadSpec& spec,
                                const std::string& cache_dir, size_t offers,
                                int repeats, std::vector<double>* times) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < repeats; ++i) {
    rig.reset();
    const double t0 = Now();
    rig = std::make_unique<Rig>(spec, cache_dir, nullptr, offers);
    times->push_back(Now() - t0);
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Measurement of one streaming phase.

struct Phase {
  std::vector<double> cycle_s;
  std::vector<double> finalize_s;
  std::vector<double> ingest_s;  // per tweet
  double wall = 0;               // streaming wall, generator excluded
  double cpu = 0;
  uint64_t offered = 0;
  uint64_t processed = 0;
  uint64_t failed = 0;
  double lanes_mean = 0;
  double f1 = 0;
  uint64_t digest = 0;
  GlobalizerOutput final_output;
  // served_governed only.
  std::vector<double> ack_s, queue_wait_s, lag_s;
  uint64_t accepted = 0, dead_lettered = 0, lost = 0;
  uint64_t rejected[5] = {0, 0, 0, 0, 0};  // by net::RejectReason value
  RegistryDelta registry;
};

double TweetsPerSecond(const Phase& p) {
  return p.wall > 0 ? static_cast<double>(p.processed) / p.wall : 0;
}

void RunClosedLoop(const WorkloadSpec& spec, const emd::EntityCatalog& catalog,
                   uint64_t seed, uint64_t total_tweets, Rig* rig,
                   Phase* out, std::vector<std::string>* violations) {
  TopicMixStream stream(&catalog, spec.stream, seed);
  std::vector<std::vector<TokenSpan>> gold;
  gold.reserve(total_tweets);
  std::vector<AnnotatedTweet> batch;
  batch.reserve(kClosedLoopBatch);
  Tracer* tracer = rig->tracer;

  out->registry.before = emd::obs::Metrics().Snapshot();
  double generator_s = 0;
  double lanes_sum = 0;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  uint64_t produced = 0;
  bool have_output = false;
  for (int64_t cycle = 0; produced < total_tweets; ++cycle) {
    const double g0 = Now();
    batch.clear();
    while (batch.size() < kClosedLoopBatch && produced < total_tweets) {
      batch.push_back(stream.Next());
      gold.push_back(GoldSpans(batch.back()));
      ++produced;
    }
    generator_s += Now() - g0;

    double c0 = 0, c1 = 0;
    emd::Status st;
    {
      ScopedSpan span(tracer, SpanKind::kCycle, cycle, 0);
      if (tracer != nullptr) tracer->set_current_parent(span.id());
      c0 = Now();
      st = rig->globalizer.ProcessBatch(batch);
      c1 = Now();
    }
    out->cycle_s.push_back(c1 - c0);
    out->ingest_s.insert(out->ingest_s.end(), batch.size(), c1 - c0);
    lanes_sum += rig->globalizer.last_local_lanes();
    if (!st.ok()) {
      violations->push_back("ProcessBatch failed: " + st.ToString());
      return;
    }

    const bool last = produced >= total_tweets;
    if ((cycle + 1) % spec.finalize_every_cycles == 0 || last) {
      ScopedSpan span(tracer, SpanKind::kFinalize, cycle, 0);
      const double f0 = Now();
      emd::Result<GlobalizerOutput> result = rig->globalizer.Finalize();
      out->finalize_s.push_back(Now() - f0);
      if (!result.ok()) {
        violations->push_back("Finalize failed: " + result.status().ToString());
        return;
      }
      if (last) {
        out->final_output = std::move(*result);
        have_output = true;
      }
    }
  }
  out->wall = Now() - t0 - generator_s;
  out->cpu = ProcessCpuSeconds() - cpu0 - generator_s;
  out->registry.after = emd::obs::Metrics().Snapshot();
  out->offered = total_tweets;
  out->processed = rig->globalizer.processed_tweets();
  out->lanes_mean = lanes_sum / std::max<size_t>(1, out->cycle_s.size());
  if (!have_output) return;

  const auto& mentions = out->final_output.mentions;
  if (mentions.size() != gold.size()) {
    violations->push_back("output covers " + std::to_string(mentions.size()) +
                          " tweets, stream had " + std::to_string(gold.size()));
    return;
  }
  MentionCounts counts;
  for (size_t i = 0; i < gold.size(); ++i) counts.Add(gold[i], mentions[i]);
  out->f1 = counts.F1();
  out->digest = MentionDigest(mentions);
  out->failed = static_cast<uint64_t>(out->final_output.num_quarantined) +
                static_cast<uint64_t>(out->final_output.num_dead_lettered);
}

/// Pre-generated open-loop schedule: Poisson arrivals at spec.arrival_rate.
struct Offers {
  std::vector<double> due;  // seconds after the schedule start
  std::vector<emd::net::TweetFrame> frames;
  std::vector<std::vector<TokenSpan>> gold;
};

Offers MakeOffers(const WorkloadSpec& spec, const emd::EntityCatalog& catalog,
                  uint64_t seed, double seconds,
                  std::vector<std::string>* violations) {
  Offers offers;
  TopicMixStream stream(&catalog, spec.stream, seed);
  emd::Rng arrivals(seed * 7919 + 17);
  const emd::TweetTokenizer tokenizer;
  uint64_t mismatched = 0;
  double t = 0;
  while (true) {
    t += -std::log(std::max(arrivals.NextDouble(), 1e-12)) / spec.arrival_rate;
    if (t >= seconds) break;
    AnnotatedTweet tweet = stream.Next();
    // The server re-tokenizes the text; gold spans index the generator's
    // tokens, so both tokenizations must agree for F1 to be meaningful.
    const std::vector<emd::Token> server_tokens = tokenizer.Tokenize(tweet.text);
    bool same = server_tokens.size() == tweet.tokens.size();
    for (size_t i = 0; same && i < server_tokens.size(); ++i) {
      same = server_tokens[i].text == tweet.tokens[i].text;
    }
    if (!same) ++mismatched;
    emd::net::TweetFrame frame;
    frame.seq = static_cast<uint64_t>(tweet.tweet_id);
    frame.tweet_id = tweet.tweet_id;
    frame.topic_id = tweet.topic_id;
    frame.text = tweet.text;
    offers.due.push_back(t);
    offers.frames.push_back(std::move(frame));
    offers.gold.push_back(GoldSpans(tweet));
  }
  if (mismatched > 0) {
    violations->push_back(std::to_string(mismatched) +
                          " generated tweets re-tokenize differently");
  }
  return offers;
}

/// Sleeps (never spins) until `due`: a spinning sender would take a core
/// from the pipeline threads it is measuring.
void SleepUntil(double due) {
  const double remaining = due - Now();
  if (remaining > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
  }
}

void RunServed(const Offers& offers, Rig* rig, Phase* out,
               std::vector<std::string>* violations) {
  const size_t n = offers.frames.size();
  Tracer* tracer = rig->tracer;
  ServeLog& log = rig->log;
  emd::net::Server& server = *rig->server;
  if (!log.errors.empty()) {
    violations->insert(violations->end(), log.errors.begin(), log.errors.end());
    return;
  }

  std::vector<double> sent(n, 0), acked(n, 0);
  std::vector<uint8_t> accepted(n, 0);
  std::string client_error, reader_error;

  out->registry.before = emd::obs::Metrics().Snapshot();
  emd::Status serve_status;
  std::thread server_thread([&server, &serve_status] {
    serve_status = server.Serve();
  });

  // Pipelined client over one connection: this thread sends each TWEET at
  // its scheduled time without waiting; a reader thread, blocked in recv
  // otherwise, matches ACK / RETRY_AFTER frames to offers by seq. Sends
  // therefore never wait for the server, which keeps the load open-loop.
  emd::net::ClientOptions copt;
  copt.port = server.port();
  copt.client_id = "load-0";
  emd::Result<emd::net::BlockingClient> client =
      emd::net::BlockingClient::Connect(copt);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  if (!client.ok()) {
    client_error = "connect: " + client.status().ToString();
  } else {
    std::thread reader([&] {
      for (size_t answered = 0; answered < n;) {
        emd::Result<emd::net::Frame> frame = client->ReadFrame();
        const double now = Now();
        if (!frame.ok()) {
          reader_error = "read: " + frame.status().ToString();
          return;
        }
        uint64_t seq = 0;
        bool ok = false;
        if (frame->type == emd::net::FrameType::kAck) {
          emd::Result<uint64_t> ack = emd::net::ParseAck(*frame);
          if (ack.ok()) {
            seq = *ack;
            ok = true;
          }
        } else if (frame->type == emd::net::FrameType::kRetryAfter) {
          emd::Result<emd::net::RetryAfterFrame> retry =
              emd::net::ParseRetryAfter(*frame);
          if (retry.ok()) {
            seq = retry->seq;
            const size_t reason = static_cast<size_t>(retry->reason);
            if (reason < 5) ++out->rejected[reason];
          }
        } else if (frame->type == emd::net::FrameType::kBye) {
          reader_error = "server said BYE before answering every offer";
          return;
        }
        if (seq < 1 || seq > n) {
          reader_error = "response for unknown seq " + std::to_string(seq);
          return;
        }
        acked[seq - 1] = now;
        accepted[seq - 1] = ok ? 1 : 0;
        ++answered;
      }
    });
    std::string wire;
    for (size_t i = 0; i < n; ++i) {
      SleepUntil(t0 + offers.due[i]);
      wire.clear();
      emd::net::AppendTweet(&wire, offers.frames[i]);
      sent[i] = Now();
      const emd::Status st = client->SendRaw(wire);
      if (!st.ok()) {
        client_error = "send: " + st.ToString();
        break;
      }
    }
    reader.join();
    client->Close();
    // Client spans are recorded after the reader is joined: one per offer,
    // from its send to its ACK / RETRY_AFTER.
    if (tracer != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (acked[i] <= 0) continue;
        tracer->Record({tracer->NewId(), 0, SpanKind::kSubmit,
                        offers.frames[i].tweet_id, sent[i], acked[i]});
      }
    }
  }
  if (!reader_error.empty()) violations->push_back(reader_error);
  server.RequestDrain();
  server_thread.join();
  out->registry.after = emd::obs::Metrics().Snapshot();
  out->cpu = ProcessCpuSeconds() - cpu0;
  if (!client_error.empty()) violations->push_back(client_error);
  if (!serve_status.ok()) {
    violations->push_back("server drain: " + serve_status.ToString());
  }
  violations->insert(violations->end(), log.errors.begin(), log.errors.end());

  // Final refresh after the drain: the emitted mentions of the whole stream.
  emd::Result<GlobalizerOutput> result = rig->globalizer.Finalize();
  if (!result.ok()) {
    violations->push_back("Finalize failed: " + result.status().ToString());
    return;
  }
  out->final_output = std::move(*result);

  const emd::net::ServerStats& stats = server.stats();
  out->offered = n;
  out->processed = log.order.size();
  out->dead_lettered = log.dead_lettered;
  for (size_t i = 0; i < n; ++i) out->accepted += accepted[i];
  out->cycle_s = log.cycle_s;
  out->finalize_s = log.finalize_s;
  out->lanes_mean = log.lanes_sum / std::max<size_t>(1, log.cycle_s.size());

  // Zero-loss invariant after the drain, on the server's own books and on
  // the client's.
  if (stats.tweets_accepted != stats.tweets_processed + stats.tweets_dead_lettered) {
    violations->push_back("server invariant broken: accepted " +
                          std::to_string(stats.tweets_accepted) + " != processed " +
                          std::to_string(stats.tweets_processed) + " + dead-lettered " +
                          std::to_string(stats.tweets_dead_lettered));
  }
  if (stats.tweets_accepted != out->accepted) {
    violations->push_back("client saw " + std::to_string(out->accepted) +
                          " ACKs, server accepted " +
                          std::to_string(stats.tweets_accepted));
  }
  if (out->processed != stats.tweets_processed) {
    violations->push_back("callback saw " + std::to_string(out->processed) +
                          " tweets, server processed " +
                          std::to_string(stats.tweets_processed));
  }
  const uint64_t settled = out->processed + out->dead_lettered;
  out->lost = out->accepted > settled ? out->accepted - settled : 0;

  double last_done = t0;
  for (size_t i = 0; i < n; ++i) {
    out->lag_s.push_back(sent[i] - (t0 + offers.due[i]));
    if (!accepted[i]) continue;
    out->ack_s.push_back(acked[i] - sent[i]);
    if (log.done[i] > 0) {
      out->ingest_s.push_back(log.done[i] - (t0 + offers.due[i]));
      out->queue_wait_s.push_back(log.cycle_start[i] - acked[i]);
      last_done = std::max(last_done, log.done[i]);
    }
  }
  out->wall = last_done - t0;

  uint64_t rejected = 0;
  for (uint64_t r : out->rejected) rejected += r;
  out->failed = rejected + out->dead_lettered + out->lost +
                static_cast<uint64_t>(out->final_output.num_quarantined);

  const auto& mentions = out->final_output.mentions;
  if (mentions.size() != log.order.size()) {
    violations->push_back("output covers " + std::to_string(mentions.size()) +
                          " tweets, pipeline processed " +
                          std::to_string(log.order.size()));
    return;
  }
  MentionCounts counts;
  for (size_t k = 0; k < log.order.size(); ++k) {
    counts.Add(offers.gold[static_cast<size_t>(log.order[k] - 1)], mentions[k]);
  }
  out->f1 = counts.F1();
  out->digest = MentionDigest(mentions);
}

// ---------------------------------------------------------------------------
// End-of-run probes of the global state (traced run only).

struct StateProbe {
  double walk_ms = 0;
  double bytes = 0;
  double candidates = 0;
  double rescan_us_per_tweet = 0;
  double steps_per_token = 0;
  double hit_ratio = 0;
};

StateProbe ProbeState(const WorkloadSpec& spec, const emd::EntityCatalog& catalog,
                      uint64_t seed, Rig* rig) {
  StateProbe probe;
  const emd::ShardedGlobalState& state = rig->globalizer.global_state();
  Tracer* tracer = rig->tracer;

  std::vector<double> walks;
  size_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, SpanKind::kStateWalk, i, 0);
    const double t0 = Now();
    bytes = state.ApproxBytes();
    walks.push_back(Now() - t0);
  }
  probe.walk_ms = Median(walks) * 1e3;
  probe.bytes = static_cast<double>(bytes);
  probe.candidates = state.num_live_candidates();

  // A fixed sample: the first tweets of the run's own stream.
  TopicMixStream stream(&catalog, spec.stream, seed);
  std::vector<AnnotatedTweet> sample;
  for (int i = 0; i < kRescanSampleTweets; ++i) sample.push_back(stream.Next());
  emd::ShardedGlobalState::ScanScratch scratch;
  std::vector<emd::ExtractedMention> found;
  RegistryDelta counters;
  counters.before = emd::obs::Metrics().Snapshot();
  std::vector<double> passes;
  double tokens = 0, mentions = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ScopedSpan span(tracer, SpanKind::kExtractProbe, pass, 0);
    const double t0 = Now();
    for (const AnnotatedTweet& t : sample) {
      state.ExtractInto(t.tokens, &scratch, &found);
      tokens += static_cast<double>(t.tokens.size());
      mentions += static_cast<double>(found.size());
    }
    passes.push_back(Now() - t0);
  }
  counters.after = emd::obs::Metrics().Snapshot();
  probe.rescan_us_per_tweet = Median(passes) / kRescanSampleTweets * 1e6;
  const double steps = counters.Counter("emd_extract_steps_total");
  const double probes = counters.Counter("emd_extract_root_probes_total");
  probe.steps_per_token = tokens > 0 ? steps / tokens : 0;
  probe.hit_ratio = probes > 0 ? mentions / probes : 0;
  return probe;
}

// ---------------------------------------------------------------------------
// Reports.

uint64_t ClosedLoopTweets(const WorkloadSpec& spec, const RunConfig& config) {
  return static_cast<uint64_t>(spec.tweets_per_second * config.seconds);
}

/// Runs one streaming phase on `rig`.
void RunPhase(const WorkloadSpec& spec, const RunConfig& config,
              const emd::EntityCatalog& catalog, const Offers& offers, Rig* rig,
              Phase* phase, std::vector<std::string>* violations) {
  if (spec.served) {
    RunServed(offers, rig, phase, violations);
  } else {
    RunClosedLoop(spec, catalog, config.seed, ClosedLoopTweets(spec, config),
                  rig, phase, violations);
  }
}

void CheckQuality(const WorkloadSpec& spec, const RunConfig& config,
                  const Phase& p, std::vector<std::string>* violations) {
  if (p.f1 < spec.f1_floor) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "f1 %.4f below the sanity floor %.2f", p.f1,
                  spec.f1_floor);
    violations->push_back(buf);
  }
  if (p.final_output.num_candidates <= 0) {
    violations->push_back("no candidates were classified");
  }
  // p95 is reported only when at least ten cycles lie beyond it.
  if (!config.smoke && p.cycle_s.size() < 200) {
    violations->push_back("only " + std::to_string(p.cycle_s.size()) +
                          " cycles; cycle_p95_ms needs at least 200");
  }
  if (!config.smoke && spec.served && p.ingest_s.size() < 200) {
    violations->push_back("too few served tweets for ingest_p95_ms");
  }
}

std::vector<Metric> EndToEndMetrics(const Phase& p, double setup_s) {
  return {
      {"tweets_per_s", TweetsPerSecond(p), "1/s"},
      {"cycle_p50_ms", Quantile(p.cycle_s, 0.50) * 1e3, "ms"},
      {"cycle_p95_ms", Quantile(p.cycle_s, 0.95) * 1e3, "ms"},
      {"finalize_p50_ms", Quantile(p.finalize_s, 0.50) * 1e3, "ms"},
      {"ingest_p50_ms", Quantile(p.ingest_s, 0.50) * 1e3, "ms"},
      {"ingest_p95_ms", Quantile(p.ingest_s, 0.95) * 1e3, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", setup_s, "s"},
      {"f1", p.f1, "ratio"},
  };
}

struct TraceNumbers {
  double busy = 0;  // wall the shares are taken of
  double local = 0, global = 0, unattributed = 0;
};

TraceNumbers Attribute(const WorkloadSpec& spec, const Phase& p,
                       const TraceSummary& s) {
  TraceNumbers t;
  const auto& cycle = s.of(SpanKind::kCycle);
  const auto& fin = s.of(SpanKind::kFinalize);
  // Local time is what the local spans cover inside each cycle; the rest of
  // the cycle plus every Finalize is the global step.
  t.local = cycle.total - cycle.self;
  t.global = cycle.self + fin.total;
  if (spec.served) {
    t.busy = s.of(SpanKind::kServeBatch).total;
    t.unattributed = s.of(SpanKind::kServeBatch).self;
  } else {
    t.busy = p.wall;
    t.unattributed = p.wall - cycle.total - fin.total;
  }
  return t;
}

/// Tolerance on the time a traced run cannot attribute to a layer (the
/// benchmark's own glue between spans), as a share of busy time.
constexpr double kUnattributedTolerance = 0.03;

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec, const Phase& untraced,
                                    const Phase& traced, const TraceSummary& s,
                                    const StateProbe& probe, const Rig& rig,
                                    double calib_ms, double train_s,
                                    std::vector<std::string>* violations) {
  const TraceNumbers t = Attribute(spec, traced, s);
  const double cycles = static_cast<double>(std::max<size_t>(1, traced.cycle_s.size()));
  const double busy = t.busy > 0 ? t.busy : 1;
  const double unattributed_share = t.unattributed / busy;
  if (unattributed_share > kUnattributedTolerance || unattributed_share < -1e-9) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "layer shares do not add up: %.4f of busy time unattributed "
                  "(tolerance %.2f)",
                  unattributed_share, kUnattributedTolerance);
    violations->push_back(buf);
  }
  const auto& reg = traced.registry;
  const double finalizes =
      static_cast<double>(std::max<size_t>(1, traced.finalize_s.size()));
  const GlobalizerOutput& out = traced.final_output;
  const double offered = static_cast<double>(std::max<uint64_t>(1, traced.offered));
  const double untraced_tps = TweetsPerSecond(untraced);
  uint64_t rejected = 0;
  for (uint64_t r : traced.rejected) rejected += r;

  return {
      {"emd.local_share", t.local / busy, "ratio"},
      {"emd.local_ms_per_cycle", t.local / cycles * 1e3, "ms"},
      {"emd.tokens_per_s",
       t.local > 0 ? static_cast<double>(rig.traced.tokens()) / t.local : 0,
       "tokens/s"},
      {"core.global_share", t.global / busy, "ratio"},
      {"core.global_ms_per_cycle", s.of(SpanKind::kCycle).self / cycles * 1e3, "ms"},
      {"core.state_walk_ms", probe.walk_ms, "ms"},
      {"core.state_mb", probe.bytes / 1e6, "MB"},
      {"core.candidates", probe.candidates, "count"},
      {"core.bytes_per_candidate",
       probe.candidates > 0 ? probe.bytes / probe.candidates : 0, "B"},
      {"core.rescan_us_per_tweet", probe.rescan_us_per_tweet, "us"},
      {"core.rescan_steps_per_token", probe.steps_per_token, "steps/token"},
      {"core.rescan_hit_ratio", probe.hit_ratio, "ratio"},
      {"core.classify_ms",
       reg.Hist("emd_stage_latency_seconds", "classifier") / finalizes * 1e3, "ms"},
      {"core.governor_ms_per_cycle",
       reg.Hist("emd_stage_latency_seconds", "memory_governor") / cycles * 1e3, "ms"},
      {"core.evicted", static_cast<double>(out.num_evicted), "count"},
      {"core.pruned_nodes", static_cast<double>(out.num_pruned_nodes), "count"},
      {"core.reclassified", static_cast<double>(out.num_reclassified), "count"},
      {"net.ack_p50_ms", Quantile(traced.ack_s, 0.5) * 1e3, "ms"},
      {"net.retry_after", static_cast<double>(rejected), "count"},
      {"net.rejected_backpressure", static_cast<double>(traced.rejected[1]), "count"},
      {"net.rejected_throttled", static_cast<double>(traced.rejected[2]), "count"},
      {"net.rejected_draining", static_cast<double>(traced.rejected[3]), "count"},
      {"net.rejected_memory", static_cast<double>(traced.rejected[4]), "count"},
      {"net.accepted", static_cast<double>(spec.served ? traced.accepted : traced.processed),
       "count"},
      {"net.dead_lettered", static_cast<double>(traced.dead_lettered), "count"},
      {"stream.queue_wait_p50_ms", Quantile(traced.queue_wait_s, 0.5) * 1e3, "ms"},
      {"stream.tweets_per_cycle", static_cast<double>(traced.processed) / cycles,
       "tweets"},
      {"load.offered", static_cast<double>(traced.offered), "count"},
      {"load.lag_p95_ms", Quantile(traced.lag_s, 0.95) * 1e3, "ms"},
      {"failed_share", static_cast<double>(traced.failed) / offered, "ratio"},
      {"util.cpu_per_wall", traced.wall > 0 ? traced.cpu / traced.wall : 0, "ratio"},
      {"util.pool_wait_ms_per_cycle",
       reg.Hist("thread_pool_queue_wait_seconds") / cycles * 1e3, "ms"},
      {"util.local_lanes", traced.lanes_mean, "lanes"},
      {"host.calib_ms", calib_ms, "ms"},
      {"trace.overhead",
       untraced_tps > 0 ? TweetsPerSecond(traced) / untraced_tps : 0, "ratio"},
      {"trace.unattributed_share", unattributed_share, "ratio"},
      {"setup.train_s", train_s, "s"},
  };
}

void LogPhase(const char* label, const Phase& p) {
  std::fprintf(stderr,
               "[emdbench] %s: %llu tweets in %.3f s (%.1f tweets/s), %zu cycles, "
               "%zu finalizes, f1 %.4f, digest %016llx, candidates %d, "
               "evicted %llu, failed %llu\n",
               label, static_cast<unsigned long long>(p.processed), p.wall,
               TweetsPerSecond(p), p.cycle_s.size(), p.finalize_s.size(), p.f1,
               static_cast<unsigned long long>(p.digest),
               p.final_output.num_candidates,
               static_cast<unsigned long long>(p.final_output.num_evicted),
               static_cast<unsigned long long>(p.failed));
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

RunReport RunWorkload(const RunConfig& config) {
  RunReport report;
  const WorkloadSpec& spec = *FindWorkload(config.workload);
  const double calib_before = CalibrationMs();

  const emd::EntityCatalog catalog = StreamCatalog();
  Offers offers;
  if (spec.served) {
    offers = MakeOffers(spec, catalog, config.seed, config.seconds,
                        &report.violations);
  }

  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig = TimedSetup(spec, config.cache_dir, offers.frames.size(),
                                        kSetupRepeatsBefore, &setup_times);
  Phase untraced;
  RunPhase(spec, config, catalog, offers, rig.get(), &untraced, &report.violations);
  rig.reset();
  rig = TimedSetup(spec, config.cache_dir, offers.frames.size(),
                   kSetupRepeatsAfter, &setup_times);
  rig.reset();
  const double setup_s = Median(setup_times);
  LogPhase("untraced", untraced);
  CheckQuality(spec, config, untraced, &report.violations);

  Phase traced;
  TraceSummary summary;
  StateProbe probe;
  std::unique_ptr<Rig> traced_rig;
  Tracer tracer;
  if (config.trace) {
    traced_rig = std::make_unique<Rig>(spec, config.cache_dir, &tracer,
                                       offers.frames.size());
    RunPhase(spec, config, catalog, offers, traced_rig.get(), &traced,
             &report.violations);
    LogPhase("traced", traced);
    probe = ProbeState(spec, catalog, config.seed, traced_rig.get());
    // Closed loops are deterministic: tracing must not change the output.
    // (Served batching depends on arrival timing, so no digest is compared.)
    if (!spec.served && traced.digest != untraced.digest) {
      report.violations.push_back("traced and untraced mention digests differ");
    }
  }
  const double calib_after = CalibrationMs();
  const double calib_ms = Median({calib_before, calib_after});
  report.diagnostics.push_back({"host.calib_before_ms", calib_before, "ms"});
  report.diagnostics.push_back({"host.calib_after_ms", calib_after, "ms"});

  const Phase& reported = config.trace ? traced : untraced;
  report.attempted = reported.offered;
  report.failed = reported.failed;
  if (config.trace) {
    const std::vector<Span> spans = tracer.Collect();
    summary = Summarize(spans);
    if (!config.trace_path.empty() &&
        !WriteTraceJson(config.trace_path, spans, summary)) {
      report.violations.push_back("cannot write trace to " + config.trace_path);
    }
    report.metrics = PerLayerMetrics(spec, untraced, traced, summary, probe,
                                     *traced_rig, calib_ms, config.train_seconds,
                                     &report.violations);
  } else {
    report.metrics = EndToEndMetrics(untraced, setup_s);
    report.diagnostics.push_back({"host.calib_ms", calib_ms, "ms"});
    for (double q : {0.75, 0.90, 0.99}) {
      report.diagnostics.push_back({"ingest_q" + std::to_string(int(q * 100)),
                                    Quantile(untraced.ingest_s, q) * 1e3, "ms"});
    }
  }
  report.correct = report.violations.empty();
  return report;
}

bool TrainModels(const std::string& cache_dir, double* seconds) {
  const double t0 = Now();
  emd::FrameworkKit kit(KitOptions(cache_dir));
  for (SystemKind kind : {SystemKind::kNpChunker, SystemKind::kTwitterNlp,
                          SystemKind::kBertweet}) {
    const double k0 = Now();
    if (kit.system(kind) == nullptr) return false;
    (void)kit.phrase_embedder(kind);
    if (kit.classifier(kind) == nullptr) return false;
    std::fprintf(stderr, "[emdbench] %s ready in %.1f s\n",
                 emd::SystemKindName(kind), Now() - k0);
  }
  *seconds = Now() - t0;
  return true;
}

double MeasureServedCapacity(const std::string& cache_dir, uint64_t seed,
                             int seconds) {
  const WorkloadSpec& spec = *FindWorkload("served_governed");
  const emd::EntityCatalog catalog = StreamCatalog();
  Models models = LoadModels(spec.kind, cache_dir);
  TracedSystem traced(models.system, nullptr);
  Globalizer g(&traced, models.embedder, models.classifier, PipelineOptions(spec));
  TopicMixStream stream(&catalog, spec.stream, seed);
  std::vector<AnnotatedTweet> batch;
  uint64_t tweets = 0;
  double busy = 0;
  const double t_end = Now() + seconds;
  while (Now() < t_end) {
    batch.clear();
    for (int i = 0; i < 32; ++i) batch.push_back(stream.Next());
    const double t0 = Now();
    if (!g.ProcessBatch(batch).ok()) return 0;
    busy += Now() - t0;
    tweets += batch.size();
    if (tweets % 4096 == 0) {
      const emd::MemoryGovernor& gov = g.memory_governor();
      std::fprintf(stderr,
                   "[emdbench] capacity: %llu tweets, governed %zu B, "
                   "pressure %d, evicted %llu, trimmed %llu\n",
                   static_cast<unsigned long long>(tweets), gov.governed_bytes(),
                   static_cast<int>(gov.pressure()),
                   static_cast<unsigned long long>(gov.stats().evicted_candidates),
                   static_cast<unsigned long long>(gov.stats().trimmed_tweets));
    }
  }
  std::fprintf(stderr, "[emdbench] capacity probe: %llu tweets, evicted %llu\n",
               static_cast<unsigned long long>(tweets),
               static_cast<unsigned long long>(
                   g.memory_governor().stats().evicted_candidates));
  return busy > 0 ? static_cast<double>(tweets) / busy : 0;
}

}  // namespace emdbench
