// Observability layer tests: histogram bucket placement and percentile
// interpolation, counter monotonicity under ParallelFor (the registry's
// thread-safety contract, checked under TSan by scripts/check.sh --tsan),
// exporter golden outputs, the registry disable switch, and checkpoint v3
// metrics persistence with v2 backward compatibility.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "mock_local_system.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tweet_tokenizer.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

namespace emd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

AnnotatedTweet MakeTweet(long id, const std::string& text) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.sentence_id = static_cast<int>(id) * 10;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  return t;
}

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperEdges) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h", "", {}, {1.0, 2.0, 4.0});
  // Prometheus le semantics: a value equal to a bound lands in that bound's
  // bucket; anything above the last bound lands in the overflow bucket.
  h->Observe(0.5);
  h->Observe(1.0);
  h->Observe(1.5);
  h->Observe(2.0);
  h->Observe(4.0);
  h->Observe(4.1);
  const std::vector<uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);  // 4.0
  EXPECT_EQ(counts[3], 1u);  // 4.1 -> overflow
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1);
}

TEST(HistogramTest, PercentileInterpolatesWithinCrossingBucket) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h", "", {}, {10.0, 20.0, 30.0});
  // 10 observations in (0,10], 10 in (10,20]: rank interpolation matches the
  // Prometheus histogram_quantile estimate.
  h->Restore({10, 10, 0, 0}, /*sum=*/300, /*count=*/20);
  EXPECT_DOUBLE_EQ(h->Percentile(0.50), 10.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.95), 19.0);  // rank 19 of 20 -> 10 + 10*0.9
  EXPECT_DOUBLE_EQ(h->Percentile(0.25), 5.0);   // rank 5 of 20 -> 10*0.5
}

TEST(HistogramTest, OverflowBucketClampsToLargestFiniteBound) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h", "", {}, {1.0, 2.0});
  h->Observe(100);
  h->Observe(200);
  EXPECT_DOUBLE_EQ(h->Percentile(0.99), 2.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroPercentiles) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h");
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 0.0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(HistogramTest, DefaultLatencyGridIsStrictlyIncreasing) {
  const std::vector<double>& bounds = obs::Histogram::LatencyBoundsSeconds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// -------------------------------------------------------------- Registry --

TEST(MetricsRegistryTest, GetReturnsSamePointerForSameNameAndLabel) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("c", "help");
  obs::Counter* b = reg.GetCounter("c");
  EXPECT_EQ(a, b);
  // A different label is a different instance of the same family.
  obs::Counter* labelled = reg.GetCounter("c", "", obs::Label{"k", "v"});
  EXPECT_NE(a, labelled);
  EXPECT_EQ(labelled, reg.GetCounter("c", "", obs::Label{"k", "v"}));
}

TEST(MetricsRegistryTest, CountersStayMonotonicUnderParallelFor) {
  obs::MetricsRegistry reg;
  obs::Counter* counter = reg.GetCounter("parallel_increments_total");
  obs::Histogram* hist = reg.GetHistogram("parallel_obs", "", {}, {0.5, 1.5});
  ThreadPool pool(4);
  constexpr size_t kIterations = 20000;
  pool.ParallelFor(kIterations, [&](int /*slot*/, size_t i) {
    counter->Increment();
    hist->Observe(i % 2 == 0 ? 0.25 : 1.0);
  });
  EXPECT_EQ(counter->value(), kIterations);
  EXPECT_EQ(hist->count(), kIterations);
  const std::vector<uint64_t> counts = hist->BucketCounts();
  EXPECT_EQ(counts[0], kIterations / 2);
  EXPECT_EQ(counts[1], kIterations / 2);
  EXPECT_DOUBLE_EQ(hist->sum(), kIterations / 2 * 0.25 + kIterations / 2 * 1.0);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsUpdatesButKeepsPointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("c");
  obs::Gauge* g = reg.GetGauge("g");
  obs::Histogram* h = reg.GetHistogram("h");
  c->Increment(5);
  reg.set_enabled(false);
  c->Increment(100);
  g->Set(42);
  h->Observe(1.0);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_FALSE(h->enabled());
  reg.set_enabled(true);
  c->Increment();
  EXPECT_EQ(c->value(), 6u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesWithoutInvalidatingPointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("c");
  obs::Histogram* h = reg.GetHistogram("h");
  c->Increment(7);
  h->Observe(1.0);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.GetCounter("c"), c);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST(TraceSpanTest, SpanFeedsTheStageLatencyHistogram) {
  obs::Histogram* h = obs::Metrics().StageLatency("obs_test_stage");
  const uint64_t before = h->count();
  { EMD_TRACE_SPAN("obs_test_stage"); }
  EXPECT_EQ(h->count(), before + 1);
}

TEST(TraceSpanTest, PhraseEmbedSpanOncePerTweetWithMentions) {
  // One span per re-scanned tweet that has mentions, on the happy path too:
  // it wraps the tweet's one Entity Phrase Embedder call.
  MockLocalSystem deep_mock({{.phrase = {"beshear"}}}, /*dim=*/8);
  PhraseEmbedder pe(8, 4);
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&deep_mock, &pe, nullptr, opt);
  const std::vector<AnnotatedTweet> batch = {
      MakeTweet(1, "Beshear spoke and Beshear left"),
      MakeTweet(2, "nothing to report"),
      MakeTweet(3, "meeting with Beshear now"),
  };
  obs::Histogram* h = obs::Metrics().StageLatency("phrase_embed");
  const uint64_t before = h->count();
  ASSERT_TRUE(g.ProcessBatch(batch).ok());
  EXPECT_EQ(h->count(), before + 2);
}

// ------------------------------------------------------------- Exporters --

TEST(ExporterTest, PrometheusTextGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("requests_total", "Requests served")->Increment(3);
  reg.GetGauge("queue_depth", "Items queued")->Set(7);
  obs::Histogram* h =
      reg.GetHistogram("latency_seconds", "Latency", obs::Label{"stage", "s1"},
                       {0.1, 0.5});
  h->Observe(0.05);
  h->Observe(0.05);
  h->Observe(0.3);
  h->Observe(2.0);
  const std::string expected =
      "# HELP requests_total Requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n"
      "# HELP queue_depth Items queued\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 7\n"
      "# HELP latency_seconds Latency\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{stage=\"s1\",le=\"0.1\"} 2\n"
      "latency_seconds_bucket{stage=\"s1\",le=\"0.5\"} 3\n"
      "latency_seconds_bucket{stage=\"s1\",le=\"+Inf\"} 4\n"
      "latency_seconds_sum{stage=\"s1\"} 2.4\n"
      "latency_seconds_count{stage=\"s1\"} 4\n";
  EXPECT_EQ(obs::ToPrometheusText(reg.Snapshot()), expected);
}

TEST(ExporterTest, PrometheusHelpAndTypeEmittedOncePerFamily) {
  obs::MetricsRegistry reg;
  reg.GetCounter("family_total", "Help text", obs::Label{"k", "a"})->Increment();
  reg.GetCounter("family_total", "Help text", obs::Label{"k", "b"})->Increment();
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  size_t first = text.find("# HELP family_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP family_total", first + 1), std::string::npos);
  EXPECT_NE(text.find("family_total{k=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("family_total{k=\"b\"} 1"), std::string::npos);
}

TEST(ExporterTest, BenchJsonGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("requests_total")->Increment(3);
  obs::Histogram* h =
      reg.GetHistogram("latency_seconds", "", obs::Label{"stage", "s1"},
                       {0.1, 0.5});
  h->Observe(0.1);
  h->Observe(0.3);
  const std::string expected =
      "{\n"
      "  \"schema\": \"emd-bench-v1\",\n"
      "  \"results\": [\n"
      "    {\"name\": \"requests_total\", \"iters\": 3, \"ns_per_op\": 0},\n"
      "    {\"name\": \"latency_seconds/stage=s1\", \"iters\": 2, "
      "\"ns_per_op\": 2e+08},\n"
      "    {\"name\": \"latency_seconds/stage=s1/p50\", \"iters\": 2, "
      "\"ns_per_op\": 1e+08},\n"
      "    {\"name\": \"latency_seconds/stage=s1/p95\", \"iters\": 2, "
      "\"ns_per_op\": 4.6e+08},\n"
      "    {\"name\": \"latency_seconds/stage=s1/p99\", \"iters\": 2, "
      "\"ns_per_op\": 4.92e+08}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::ToBenchJson(reg.Snapshot()), expected);
}

// -------------------------------------------------- Checkpoint v3 metrics --

TEST(CheckpointMetricsTest, V3RoundTripsRegistryCounters) {
  const std::string path = TempPath("emd_obs_ckpt_v3.bin");
  obs::Metrics().Reset();

  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  std::vector<AnnotatedTweet> batch = {
      MakeTweet(1, "the Coronavirus keeps spreading"),
      MakeTweet(2, "worried about coronavirus cases"),
  };
  ASSERT_TRUE(g.ProcessBatch(batch).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  obs::Counter* tweets =
      obs::Metrics().GetCounter("emd_tweets_processed_total");
  obs::Counter* batches = obs::Metrics().GetCounter("emd_batches_total");
  const uint64_t saved_tweets = tweets->value();
  const uint64_t saved_batches = batches->value();
  ASSERT_EQ(saved_tweets, 2u);
  ASSERT_EQ(saved_batches, 1u);

  // "New process": the registry loses its in-memory totals, then the restore
  // brings them back from the checkpoint.
  obs::Metrics().Reset();
  ASSERT_EQ(tweets->value(), 0u);

  MockLocalSystem mock2({{.phrase = {"coronavirus"}}});
  Globalizer restored(&mock2, nullptr, nullptr, opt);
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(tweets->value(), saved_tweets);
  EXPECT_EQ(batches->value(), saved_batches);
  EXPECT_GE(
      obs::Metrics().GetCounter("checkpoint_restores_total")->value(), 1u);

  // Stage latency histograms survive too (the local_emd span observed once).
  bool found_local = false;
  for (const auto& h : obs::Metrics().Snapshot().histograms) {
    if (h.name == "emd_stage_latency_seconds" && h.label.value == "local_emd") {
      found_local = h.count >= 1;
    }
  }
  EXPECT_TRUE(found_local);
  std::filesystem::remove(path);
}

TEST(CheckpointMetricsTest, V2CheckpointStillLoads) {
  // A hand-built minimal v2 checkpoint: empty stream, zero counters, no
  // metrics block. A v3 reader must accept it and leave the registry alone.
  const std::string path = TempPath("emd_obs_ckpt_v2.bin");
  std::string buf;
  binio::AppendU32(&buf, 0x454D4447);  // 'EMDG'
  binio::AppendU32(&buf, 2);           // version
  binio::AppendU8(&buf, static_cast<uint8_t>(
                            GlobalizerOptions::Mode::kMentionExtraction));
  binio::AppendU64(&buf, 0);  // cursor
  binio::AppendU32(&buf, 0);  // num_quarantined
  binio::AppendU32(&buf, 0);  // num_degraded
  binio::AppendU8(&buf, 0);   // classifier_degraded
  binio::AppendU32(&buf, 0);  // num_retries
  binio::AppendU32(&buf, 0);  // num_fallback
  binio::AppendU32(&buf, 0);  // num_dead_lettered
  binio::AppendU32(&buf, 0);  // breaker_trips
  binio::AppendU32(&buf, 0);  // breaker_recoveries
  binio::AppendU32(&buf, 0);  // CTrie candidates
  binio::AppendU64(&buf, 0);  // TweetBase records
  binio::AppendU64(&buf, 0);  // CandidateBase slots
  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  ASSERT_TRUE(WriteFileAtomic(path, buf).ok());

  obs::Metrics().Reset();
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  EXPECT_TRUE(g.RestoreCheckpoint(path).ok());
  EXPECT_EQ(g.processed_tweets(), 0u);
  // No metrics block in v2: the pipeline totals stay at their reset values.
  EXPECT_EQ(obs::Metrics().GetCounter("emd_tweets_processed_total")->value(),
            0u);
  std::filesystem::remove(path);
}

TEST(CheckpointMetricsTest, TruncatedMetricsBlockIsRejected) {
  const std::string path = TempPath("emd_obs_ckpt_trunc.bin");
  obs::Metrics().Reset();
  MockLocalSystem mock({{.phrase = {"coronavirus"}}});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer g(&mock, nullptr, nullptr, opt);
  std::vector<AnnotatedTweet> batch = {
      MakeTweet(1, "the Coronavirus keeps spreading")};
  ASSERT_TRUE(g.ProcessBatch(batch).ok());
  ASSERT_TRUE(g.SaveCheckpoint(path).ok());

  // Drop 12 bytes from the metrics block (before the CRC) and re-seal the
  // checksum: the structural parse, not just the CRC, must catch it.
  std::string buf = ReadFileToString(path).value();
  ASSERT_GT(buf.size(), 20u);
  buf.resize(buf.size() - sizeof(uint32_t) - 12);
  binio::AppendU32(&buf, Crc32(buf.data(), buf.size()));
  ASSERT_TRUE(WriteFileAtomic(path, buf).ok());

  MockLocalSystem mock2({{.phrase = {"coronavirus"}}});
  Globalizer fresh(&mock2, nullptr, nullptr, opt);
  EXPECT_TRUE(fresh.RestoreCheckpoint(path).IsCorruption());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace emd
