// Parallel batch engine tests: ThreadPool correctness under contention, and
// the determinism contract — a Globalizer running N worker threads must
// produce bit-identical output (mentions, candidate records, pooled global
// embeddings) to the serial pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "emd/np_chunker.h"
#include "emd/pos_tagger.h"
#include "mock_local_system.h"
#include "stream/datasets.h"
#include "text/tweet_tokenizer.h"
#include "util/circuit_breaker.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace emd {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int /*slot*/, size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForSlotsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelFor(200, [&](int slot, size_t /*i*/) {
    if (slot < 0 || slot >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&](int /*slot*/, size_t i) {
    sum += static_cast<int>(i) + 1;
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPoolTest, ParallelForZeroItemsIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](int, size_t) { FAIL() << "must not be invoked"; });
}

TEST(ThreadPoolTest, SameSlotNeverOverlaps) {
  // The slot contract lets callers bind non-thread-safe resources per slot:
  // two invocations with the same slot must never run concurrently.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> in_flight(4);
  std::atomic<bool> overlapped{false};
  pool.ParallelFor(500, [&](int slot, size_t /*i*/) {
    if (in_flight[slot].fetch_add(1) != 0) overlapped = true;
    std::this_thread::yield();
    in_flight[slot].fetch_sub(1);
  });
  EXPECT_FALSE(overlapped.load());
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&] { ++ran; });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromTwoThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  auto work = [&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(64, [&](int /*slot*/, size_t /*i*/) { ++total; });
    }
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 64);
}

TEST(ThreadPoolTest, StartStopStress) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(1 + round % 4);
    std::atomic<int> n{0};
    pool.ParallelFor(17, [&](int, size_t) { ++n; });
    EXPECT_EQ(n.load(), 17);
  }
}

TEST(ThreadPoolTest, ParallelForOrSerialWithoutPool) {
  std::vector<int> hits(10, 0);
  ParallelForOrSerial(nullptr, hits.size(), [&](int slot, size_t i) {
    EXPECT_EQ(slot, 0);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---------------------------------------------------------------------------
// Parallel vs serial Globalizer determinism
// ---------------------------------------------------------------------------

AnnotatedTweet MakeTweet(long id, const std::string& text) {
  AnnotatedTweet t;
  t.tweet_id = id;
  t.text = text;
  t.tokens = TweetTokenizer().Tokenize(text);
  return t;
}

// A stream exercising the Fig. 1 inconsistency plus multi-token candidates,
// partial extractions, and repeated mentions across batches.
Dataset ParallelStream() {
  Dataset d;
  d.name = "parallel";
  d.streaming = true;
  const std::vector<std::string> texts = {
      "the Coronavirus keeps spreading fast",
      "worried about coronavirus cases today",
      "governor Andy Beshear spoke at noon",
      "CORONAVIRUS cases rising again now",
      "andy beshear closed the schools",
      "people discuss Coronavirus and Andy Beshear",
      "new variant of the coronavirus detected",
      "Beshear thanked the nurses yesterday",
      "the coronavirus response was slow",
      "Andy Beshear and the Coronavirus briefing",
      "lockdown easing as coronavirus recedes",
      "press asked Andy Beshear about schools",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    d.tweets.push_back(MakeTweet(static_cast<long>(i + 1), texts[i]));
  }
  return d;
}

std::vector<MockLocalSystem::Rule> StreamRules() {
  return {
      {.phrase = {"coronavirus"}, .require_capitalized = true},
      {.phrase = {"andy", "beshear"}, .require_capitalized = true},
      {.phrase = {"andy", "beshear"}, .partial = true},
      {.phrase = {"beshear"}, .require_capitalized = true},
  };
}

struct RunResult {
  GlobalizerOutput output;
  // Flattened candidate state for bit-exact comparison.
  std::vector<std::string> keys;
  std::vector<int> embedding_counts;
  std::vector<std::vector<float>> embedding_sums;
  int local_lanes = 0;
};

// Runs the stream through a Globalizer in fixed-size batches and captures
// everything the parallel engine could possibly perturb.
RunResult RunStream(Globalizer* g, const Dataset& d, size_t batch_size) {
  int lanes = 1;
  for (size_t begin = 0; begin < d.tweets.size(); begin += batch_size) {
    const size_t end = std::min(d.tweets.size(), begin + batch_size);
    EXPECT_TRUE(g->ProcessBatch(std::span<const AnnotatedTweet>(
                                    d.tweets.data() + begin, end - begin))
                    .ok());
    lanes = std::max(lanes, g->last_local_lanes());
  }
  RunResult r;
  r.output = g->Finalize().value();
  r.local_lanes = lanes;
  const ShardedGlobalState& state = g->global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    const CandidateRecord& rec = state.at(gid);
    r.keys.push_back(state.CandidateKey(gid));
    r.embedding_counts.push_back(rec.embedding_count);
    const Mat& sum = rec.embedding_sum;
    r.embedding_sums.emplace_back(sum.data(), sum.data() + sum.rows() * sum.cols());
  }
  return r;
}

void ExpectIdentical(const RunResult& serial, const RunResult& parallel) {
  ASSERT_EQ(serial.output.mentions.size(), parallel.output.mentions.size());
  for (size_t i = 0; i < serial.output.mentions.size(); ++i) {
    EXPECT_EQ(serial.output.mentions[i], parallel.output.mentions[i])
        << "tweet " << i;
  }
  EXPECT_EQ(serial.output.num_candidates, parallel.output.num_candidates);
  EXPECT_EQ(serial.output.num_quarantined, parallel.output.num_quarantined);
  EXPECT_EQ(serial.output.num_degraded, parallel.output.num_degraded);
  ASSERT_EQ(serial.keys, parallel.keys);
  ASSERT_EQ(serial.embedding_counts, parallel.embedding_counts);
  ASSERT_EQ(serial.embedding_sums.size(), parallel.embedding_sums.size());
  for (size_t i = 0; i < serial.embedding_sums.size(); ++i) {
    const auto& a = serial.embedding_sums[i];
    const auto& b = parallel.embedding_sums[i];
    ASSERT_EQ(a.size(), b.size()) << "candidate " << i;
    // Bit-for-bit, not approximate: the parallel merge must replicate the
    // serial pooling order exactly. An empty sum has no data to compare (and
    // a null data(), which memcmp must not see).
    if (a.empty()) continue;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "candidate " << i << " (" << serial.keys[i] << ")";
  }
}

TEST(ParallelPipelineTest, DeepSystemParallelMatchesSerialBitForBit) {
  const Dataset d = ParallelStream();
  constexpr int kDim = 16;

  MockLocalSystem serial_mock(StreamRules(), kDim);
  PhraseEmbedder pe(kDim, 8);
  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer serial(&serial_mock, &pe, nullptr, serial_opt);
  RunResult sr = RunStream(&serial, d, /*batch_size=*/4);

  MockLocalSystem parallel_mock(StreamRules(), kDim);
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 4;
  Globalizer parallel(&parallel_mock, &pe, nullptr, parallel_opt);
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/4);

  EXPECT_GT(pr.local_lanes, 1) << "parallel run should have fanned out";
  ExpectIdentical(sr, pr);
  EXPECT_EQ(serial_mock.calls(), parallel_mock.calls());
}

TEST(ParallelPipelineTest, ShallowSystemParallelMatchesSerial) {
  const Dataset d = ParallelStream();

  MockLocalSystem serial_mock(StreamRules());
  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer serial(&serial_mock, nullptr, nullptr, serial_opt);
  RunResult sr = RunStream(&serial, d, /*batch_size=*/3);

  MockLocalSystem parallel_mock(StreamRules());
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 8;
  Globalizer parallel(&parallel_mock, nullptr, nullptr, parallel_opt);
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/3);

  EXPECT_GT(pr.local_lanes, 1);
  ExpectIdentical(sr, pr);
}

// A real concurrent-safe local system: the NP Chunker shares one trained
// PosTagger across every local lane (Tag is const with per-call scratch).
// Under the thread sanitizer this is the test that drives a real tagger from
// several lanes at once.
TEST(ParallelPipelineTest, NpChunkerSharedTaggerParallelMatchesSerial) {
  EntityCatalogOptions copt;
  copt.entities_per_topic = 60;
  copt.seed = 5;
  const EntityCatalog catalog = EntityCatalog::Build(copt);
  PosTagger tagger;
  tagger.Train(BuildTrainingCorpus(catalog, 200, 11), {.epochs = 2});
  DatasetSuiteOptions sopt;
  sopt.scale = 0.3;
  const Dataset d = BuildD1(catalog, sopt);
  ASSERT_GT(d.tweets.size(), 200u);

  // The untrained classifier of the finalize tests: its thresholds sit
  // inside its narrow score band, so all three verdicts occur.
  const EntityClassifier clf({.input_dim = 7, .alpha = 0.487f, .beta = 0.479f});
  auto run = [&](int threads, int* lanes) {
    NpChunkerSystem chunker(&tagger);
    GlobalizerOptions opt;
    opt.num_threads = threads;
    Globalizer g(&chunker, nullptr, &clf, opt);
    *lanes = 1;
    for (size_t begin = 0; begin < d.tweets.size(); begin += 32) {
      const size_t end = std::min(d.tweets.size(), begin + 32);
      EXPECT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                     d.tweets.data() + begin, end - begin))
                      .ok());
      *lanes = std::max(*lanes, g.last_local_lanes());
    }
    GlobalizerOutput out = g.Finalize().value();
    std::vector<CandidateLabel> labels;
    const ShardedGlobalState& state = g.global_state();
    for (int gid = 0; gid < state.num_candidates(); ++gid) {
      labels.push_back(state.Label(gid));
    }
    return std::make_pair(std::move(out), std::move(labels));
  };
  int serial_lanes = 0, parallel_lanes = 0;
  const auto [serial, serial_labels] = run(1, &serial_lanes);
  const auto [parallel, parallel_labels] = run(4, &parallel_lanes);

  EXPECT_GT(parallel_lanes, 1) << "the chunker should fan out";
  EXPECT_GT(serial.num_entity, 0);
  EXPECT_EQ(serial.mentions, parallel.mentions);
  EXPECT_EQ(serial_labels, parallel_labels);
  EXPECT_EQ(serial.num_candidates, parallel.num_candidates);
  EXPECT_EQ(serial.num_entity, parallel.num_entity);
  EXPECT_EQ(serial.num_non_entity, parallel.num_non_entity);
  EXPECT_EQ(serial.num_ambiguous, parallel.num_ambiguous);
}

// A mock that declares itself unsafe for concurrent use, to exercise the
// per-worker replica path and the serial-local fallback.
class UnsafeMock : public MockLocalSystem {
 public:
  using MockLocalSystem::MockLocalSystem;
  bool concurrent_safe() const override { return false; }
};

TEST(ParallelPipelineTest, UnsafeSystemWithoutReplicasRunsLocalSeriallyButMatches) {
  const Dataset d = ParallelStream();

  UnsafeMock serial_mock(StreamRules());
  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer serial(&serial_mock, nullptr, nullptr, serial_opt);
  RunResult sr = RunStream(&serial, d, /*batch_size=*/4);

  UnsafeMock parallel_mock(StreamRules());
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 4;
  Globalizer parallel(&parallel_mock, nullptr, nullptr, parallel_opt);
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/4);

  // Local EMD stays on one lane (no replicas, not concurrent-safe); the
  // global re-scan stage still parallelizes. Output must not change.
  EXPECT_EQ(pr.local_lanes, 1);
  ExpectIdentical(sr, pr);
}

TEST(ParallelPipelineTest, UnsafeSystemWithWorkerReplicasFansOutAndMatches) {
  const Dataset d = ParallelStream();
  constexpr int kDim = 12;

  UnsafeMock serial_mock(StreamRules(), kDim);
  PhraseEmbedder pe(kDim, 6);
  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  Globalizer serial(&serial_mock, &pe, nullptr, serial_opt);
  RunResult sr = RunStream(&serial, d, /*batch_size=*/6);

  // Behaviourally identical replicas (same rules, same dim), one per lane.
  UnsafeMock primary(StreamRules(), kDim);
  UnsafeMock r0(StreamRules(), kDim), r1(StreamRules(), kDim),
      r2(StreamRules(), kDim);
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 3;
  Globalizer parallel(&primary, &pe, nullptr, parallel_opt);
  parallel.set_worker_systems({&r0, &r1, &r2});
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/6);

  EXPECT_EQ(pr.local_lanes, 3);
  ExpectIdentical(sr, pr);
  // Replicas actually carried the load.
  EXPECT_EQ(r0.calls() + r1.calls() + r2.calls(),
            static_cast<int>(d.tweets.size()));
  EXPECT_EQ(primary.calls(), 0);
}

// ---------------------------------------------------------------------------
// Token-batched local stage (forward-pass planner) determinism
// ---------------------------------------------------------------------------
//
// The reference is the resilient path, forced by ForceResilientPath: local
// EMD one TryProcess per tweet and per-row classification. The happy path —
// ProcessBatched chunks and batched classification — must match it bit for
// bit. Both take the one re-scan embedding path (each tweet's spans in one
// TryEmbedSpans call); kernels_test's PhraseEmbedderRowIndependenceTest pins
// that a row of that call does not depend on the tweet's other spans.

// Like ParallelStream but with an empty tweet and a one-token tweet mixed in,
// so the ragged batch packer sees zero-length and minimal sequences.
Dataset RaggedStream() {
  Dataset d = ParallelStream();
  d.name = "ragged";
  d.tweets.push_back(MakeTweet(100, ""));
  d.tweets.push_back(MakeTweet(101, "Beshear"));
  d.tweets.push_back(MakeTweet(102, "quiet day on the feed"));
  return d;
}

TEST(ParallelPipelineTest, TokenBatchedSerialMatchesPerTweetBitForBit) {
  const Dataset d = RaggedStream();
  constexpr int kDim = 16;
  PhraseEmbedder pe(kDim, 8);

  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MockLocalSystem resilient_mock(StreamRules(), kDim);
  RunResult rr;
  {
    ForceResilientPath force;
    Globalizer resilient(&resilient_mock, &pe, nullptr, opt);
    rr = RunStream(&resilient, d, /*batch_size=*/5);
  }

  // Happy path: whole batch slots go through ProcessBatched. Output must be
  // bit-identical.
  MockLocalSystem batched_mock(StreamRules(), kDim);
  Globalizer batched(&batched_mock, &pe, nullptr, opt);
  RunResult br = RunStream(&batched, d, /*batch_size=*/5);

  EXPECT_EQ(resilient_mock.batched_calls(), 0)
      << "the reference must take the per-tweet resilient path";
  EXPECT_GT(batched_mock.batched_calls(), 0)
      << "the happy path should have called ProcessBatched";
  ExpectIdentical(rr, br);
  EXPECT_EQ(resilient_mock.calls(), batched_mock.calls());
}

TEST(ParallelPipelineTest, TokenBatchedParallelMatchesSerialBitForBit) {
  const Dataset d = RaggedStream();
  constexpr int kDim = 16;
  PhraseEmbedder pe(kDim, 8);

  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  MockLocalSystem serial_mock(StreamRules(), kDim);
  RunResult sr;
  {
    ForceResilientPath force;
    Globalizer serial(&serial_mock, &pe, nullptr, serial_opt);
    sr = RunStream(&serial, d, /*batch_size=*/5);
  }

  MockLocalSystem parallel_mock(StreamRules(), kDim);
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 4;
  Globalizer parallel(&parallel_mock, &pe, nullptr, parallel_opt);
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/5);

  EXPECT_EQ(serial_mock.batched_calls(), 0);
  EXPECT_GT(pr.local_lanes, 1) << "parallel run should have fanned out";
  EXPECT_GT(parallel_mock.batched_calls(), 0);
  ExpectIdentical(sr, pr);
}

TEST(ParallelPipelineTest, TokenBatchedWorkerReplicasFanOutAndMatch) {
  const Dataset d = ParallelStream();
  constexpr int kDim = 12;
  PhraseEmbedder pe(kDim, 6);

  GlobalizerOptions serial_opt;
  serial_opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  UnsafeMock serial_mock(StreamRules(), kDim);
  RunResult sr;
  {
    ForceResilientPath force;
    Globalizer serial(&serial_mock, &pe, nullptr, serial_opt);
    sr = RunStream(&serial, d, /*batch_size=*/6);
  }

  // Each worker lane drives one contiguous chunk of the batch slot through
  // its own replica's ProcessBatched.
  UnsafeMock primary(StreamRules(), kDim);
  UnsafeMock r0(StreamRules(), kDim), r1(StreamRules(), kDim),
      r2(StreamRules(), kDim);
  GlobalizerOptions parallel_opt = serial_opt;
  parallel_opt.num_threads = 3;
  Globalizer parallel(&primary, &pe, nullptr, parallel_opt);
  parallel.set_worker_systems({&r0, &r1, &r2});
  RunResult pr = RunStream(&parallel, d, /*batch_size=*/6);

  EXPECT_EQ(serial_mock.batched_calls(), 0);
  EXPECT_EQ(pr.local_lanes, 3);
  ExpectIdentical(sr, pr);
  EXPECT_GT(r0.batched_calls() + r1.batched_calls() + r2.batched_calls(), 0);
  EXPECT_EQ(r0.calls() + r1.calls() + r2.calls(),
            static_cast<int>(d.tweets.size()));
  EXPECT_EQ(primary.calls(), 0);
}

TEST(ParallelPipelineTest, LocalStageRoutesByResilienceStateNotBatchCapability) {
  const Dataset d = RaggedStream();
  constexpr size_t kBatch = 5;
  const int batches = static_cast<int>((d.tweets.size() + kBatch - 1) / kBatch);
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;

  // Happy path: a system that does not fuse anything still gets one
  // ProcessBatched call per batch (one chunk, serial).
  {
    MockLocalSystem mock(StreamRules());
    ASSERT_FALSE(mock.batch_capable());
    Globalizer g(&mock, nullptr, nullptr, opt);
    RunStream(&g, d, kBatch);
    EXPECT_EQ(mock.batched_calls(), batches);
    EXPECT_EQ(mock.calls(), static_cast<int>(d.tweets.size()));
  }

  // An armed failpoint sends every tweet down the resilient path.
  {
    ForceResilientPath force;
    MockLocalSystem mock(StreamRules());
    Globalizer g(&mock, nullptr, nullptr, opt);
    RunStream(&g, d, kBatch);
    EXPECT_EQ(mock.batched_calls(), 0);
    EXPECT_EQ(mock.calls(), static_cast<int>(d.tweets.size()));
  }

  // So does a local deadline (on a clock that never moves, none expires).
  {
    FakeClock clock;
    GlobalizerOptions deadline_opt = opt;
    deadline_opt.resilience.local_deadline_nanos = kSecond;
    deadline_opt.resilience.clock = &clock;
    MockLocalSystem mock(StreamRules());
    Globalizer g(&mock, nullptr, nullptr, deadline_opt);
    RunStream(&g, d, kBatch);
    EXPECT_EQ(mock.batched_calls(), 0);
    EXPECT_EQ(mock.calls(), static_cast<int>(d.tweets.size()));
  }

  // So does an open breaker, after the failpoint that tripped it is gone:
  // the primary is never called and the fallback runs per tweet.
  {
    FakeClock clock;
    GlobalizerOptions breaker_opt = opt;
    breaker_opt.resilience.breaker.failure_threshold = 1;
    breaker_opt.resilience.clock = &clock;  // the cooldown never elapses
    MockLocalSystem primary(StreamRules());
    MockLocalSystem fallback(StreamRules());
    fallback.set_process_failpoint("emd.mock_fallback.process");
    Globalizer g(&primary, nullptr, nullptr, breaker_opt);
    g.set_fallback_system(&fallback);
    failpoint::EnableAfter("emd.mock.process", Status::Unavailable("down"));
    EXPECT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                   d.tweets.data(), kBatch))
                    .ok());
    failpoint::DisableAll();
    ASSERT_EQ(g.breaker().state(), CircuitBreaker::State::kOpen);
    ASSERT_FALSE(failpoint::AnyArmed());
    const int primary_calls = primary.calls();
    const int fallback_calls = fallback.calls();
    ASSERT_TRUE(g.ProcessBatch(std::span<const AnnotatedTweet>(
                                   d.tweets.data() + kBatch, kBatch))
                    .ok());
    EXPECT_EQ(primary.batched_calls(), 0);
    EXPECT_EQ(fallback.batched_calls(), 0);
    EXPECT_EQ(primary.calls(), primary_calls);
    EXPECT_EQ(fallback.calls(), fallback_calls + static_cast<int>(kBatch));
  }
}

TEST(ParallelPipelineTest, HappyPathReplaysBreakerSuccesses) {
  // The happy path never calls the breaker from the chunks; the merge replays
  // one success per tweet. A success resets the consecutive-failure count,
  // so a failure at the end of one batch and another at the start of the
  // batch after a clean one must not add up to a trip.
  const Dataset d = ParallelStream();
  constexpr size_t kBatch = 4;
  FakeClock clock;
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.resilience.breaker.failure_threshold = 2;
  opt.resilience.clock = &clock;
  MockLocalSystem mock(StreamRules());
  Globalizer g(&mock, nullptr, nullptr, opt);
  auto batch = [&](size_t b) {
    return std::span<const AnnotatedTweet>(d.tweets.data() + b * kBatch, kBatch);
  };

  // The batch's last tweet fails: one consecutive failure.
  failpoint::EnableAfter("emd.mock.process", Status::Unavailable("blip"),
                         /*skip=*/kBatch - 1, /*max_fires=*/1);
  EXPECT_TRUE(g.ProcessBatch(batch(0)).ok());
  failpoint::DisableAll();
  // A clean batch on the happy path.
  ASSERT_TRUE(g.ProcessBatch(batch(1)).ok());
  EXPECT_EQ(mock.batched_calls(), 1);
  // The next batch's first tweet fails: one consecutive failure again.
  failpoint::EnableAfter("emd.mock.process", Status::Unavailable("blip"),
                         /*skip=*/0, /*max_fires=*/1);
  EXPECT_TRUE(g.ProcessBatch(batch(2)).ok());
  failpoint::DisableAll();

  EXPECT_EQ(g.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(g.breaker().trips(), 0);
  EXPECT_EQ(g.Finalize().value().num_quarantined, 2);
}

// ---------------------------------------------------------------------------
// Re-scan embedding edge cases
// ---------------------------------------------------------------------------
//
// What each re-scanned mention of a deep primary pools, given the token
// embeddings its tweet's local stage produced: nothing for a tweet with none
// (a non-deep fallback served it); nothing, counted degraded, for a span out
// of range; the projected Embed(span) when the width fits; else the raw mean
// pool fitted to out_dim, counted degraded. The pools must come out exact at
// every shard count and thread count: the lanes' row buffers, the -1 row of
// a mention with no contribution and the per-shard drain all sit between the
// re-scan and the record.

// A deep mock whose token embeddings cover all but the last two tokens, so
// mentions at the end of a tweet are out of range for the phrase embedder.
class ShortEmbeddingMock : public MockLocalSystem {
 public:
  using MockLocalSystem::MockLocalSystem;
  LocalEmdResult Process(const std::vector<Token>& tokens) override {
    LocalEmdResult r = MockLocalSystem::Process(tokens);
    Mat kept(std::max(0, r.token_embeddings.rows() - 2),
             r.token_embeddings.cols());
    for (int t = 0; t < kept.rows(); ++t) {
      kept.SetRow(t, r.token_embeddings.row(t));
    }
    r.token_embeddings = std::move(kept);
    return r;
  }
};

struct ExpectedPool {
  std::vector<int> counts;                // per gid
  std::vector<std::vector<float>> sums;   // per gid, empty = nothing pooled
  int degraded = 0;
};

// Replays the contract above over the rewritten mention lists of `g`, pooling
// in tweet order like CandidateBase::AddMention. `token_embeddings[i]` is
// what tweet i's local stage produced.
ExpectedPool ExpectedEmbeddings(const Globalizer& g, const PhraseEmbedder& pe,
                                const std::vector<Mat>& token_embeddings) {
  ExpectedPool e;
  const size_t n = static_cast<size_t>(g.global_state().num_candidates());
  e.counts.assign(n, 0);
  e.sums.assign(n, {});
  for (size_t i = 0; i < g.tweet_base().size(); ++i) {
    const Mat& tok = token_embeddings[i];
    if (tok.empty()) continue;
    for (const RecordedMention& m : g.tweet_base().mentions(i)) {
      if (m.span.end > static_cast<size_t>(tok.rows())) {
        ++e.degraded;
        continue;
      }
      Mat emb;
      if (tok.cols() == pe.in_dim()) {
        emb = pe.Embed(tok, m.span);
      } else {
        ++e.degraded;
        emb = Mat(1, pe.out_dim());
        const int copy_dim = std::min(pe.out_dim(), tok.cols());
        for (size_t t = m.span.begin; t < m.span.end; ++t) {
          for (int j = 0; j < copy_dim; ++j) {
            emb(0, j) += tok(static_cast<int>(t), j);
          }
        }
        emb.Scale(1.f / static_cast<float>(m.span.length()));
      }
      std::vector<float>& sum = e.sums[m.candidate_id];
      if (sum.empty()) {
        sum.assign(emb.data(), emb.data() + emb.size());
      } else {
        for (size_t j = 0; j < sum.size(); ++j) sum[j] += emb.data()[j];
      }
      ++e.counts[m.candidate_id];
    }
  }
  return e;
}

// Reads every record by gid, so the pools of all shards are checked.
void ExpectPooled(const Globalizer& g, const ExpectedPool& e) {
  const ShardedGlobalState& state = g.global_state();
  ASSERT_EQ(static_cast<size_t>(state.num_candidates()), e.sums.size());
  for (size_t id = 0; id < e.sums.size(); ++id) {
    const int gid = static_cast<int>(id);
    const CandidateRecord& rec = state.at(gid);
    const std::string& key = state.CandidateKey(gid);
    EXPECT_EQ(rec.embedding_count, e.counts[id]) << key;
    const Mat& sum = rec.embedding_sum;
    ASSERT_EQ(sum.size(), e.sums[id].size()) << key;
    if (sum.empty()) continue;
    EXPECT_EQ(0, std::memcmp(sum.data(), e.sums[id].data(),
                             sum.size() * sizeof(float)))
        << key;
  }
}

TEST(ParallelPipelineTest, RescanEmbeddingEdgeCasesPoolExactly) {
  const Dataset d = ParallelStream();
  constexpr int kDim = 16;
  constexpr size_t kBatch = 4;
  PhraseEmbedder pe(kDim, 8);
  auto batch = [&](size_t b) {
    return std::span<const AnnotatedTweet>(d.tweets.data() + b * kBatch, kBatch);
  };
  // Local-stage token embeddings per tweet: the first batch from `primary`,
  // the rest from `fallback` (nullptr = a non-deep one, no embeddings).
  auto local_embeddings = [&](LocalEmdSystem* primary,
                              LocalEmdSystem* fallback) {
    std::vector<Mat> tok;
    for (size_t i = 0; i < d.tweets.size(); ++i) {
      LocalEmdSystem* s = i < kBatch ? primary : fallback;
      tok.push_back(s == nullptr ? Mat()
                                 : s->Process(d.tweets[i].tokens).token_embeddings);
    }
    return tok;
  };

  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 4}, {3, 1}, {3, 4}}) {
    SCOPED_TRACE("S" + std::to_string(shards) + " T" + std::to_string(threads));
    GlobalizerOptions opt;
    opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
    opt.shard_count = shards;
    opt.num_threads = threads;

    {
      SCOPED_TRACE("token embeddings shorter than the tweet");
      ShortEmbeddingMock mock(StreamRules(), kDim);
      Globalizer g(&mock, &pe, nullptr, opt);
      const RunResult r = RunStream(&g, d, kBatch);
      ShortEmbeddingMock reference(StreamRules(), kDim);
      std::vector<Mat> tok;
      for (const AnnotatedTweet& t : d.tweets) {
        tok.push_back(reference.Process(t.tokens).token_embeddings);
      }
      const ExpectedPool e = ExpectedEmbeddings(g, pe, tok);
      EXPECT_EQ(r.output.num_degraded, 4);
      EXPECT_EQ(r.output.num_degraded, e.degraded);
      ExpectPooled(g, e);
    }

    // The primary serves the first batch; a fault on the second trips a
    // threshold-1 breaker that stays open (the clock never moves), so the
    // fallback serves the rest, with and without an armed failpoint.
    auto run_with_fallback = [&](LocalEmdSystem* fallback, Globalizer* g) {
      g->set_fallback_system(fallback);
      EXPECT_TRUE(g->ProcessBatch(batch(0)).ok());
      failpoint::EnableAfter("emd.mock.process", Status::Unavailable("down"));
      EXPECT_TRUE(g->ProcessBatch(batch(1)).ok());
      failpoint::DisableAll();
      EXPECT_TRUE(g->ProcessBatch(batch(2)).ok());
      const GlobalizerOutput out = g->Finalize().value();
      EXPECT_EQ(out.num_fallback, static_cast<int>(2 * kBatch));
      EXPECT_EQ(out.num_quarantined, 0);
      return out;
    };
    FakeClock clock;
    GlobalizerOptions breaker_opt = opt;
    breaker_opt.resilience.breaker.failure_threshold = 1;
    breaker_opt.resilience.clock = &clock;

    {
      SCOPED_TRACE("non-deep fallback");
      MockLocalSystem primary(StreamRules(), kDim);
      MockLocalSystem fallback(StreamRules());
      fallback.set_process_failpoint("emd.mock_fallback.process");
      Globalizer g(&primary, &pe, nullptr, breaker_opt);
      const GlobalizerOutput out = run_with_fallback(&fallback, &g);
      MockLocalSystem reference(StreamRules(), kDim);
      const ExpectedPool e =
          ExpectedEmbeddings(g, pe, local_embeddings(&reference, nullptr));
      EXPECT_EQ(out.num_degraded, 0);
      EXPECT_EQ(e.degraded, 0);
      ExpectPooled(g, e);
    }

    {
      SCOPED_TRACE("deep fallback of another width");
      MockLocalSystem primary(StreamRules(), kDim);
      MockLocalSystem fallback(StreamRules(), /*dim=*/6);
      fallback.set_process_failpoint("emd.mock_fallback.process");
      Globalizer g(&primary, &pe, nullptr, breaker_opt);
      const GlobalizerOutput out = run_with_fallback(&fallback, &g);
      MockLocalSystem reference(StreamRules(), kDim);
      MockLocalSystem reference_fallback(StreamRules(), 6);
      const ExpectedPool e = ExpectedEmbeddings(
          g, pe, local_embeddings(&reference, &reference_fallback));
      EXPECT_EQ(out.num_degraded, 10);
      EXPECT_EQ(out.num_degraded, e.degraded);
      ExpectPooled(g, e);
    }
  }
}

TEST(ParallelPipelineTest, SingleTweetBatchesStaySerial) {
  MockLocalSystem mock(StreamRules());
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kMentionExtraction;
  opt.num_threads = 4;
  Globalizer g(&mock, nullptr, nullptr, opt);
  const Dataset d = ParallelStream();
  RunResult r = RunStream(&g, d, /*batch_size=*/1);
  EXPECT_EQ(r.local_lanes, 1);
  EXPECT_EQ(r.output.num_candidates > 0, true);
}

}  // namespace
}  // namespace emd
