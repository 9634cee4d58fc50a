// Tests for the int8 quantized inference backend and the forward-pass
// planner (label: kernels): quantization round-trip and clamping, bitwise
// scalar/AVX2 int8 agreement, QuantizedLinear parity against fp32 within its
// analytic error bound, ragged-batch planner equivalence against the
// per-sequence forward (including empty and truncated sequences), the
// zero-allocation steady state of a warm planner pass, and the end-to-end
// int8-vs-fp32 F1 gate on a trained MiniBertweet.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <vector>

#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "core/phrase_embedder.h"
#include "emd/mini_bertweet.h"
#include "emd/subword.h"
#include "eval/metrics.h"
#include "mock_local_system.h"
#include "nn/kernels/kernels.h"
#include "nn/planner.h"
#include "nn/qlinear.h"
#include "nn/transformer.h"
#include "stream/datasets.h"
#include "stream/entity_catalog.h"
#include "util/cpuid.h"
#include "util/rng.h"

// Global allocation counter for the steady-state assertion. GCC cannot see
// that the replacement operator new/delete below are a matched malloc/free
// pair and warns at every inlined delete site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<long> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace emd {
namespace {

using kernels::Avx2Int8Kernels;
using kernels::Int8Kernels;
using kernels::QuantizedBackend;
using kernels::ScalarInt8Kernels;

/// The AVX2 int8 backend to compare against, or nullptr on hosts without it.
const QuantizedBackend* SimdInt8() {
  const QuantizedBackend* avx2 = Avx2Int8Kernels();
  return (avx2 != nullptr && CpuHasAvx2Fma()) ? avx2 : nullptr;
}

Mat GaussianMat(int rows, int cols, float scale, uint64_t seed) {
  Rng rng(seed);
  Mat m(rows, cols);
  m.InitGaussian(&rng, scale);
  return m;
}

// ---------------------------------------------------------------------------
// Quantization round-trip.
// ---------------------------------------------------------------------------

TEST(Int8QuantizeTest, RoundTripWithinHalfStep) {
  const QuantizedBackend& q = ScalarInt8Kernels();
  for (int k : {1, 7, 16, 63, 255}) {
    const Mat a = GaussianMat(3, k, 2.f, 77 + k);
    std::vector<std::int8_t> codes(3 * k);
    std::vector<float> scales(3);
    q.quantize_rows(a.data(), 3, k, codes.data(), scales.data());
    for (int i = 0; i < 3; ++i) {
      float maxabs = 0.f;
      for (int j = 0; j < k; ++j) {
        maxabs = std::max(maxabs, std::fabs(a(i, j)));
      }
      EXPECT_FLOAT_EQ(scales[i], maxabs / 127.f);
      for (int j = 0; j < k; ++j) {
        const int code = codes[i * k + j];
        EXPECT_GE(code, -127);
        EXPECT_LE(code, 127);
        // Round-to-nearest: the dequantized value sits within half a step.
        EXPECT_LE(std::fabs(code * scales[i] - a(i, j)),
                  0.5f * scales[i] + 1e-6f);
      }
    }
  }
}

TEST(Int8QuantizeTest, ZeroRowGetsZeroScaleAndZeroCodes) {
  const QuantizedBackend& q = ScalarInt8Kernels();
  const int k = 33;
  std::vector<float> a(k, 0.f);
  std::vector<std::int8_t> codes(k, 1);
  std::vector<float> scales(1, 1.f);
  q.quantize_rows(a.data(), 1, k, codes.data(), scales.data());
  EXPECT_EQ(scales[0], 0.f);
  for (int j = 0; j < k; ++j) EXPECT_EQ(codes[j], 0);
}

// ---------------------------------------------------------------------------
// Scalar / AVX2 bit-identity: exact int32 accumulation plus an identical
// non-FMA dequant sequence make the two implementations bitwise equal.
// ---------------------------------------------------------------------------

TEST(Int8QuantizeTest, ScalarAndAvx2QuantizeBitIdentical) {
  const QuantizedBackend* simd = SimdInt8();
  if (simd == nullptr) GTEST_SKIP() << "no AVX2 int8 backend on this host";
  const QuantizedBackend& ref = ScalarInt8Kernels();
  for (int k : {1, 5, 16, 17, 64, 100, 255}) {
    const int m = 4;
    const Mat a = GaussianMat(m, k, 1.5f, 7000 + k);
    std::vector<std::int8_t> c0(m * k), c1(m * k);
    std::vector<float> s0(m), s1(m);
    ref.quantize_rows(a.data(), m, k, c0.data(), s0.data());
    simd->quantize_rows(a.data(), m, k, c1.data(), s1.data());
    EXPECT_EQ(0, std::memcmp(c0.data(), c1.data(), c0.size())) << "k=" << k;
    EXPECT_EQ(0, std::memcmp(s0.data(), s1.data(), m * sizeof(float)))
        << "k=" << k;
  }
}

TEST(Int8QuantizeTest, ScalarAndAvx2QGemmBitIdentical) {
  const QuantizedBackend* simd = SimdInt8();
  if (simd == nullptr) GTEST_SKIP() << "no AVX2 int8 backend on this host";
  const QuantizedBackend& ref = ScalarInt8Kernels();
  struct Shape {
    int m, k, n;
  };
  for (const Shape sh : std::vector<Shape>{
           {1, 1, 1}, {3, 17, 5}, {2, 16, 4}, {5, 33, 7}, {17, 64, 13},
           {8, 100, 31}}) {
    Rng rng(900 + sh.k * 31 + sh.n);
    std::vector<std::int8_t> a8(sh.m * sh.k), wt8(sh.n * sh.k);
    for (auto& v : a8) v = static_cast<std::int8_t>(rng.NextInt(-127, 127));
    for (auto& v : wt8) v = static_cast<std::int8_t>(rng.NextInt(-127, 127));
    std::vector<float> a_scales(sh.m), w_scales(sh.n), bias(sh.n);
    for (auto& v : a_scales) v = rng.NextFloat(0.001f, 0.1f);
    for (auto& v : w_scales) v = rng.NextFloat(0.001f, 0.1f);
    for (auto& v : bias) v = rng.NextFloat(-1.f, 1.f);
    std::vector<float> c0(sh.m * sh.n), c1(sh.m * sh.n);
    ref.qgemm(a8.data(), a_scales.data(), wt8.data(), w_scales.data(),
              bias.data(), c0.data(), sh.m, sh.k, sh.n);
    simd->qgemm(a8.data(), a_scales.data(), wt8.data(), w_scales.data(),
                bias.data(), c1.data(), sh.m, sh.k, sh.n);
    EXPECT_EQ(0, std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)))
        << sh.m << "x" << sh.k << "x" << sh.n;
    // And the nullptr-bias variant.
    ref.qgemm(a8.data(), a_scales.data(), wt8.data(), w_scales.data(), nullptr,
              c0.data(), sh.m, sh.k, sh.n);
    simd->qgemm(a8.data(), a_scales.data(), wt8.data(), w_scales.data(),
                nullptr, c1.data(), sh.m, sh.k, sh.n);
    EXPECT_EQ(0, std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)))
        << sh.m << "x" << sh.k << "x" << sh.n << " (no bias)";
  }
}

TEST(Int8QuantizeTest, DispatchReturnsKnownInt8Backend) {
  const QuantizedBackend& q = Int8Kernels();
  EXPECT_TRUE(std::string(q.name) == "int8-scalar" ||
              std::string(q.name) == "int8-avx2");
  EXPECT_EQ(&q, &Int8Kernels());  // stable across calls
}

// ---------------------------------------------------------------------------
// QuantizedLinear: fp32 parity within the analytic per-element bound.
// ---------------------------------------------------------------------------

TEST(QuantizedLinearTest, ParityWithinErrorBound) {
  struct Shape {
    int in, out;
  };
  for (const Shape sh : std::vector<Shape>{{16, 32}, {64, 6}, {33, 17}}) {
    const Mat w = GaussianMat(sh.in, sh.out, 0.3f, 50 + sh.in);
    const Mat b = GaussianMat(1, sh.out, 0.2f, 60 + sh.out);
    QuantizedLinear q;
    EXPECT_FALSE(q.packed());
    q.Pack(w, b);
    ASSERT_TRUE(q.packed());
    EXPECT_EQ(q.in_dim(), sh.in);
    EXPECT_EQ(q.out_dim(), sh.out);

    const Mat x = GaussianMat(5, sh.in, 1.f, 70 + sh.in);
    Mat expect = MatMul(x, w);
    AddRowBroadcastInPlace(&expect, b);

    QuantizedLinear::Scratch qs;
    Mat got;
    q.Apply(x, &qs, &got);
    ASSERT_EQ(got.rows(), 5);
    ASSERT_EQ(got.cols(), sh.out);
    for (int i = 0; i < x.rows(); ++i) {
      float maxabs = 0.f;
      for (int j = 0; j < sh.in; ++j) {
        maxabs = std::max(maxabs, std::fabs(x(i, j)));
      }
      const float budget = q.ErrorBound(maxabs);
      ASSERT_GT(budget, 0.f);
      for (int j = 0; j < sh.out; ++j) {
        EXPECT_LE(std::fabs(got(i, j) - expect(i, j)), budget)
            << "(" << i << ", " << j << ") of " << sh.in << "->" << sh.out;
      }
    }
  }
}

TEST(QuantizedLinearTest, QuantizedRowsMatchSingleRowApplication) {
  // Row invariance: applying the packed layer to a many-row batch must give
  // the same bits per row as applying it to each row alone — the property
  // that lets the serial and batched pipelines share one quantized path.
  const Mat w = GaussianMat(24, 12, 0.4f, 81);
  const Mat b = GaussianMat(1, 12, 0.2f, 82);
  QuantizedLinear q;
  q.Pack(w, b);
  const Mat x = GaussianMat(7, 24, 1.2f, 83);
  QuantizedLinear::Scratch qs;
  Mat batched;
  q.Apply(x, &qs, &batched);
  for (int i = 0; i < x.rows(); ++i) {
    Mat row(1, 24);
    std::memcpy(row.row(0), x.row(i), sizeof(float) * 24);
    Mat single;
    q.Apply(row, &qs, &single);
    EXPECT_EQ(0, std::memcmp(single.row(0), batched.row(i),
                             sizeof(float) * 12))
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Forward-pass planner: ragged-batch equivalence and steady-state
// allocations.
// ---------------------------------------------------------------------------

TEST(PlannerTest, RaggedPackOffsets) {
  RaggedPack pack;
  pack.Clear();
  pack.Add(5);
  pack.Add(0);
  pack.Add(3);
  EXPECT_EQ(pack.num_seqs(), 3);
  EXPECT_EQ(pack.total_rows(), 8);
  EXPECT_EQ(pack.begin(1), 5);
  EXPECT_EQ(pack.len(1), 0);
  EXPECT_EQ(pack.begin(2), 5);
  EXPECT_EQ(pack.end(2), 8);
}

TEST(PlannerTest, BatchedEncoderLayerMatchesPerSequenceForward) {
  Rng rng(17);
  TransformerEncoderLayer layer(32, 4, 64, 0.1f, &rng, "t");
  const std::vector<int> lens = {5, 0, 1, 17, 2};
  RaggedPack pack;
  pack.Clear();
  int total = 0;
  for (int len : lens) {
    pack.Add(len);
    total += len;
  }
  const Mat x = GaussianMat(total, 32, 1.f, 21);

  ForwardArena arena;
  Mat out;
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);
  ASSERT_EQ(out.rows(), total);
  ASSERT_EQ(out.cols(), 32);

  Rng drop_rng(1);  // unused: inference-mode dropout is the identity
  for (int s = 0; s < pack.num_seqs(); ++s) {
    const int T = pack.len(s);
    if (T == 0) continue;
    Mat xs(T, 32);
    std::memcpy(xs.data(), x.row(pack.begin(s)), sizeof(float) * T * 32);
    const Mat ys = layer.Forward(xs, /*training=*/false, &drop_rng);
    EXPECT_EQ(0, std::memcmp(ys.data(), out.row(pack.begin(s)),
                             sizeof(float) * T * 32))
        << "sequence " << s << " diverges from the per-sequence forward";
  }
}

TEST(PlannerTest, WarmApplyBatchedIsAllocationFree) {
  Rng rng(29);
  TransformerEncoderLayer layer(32, 4, 64, 0.f, &rng, "t");
  RaggedPack pack;
  pack.Clear();
  pack.Add(9);
  pack.Add(14);
  const Mat x = GaussianMat(23, 32, 1.f, 31);
  ForwardArena arena;
  Mat out;
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);  // cold: arena grows
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);  // warm once more
  const long before = g_allocations.load(std::memory_order_relaxed);
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "steady-state planner pass should not touch the heap";
}

TEST(PlannerTest, WarmQuantizedApplyBatchedIsAllocationFree) {
  Rng rng(33);
  TransformerEncoderLayer layer(32, 4, 64, 0.f, &rng, "t");
  layer.PrepareQuantized();
  RaggedPack pack;
  pack.Clear();
  pack.Add(6);
  pack.Add(11);
  const Mat x = GaussianMat(17, 32, 1.f, 35);
  ForwardArena arena;
  Mat out;
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);
  const long before = g_allocations.load(std::memory_order_relaxed);
  layer.ApplyBatched(x, pack, x, pack, &arena, 0, &out);
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
}

/// The query side of a pruned layer call: per sequence of `pack`, the listed
/// rows (indices within the sequence, repeats allowed) gathered from x.
struct QueryRows {
  std::vector<int> rows;  // packed rows of x
  RaggedPack pack;
  Mat x;
};

QueryRows SelectRows(const Mat& x, const RaggedPack& pack,
                     const std::vector<std::vector<int>>& per_seq) {
  QueryRows q;
  q.pack.Clear();
  for (int s = 0; s < pack.num_seqs(); ++s) {
    for (int r : per_seq[s]) q.rows.push_back(pack.begin(s) + r);
    q.pack.Add(static_cast<int>(per_seq[s].size()));
  }
  GatherRowsInto(x, q.rows, &q.x);
  return q;
}

// A layer given some rows of each sequence (the first-piece rows, say)
// writes exactly the rows of the full layer followed by the gather: Q, the
// residual/norm chain and the FFN are row-wise (nn/planner.h), and K and V
// still come from every row. In fp32 and, after PrepareQuantized, in int8,
// whose per-row activation scales keep the contract. The selections cover
// a sequence with no keys, one with keys but no queries, repeats (a
// truncated tweet's words), every row, and rows out of order.
TEST(PlannerTest, PrunedEncoderLayerMatchesFullLayerThenGather) {
  const std::vector<int> lens = {5, 0, 1, 17, 2, 9, 4};
  const std::vector<std::vector<int>> per_seq = {
      {0, 2, 3}, {}, {0}, {0, 1, 4, 7, 8, 12, 16}, {}, {0, 3, 3, 8, 8},
      {3, 0, 1, 2}};
  RaggedPack pack;
  pack.Clear();
  for (int len : lens) pack.Add(len);
  const Mat x = GaussianMat(pack.total_rows(), 32, 1.f, 37);
  const QueryRows q = SelectRows(x, pack, per_seq);

  Mat fp32_out;
  for (const bool int8 : {false, true}) {
    Rng rng(41);
    TransformerEncoderLayer layer(32, 4, 64, 0.1f, &rng, "t");
    if (int8) layer.PrepareQuantized();
    ForwardArena arena;
    Mat full, want, pruned;
    layer.ApplyBatched(x, pack, x, pack, &arena, 0, &full);
    GatherRowsInto(full, q.rows, &want);
    layer.ApplyBatched(x, pack, q.x, q.pack, &arena, 0, &pruned);
    ASSERT_EQ(pruned.rows(), static_cast<int>(q.rows.size()));
    ASSERT_EQ(pruned.cols(), 32);
    EXPECT_EQ(0, std::memcmp(want.data(), pruned.data(),
                             sizeof(float) * want.size()))
        << (int8 ? "int8" : "fp32")
        << " pruned layer differs from the full layer's rows";
    if (!int8) {
      fp32_out = pruned;
    } else {
      // The int8 leg really ran quantized.
      EXPECT_NE(0, std::memcmp(fp32_out.data(), pruned.data(),
                               sizeof(float) * pruned.size()));
    }
  }
}

// The encoder's steady state: full layers, then the last one over a row
// subset, sharing one arena. Warm, neither touches the heap.
TEST(PlannerTest, WarmPrunedApplyBatchedIsAllocationFree) {
  RaggedPack pack;
  pack.Clear();
  pack.Add(9);
  pack.Add(14);
  const Mat x = GaussianMat(23, 32, 1.f, 39);
  const QueryRows q = SelectRows(x, pack, {{0, 3, 8}, {0, 0, 5, 13}});
  for (const bool int8 : {false, true}) {
    Rng rng(43);
    TransformerEncoderLayer layer(32, 4, 64, 0.f, &rng, "t");
    if (int8) layer.PrepareQuantized();
    ForwardArena arena;
    Mat full, out;
    auto pass = [&] {
      layer.ApplyBatched(x, pack, x, pack, &arena, 0, &full);
      layer.ApplyBatched(x, pack, q.x, q.pack, &arena, 0, &out);
    };
    pass();  // cold: arena grows
    pass();
    const long before = g_allocations.load(std::memory_order_relaxed);
    pass();
    const long after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after) << (int8 ? "int8" : "fp32");
  }
}

// ---------------------------------------------------------------------------
// MiniBertweet: batched inference vs per-tweet, fp32 bit-identity and the
// int8 end-to-end F1 gate.
// ---------------------------------------------------------------------------

struct TinyWorld {
  EntityCatalog catalog;
  Dataset train;
  Dataset test;
  MiniBertweetSystem net;
  // Two encoder layers: the first runs over every piece, the last over the
  // first-piece rows.
  MiniBertweetSystem deep_net;

  static TinyWorld* Make() {
    EntityCatalogOptions copt;
    copt.entities_per_topic = 60;
    copt.seed = 5;
    auto* w = new TinyWorld{EntityCatalog::Build(copt), {}, {}, MakeNet(1),
                            MakeNet(2)};
    w->train = BuildTrainingCorpus(w->catalog, 200, 11);
    DatasetSuiteOptions sopt;
    sopt.scale = 0.1;
    w->test = BuildD1(w->catalog, sopt);
    w->net.Train(w->train, {.epochs = 2});
    w->deep_net.Train(w->train, {.epochs = 2});
    return w;
  }

  static MiniBertweetSystem MakeNet(int num_layers) {
    MiniBertweetOptions opt;
    opt.d_model = 32;
    opt.num_heads = 2;
    opt.d_ff = 64;
    opt.num_layers = num_layers;
    return MiniBertweetSystem(opt);
  }
};

TinyWorld& World() {
  static TinyWorld* w = TinyWorld::Make();
  return *w;
}

/// A tweet of `n` tokens long enough to truncate: tweet 1's tokens repeated.
std::vector<Token> RepeatTokens(const std::vector<Token>& tokens, size_t n) {
  std::vector<Token> out;
  while (out.size() < n) {
    for (const Token& t : tokens) out.push_back(t);
  }
  return out;
}

TEST(MiniBertweetBatchTest, BatchedMatchesPerTweetBitwise) {
  if (kernels::Int8Enabled()) {
    GTEST_SKIP() << "bitwise batched-vs-serial is the fp32 contract; under "
                    "EMD_BACKEND=int8 the batched path quantizes on purpose";
  }
  TinyWorld& w = World();

  // A ragged batch: normal tweets, an empty tweet, a single-token tweet, and
  // a truncation-length tweet (more pieces than max_positions), whose words
  // past the cut share the last kept piece's row.
  std::vector<std::vector<Token>> tweets;
  for (int i = 0; i < 6; ++i) tweets.push_back(w.test.tweets[i].tokens);
  tweets.push_back({});
  tweets.push_back({w.test.tweets[0].tokens[0]});
  tweets.push_back(RepeatTokens(w.test.tweets[1].tokens, 150));

  // Tweets of T = 1..40 subword pieces (T is the attention length), built
  // from words that are one piece each, so every T mod 8 and both sides of
  // the last 4-column group are covered: each lane of the attention
  // kernel's 8-column score blocks and its dot-product tail columns is
  // compared. The tokenizer is rebuilt as Train() builds it to count pieces.
  const SubwordTokenizer subword = SubwordTokenizer::Build(
      w.train, MiniBertweetOptions().min_word_count);
  std::vector<Token> single, multi;
  for (const auto& tweet : w.test.tweets) {
    for (const Token& t : tweet.tokens) {
      (subword.Split(t.text).size() == 1 ? single : multi).push_back(t);
    }
  }
  ASSERT_GE(single.size(), 40u);
  for (int pieces = 1; pieces <= 40; ++pieces) {
    tweets.emplace_back(single.begin(), single.begin() + pieces);
  }

  // Tweets that open with a multi-piece word and alternate, so the last
  // layer's queries are fewer than the tweet's pieces (tq < tk), until every
  // tk mod 8 is seen; then a truncated one of multi-piece words only, whose
  // cut can fall inside a word.
  ASSERT_GE(multi.size(), 60u);
  std::vector<Token> mixed;
  int pieces = 0;
  std::vector<bool> residue_seen(8, false);
  for (size_t i = 0; i < 60 && pieces < 96; ++i) {
    const Token& t = i % 2 == 0 ? multi[i / 2] : single[i / 2];
    mixed.push_back(t);
    pieces += static_cast<int>(subword.Split(t.text).size());
    tweets.push_back(mixed);
    if (pieces < 96) residue_seen[pieces % 8] = true;
  }
  EXPECT_EQ(std::count(residue_seen.begin(), residue_seen.end(), true), 8);
  tweets.emplace_back(multi.begin(), multi.begin() + 60);

  std::vector<const std::vector<Token>*> views;
  for (const auto& t : tweets) views.push_back(&t);
  for (MiniBertweetSystem* net : {&w.net, &w.deep_net}) {
    ASSERT_TRUE(net->batch_capable());
    ForwardArena arena;
    std::vector<LocalEmdResult> batched;
    net->ProcessBatched(views, &arena, &batched);
    ASSERT_EQ(batched.size(), tweets.size());

    for (size_t i = 0; i < tweets.size(); ++i) {
      const LocalEmdResult serial = net->Process(tweets[i]);
      EXPECT_EQ(serial.mentions, batched[i].mentions) << "tweet " << i;
      const Mat& want = serial.token_embeddings;
      const Mat& got = batched[i].token_embeddings;
      ASSERT_EQ(want.rows(), got.rows()) << "tweet " << i;
      ASSERT_EQ(want.cols(), got.cols()) << "tweet " << i;
      if (!want.empty()) {
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 sizeof(float) * want.size()))
            << "tweet " << i << " embeddings diverge";
      }
    }
  }
}

/// Forwards to a MiniBertweet and counts which entry the Globalizer took.
class CountingSystem : public LocalEmdSystem {
 public:
  explicit CountingSystem(MiniBertweetSystem* net) : net_(net) {}
  std::string name() const override { return net_->name(); }
  bool is_deep() const override { return true; }
  int embedding_dim() const override { return net_->embedding_dim(); }
  const char* process_failpoint() const override {
    return net_->process_failpoint();
  }
  bool batch_capable() const override { return net_->batch_capable(); }
  LocalEmdResult Process(const std::vector<Token>& tokens) override {
    ++process_calls;
    return net_->Process(tokens);
  }
  void ProcessBatched(const std::vector<const std::vector<Token>*>& tweets,
                      ForwardArena* arena,
                      std::vector<LocalEmdResult>* results) override {
    ++batched_calls;
    net_->ProcessBatched(tweets, arena, results);
  }

  int process_calls = 0;
  int batched_calls = 0;

 private:
  MiniBertweetSystem* net_;
};

/// Everything a kFull Globalizer run exposes, flattened for exact comparison.
struct GlobalizerRun {
  std::vector<std::vector<TokenSpan>> mentions;
  std::vector<CandidateLabel> labels;
  std::vector<uint32_t> probability_bits;
  std::vector<std::vector<float>> embedding_sums;
  int process_calls = 0;
  int batched_calls = 0;
};

GlobalizerRun RunGlobalizer(MiniBertweetSystem* net, const Dataset& d,
                            bool resilient) {
  std::optional<ForceResilientPath> force;
  if (resilient) force.emplace();
  CountingSystem system(net);
  const PhraseEmbedder pe(net->embedding_dim(), 16);
  const EntityClassifier clf({.input_dim = 17, .alpha = 0.5f, .beta = 0.45f});
  GlobalizerOptions opt;
  opt.mode = GlobalizerOptions::Mode::kFull;
  Globalizer g(&system, &pe, &clf, opt);
  for (size_t b = 0; b < d.tweets.size(); b += 16) {
    const size_t e = std::min(d.tweets.size(), b + 16);
    EXPECT_TRUE(g.ProcessBatch({d.tweets.data() + b, e - b}).ok());
  }
  GlobalizerRun run;
  run.mentions = g.Finalize().value().mentions;
  const ShardedGlobalState& state = g.global_state();
  for (int gid = 0; gid < state.num_candidates(); ++gid) {
    const CandidateRecord& rec = state.at(gid);
    run.labels.push_back(state.Label(gid));
    uint32_t bits = 0;
    std::memcpy(&bits, &rec.entity_probability, sizeof(bits));
    run.probability_bits.push_back(bits);
    const Mat& sum = rec.embedding_sum;
    run.embedding_sums.emplace_back(sum.data(), sum.data() + sum.size());
  }
  run.process_calls = system.process_calls;
  run.batched_calls = system.batched_calls;
  return run;
}

// The Globalizer's happy path (ProcessBatched chunks, so the last encoder
// layer over first-piece rows) against its resilient path (one Process per
// tweet, the full forward) in kFull mode: mentions, and every candidate's
// label, entity probability and pooled embedding, bit for bit.
TEST(MiniBertweetBatchTest, PrunedGlobalizerMatchesPerTweetProcess) {
  if (kernels::Int8Enabled()) {
    GTEST_SKIP() << "the per-tweet reference is fp32; under EMD_BACKEND=int8 "
                    "the batched path quantizes on purpose";
  }
  TinyWorld& w = World();
  Dataset d = w.test;
  AnnotatedTweet truncated = d.tweets[1];
  truncated.tokens = RepeatTokens(truncated.tokens, 150);
  d.tweets.push_back(truncated);
  for (MiniBertweetSystem* net : {&w.net, &w.deep_net}) {
    const GlobalizerRun want = RunGlobalizer(net, d, /*resilient=*/true);
    const GlobalizerRun got = RunGlobalizer(net, d, /*resilient=*/false);
    EXPECT_EQ(want.batched_calls, 0) << "the reference runs Process per tweet";
    EXPECT_GT(got.batched_calls, 0);
    EXPECT_EQ(got.process_calls, 0) << "the happy path runs ProcessBatched";
    ASSERT_FALSE(want.labels.empty());
    ASSERT_EQ(want.mentions.size(), got.mentions.size());
    for (size_t i = 0; i < want.mentions.size(); ++i) {
      EXPECT_EQ(want.mentions[i], got.mentions[i]) << "tweet " << i;
    }
    EXPECT_EQ(want.labels, got.labels);
    EXPECT_EQ(want.probability_bits, got.probability_bits);
    ASSERT_EQ(want.embedding_sums.size(), got.embedding_sums.size());
    for (size_t c = 0; c < want.embedding_sums.size(); ++c) {
      const std::vector<float>& a = want.embedding_sums[c];
      const std::vector<float>& b = got.embedding_sums[c];
      ASSERT_EQ(a.size(), b.size()) << "candidate " << c;
      if (a.empty()) continue;
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(float) * a.size()))
          << "candidate " << c;
    }
  }
}

double BatchedF1(const Dataset& data, MiniBertweetSystem* net) {
  std::vector<std::vector<TokenSpan>> pred;
  ForwardArena arena;
  std::vector<const std::vector<Token>*> views;
  std::vector<LocalEmdResult> results;
  for (size_t lo = 0; lo < data.tweets.size(); lo += 16) {
    const size_t hi = std::min(data.tweets.size(), lo + 16);
    views.clear();
    for (size_t i = lo; i < hi; ++i) views.push_back(&data.tweets[i].tokens);
    net->ProcessBatched(views, &arena, &results);
    for (auto& r : results) pred.push_back(std::move(r.mentions));
  }
  return EvaluateMentions(data, pred).f1;
}

TEST(MiniBertweetBatchTest, Int8F1WithinHalfPointOfFp32) {
  TinyWorld& w = World();
  std::vector<std::vector<TokenSpan>> fp32_pred;
  for (const auto& tweet : w.test.tweets) {
    fp32_pred.push_back(w.net.Process(tweet.tokens).mentions);
  }
  const double fp32_f1 = EvaluateMentions(w.test, fp32_pred).f1;

  // fp32 batched must reproduce the serial F1 exactly; int8 batched must sit
  // within the 0.5-point budget of the acceptance gate. Under an ambient
  // EMD_BACKEND=int8 Train() already packed, so the fp32-batched leg is
  // skipped (serial Process stays fp32 either way).
  if (!kernels::Int8Enabled()) {
    const double fp32_batched_f1 = BatchedF1(w.test, &w.net);
    EXPECT_DOUBLE_EQ(fp32_f1, fp32_batched_f1);
  }

  w.net.PrepareQuantizedInference();
  const double int8_f1 = BatchedF1(w.test, &w.net);
  EXPECT_NEAR(int8_f1, fp32_f1, 0.005);
}

}  // namespace
}  // namespace emd
