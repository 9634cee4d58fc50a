// Microbenchmarks (google-benchmark) for the Global EMD hot paths: CTrie
// insert/lookup, candidate mention extraction, incremental embedding pooling,
// tokenization, and the syntactic embedder. These quantify the paper's "small
// additional computational overhead" claim at the operation level.
//
// The custom main additionally hand-times the blocked GEMM against the
// pre-optimization naive kernel at 256^3, the MiniBertweet forward slots
// (fused kernels against the compositions they replaced), and writes every
// result as emd-bench-v1 JSON (BENCH_micro.json) via bench::BenchReporter.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "bench_common.h"
#include "core/candidate_base.h"
#include "core/ctrie.h"
#include "core/global_state.h"
#include "core/syntactic_embedder.h"
#include "obs/metrics.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"
#include "stream/datasets.h"
#include "stream/entity_catalog.h"
#include "stream/tweet_generator.h"
#include "text/symbol_table.h"
#include "text/tweet_tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

const EntityCatalog& BenchCatalog() {
  static const EntityCatalog* catalog = [] {
    EntityCatalogOptions opt;
    opt.entities_per_topic = 400;
    opt.seed = 99;
    return new EntityCatalog(EntityCatalog::Build(opt));
  }();
  return *catalog;
}

std::vector<AnnotatedTweet> BenchTweets(int n) {
  TweetGeneratorOptions opt;
  opt.seed = 7;
  TweetGenerator gen(&BenchCatalog(), Topic::kHealth, opt);
  std::vector<AnnotatedTweet> tweets;
  tweets.reserve(n);
  for (int i = 0; i < n; ++i) tweets.push_back(gen.Next());
  return tweets;
}

void BM_CTrieInsert(benchmark::State& state) {
  const auto tweets = BenchTweets(512);
  for (auto _ : state) {
    SymbolTable symbols;
    CTrie trie(&symbols);
    for (const auto& t : tweets) {
      for (const auto& g : t.gold) trie.Insert(t.tokens, g.span);
    }
    benchmark::DoNotOptimize(trie.num_candidates());
  }
}
BENCHMARK(BM_CTrieInsert);

void BM_CTrieLookup(benchmark::State& state) {
  const auto tweets = BenchTweets(512);
  SymbolTable symbols;
  CTrie trie(&symbols);
  for (const auto& t : tweets) {
    for (const auto& g : t.gold) trie.Insert(t.tokens, g.span);
  }
  std::string fold_scratch;
  size_t i = 0;
  for (auto _ : state) {
    const auto& t = tweets[i++ % tweets.size()];
    int node = trie.root();
    for (const auto& tok : t.tokens) {
      node = trie.StepSymbol(
          node, symbols.Lookup(ToLowerAsciiView(tok.text, &fold_scratch)));
      if (node == CTrie::kNoNode) node = trie.root();
    }
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_CTrieLookup);

void BM_MentionExtraction(benchmark::State& state) {
  const auto tweets = BenchTweets(static_cast<int>(state.range(0)));
  ShardedGlobalState global;
  for (const auto& t : tweets) {
    for (const auto& g : t.gold) global.Insert(t.tokens, g.span);
  }
  ShardedGlobalState::ScanScratch scratch;
  std::vector<ExtractedMention> mentions;
  for (auto _ : state) {
    size_t found = 0;
    for (const auto& t : tweets) {
      global.ExtractInto(t.tokens, &scratch, &mentions);
      found += mentions.size();
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * tweets.size());
}
BENCHMARK(BM_MentionExtraction)->Arg(128)->Arg(512)->Arg(2048);

void BM_IncrementalPooling(benchmark::State& state) {
  Rng rng(3);
  std::vector<Mat> embeddings;
  for (int i = 0; i < 64; ++i) {
    Mat e(1, static_cast<int>(state.range(0)));
    e.InitGaussian(&rng, 1.f);
    embeddings.push_back(std::move(e));
  }
  for (auto _ : state) {
    CandidateBase base;
    base.GetOrCreate(0);
    for (const auto& e : embeddings) base.AddMention(0, 0, {e.data(), e.size()});
    benchmark::DoNotOptimize(base.at(0).GlobalEmbedding());
  }
}
BENCHMARK(BM_IncrementalPooling)->Arg(6)->Arg(100)->Arg(300);

void BM_TweetTokenize(benchmark::State& state) {
  const auto tweets = BenchTweets(256);
  TweetTokenizer tokenizer;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(tweets[i++ % tweets.size()].text));
  }
}
BENCHMARK(BM_TweetTokenize);

void BM_SyntacticEmbedding(benchmark::State& state) {
  const auto tweets = BenchTweets(256);
  float row[kNumSyntacticCategories];
  size_t i = 0;
  for (auto _ : state) {
    const auto& t = tweets[i++ % tweets.size()];
    if (t.gold.empty()) continue;
    SyntacticEmbedding(t.tokens, t.gold[0].span, row);
    benchmark::DoNotOptimize(row);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SyntacticEmbedding);

// The pre-blocking MatMul (naive i-k-j with the branchy zero-skip), kept as
// the baseline the blocked kernel is measured against.
Mat NaiveMatMul(const Mat& a, const Mat& b) {
  Mat c(a.rows(), b.cols());
  c.Zero();
  const int n = b.cols();
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const float av = a(i, k);
      if (av == 0.f) continue;
      for (int j = 0; j < n; ++j) c(i, j) += av * b(k, j);
    }
  }
  return c;
}

/// Collects every google-benchmark run into a BenchReporter while still
/// printing the familiar console table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time * 1e9 / run.iterations
              : 0;
      double throughput = 0;
      std::string unit;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        throughput = it->second;
        unit = "items/sec";
      }
      out_->Add(run.benchmark_name(), static_cast<long>(run.iterations),
                ns_per_op, throughput, unit);
    }
  }

 private:
  bench::BenchReporter* out_;
};

void RunGemmComparison(bench::BenchReporter* reporter, int n, int reps) {
  Rng rng(5);
  Mat a(n, n), b(n, n), blocked(n, n), dispatched(n, n);
  a.InitGaussian(&rng, 1.f);
  b.InitGaussian(&rng, 1.f);
  const double flops = 2.0 * n * n * n;
  const kernels::KernelBackend& scalar = kernels::ScalarKernels();
  const kernels::KernelBackend& active = kernels::Kernels();

  double naive_best = 1e100, blocked_best = 1e100, dispatch_best = 1e100;
  Mat naive;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    naive = NaiveMatMul(a, b);
    naive_best = std::min(
        naive_best,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    start = std::chrono::steady_clock::now();
    scalar.matmul(a.data(), b.data(), blocked.data(), n, n, n);
    blocked_best = std::min(
        blocked_best,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    start = std::chrono::steady_clock::now();
    active.matmul(a.data(), b.data(), dispatched.data(), n, n, n);
    dispatch_best = std::min(
        dispatch_best,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  // Same ascending-k accumulation order per output element => bit-identical.
  if (std::memcmp(naive.data(), blocked.data(),
                  sizeof(float) * n * n) != 0) {
    std::fprintf(stderr, "FAIL: blocked GEMM diverges from naive at %d^3\n", n);
    std::exit(1);
  }
  // The vectorized kernel reassociates the k-reduction (FMA lanes), so check
  // it against the exact result to a float-accumulation tolerance instead.
  float max_abs = 0.f, max_diff = 0.f;
  for (size_t i = 0; i < naive.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(naive.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(naive.data()[i] - dispatched.data()[i]));
  }
  if (max_diff > 1e-4f * std::max(1.f, max_abs)) {
    std::fprintf(stderr, "FAIL: %s GEMM diverges from naive at %d^3 (%g)\n",
                 active.name, n, max_diff);
    std::exit(1);
  }
  std::printf(
      "gemm %d^3: naive %.2f GFLOP/s, blocked %.2f GFLOP/s (x%.2f), "
      "dispatch[%s] %.2f GFLOP/s (x%.2f vs blocked)\n",
      n, flops / naive_best / 1e9, flops / blocked_best / 1e9,
      naive_best / blocked_best, active.name, flops / dispatch_best / 1e9,
      blocked_best / dispatch_best);
  reporter->Add("gemm_naive/" + std::to_string(n), reps, naive_best * 1e9,
                flops / naive_best / 1e9, "GFLOP/s");
  reporter->Add("gemm_blocked/" + std::to_string(n), reps, blocked_best * 1e9,
                flops / blocked_best / 1e9, "GFLOP/s");
  reporter->Add("gemm_dispatch/" + std::to_string(n), reps, dispatch_best * 1e9,
                flops / dispatch_best / 1e9, "GFLOP/s");
}

// int8 quantized GEMM vs the dispatched fp32 GEMM at the layer shapes the
// pipeline actually issues (attention projections, FFN up/down, classifier
// hidden), plus one large square as a roofline reference. Weights are
// pre-quantized outside the timed loop (that is what the models do at
// load time); activations are quantized per call (dynamic quantization is
// part of the int8 inference cost and is timed).
void RunQuantComparison(bench::BenchReporter* reporter, int reps) {
  struct Shape {
    const char* tag;
    int m, k, n;
  };
  const Shape shapes[] = {
      {"attn_proj", 32, 64, 64},    // [tokens, d_model] x [d_model, d_model]
      {"ffn_up", 32, 64, 128},      // [tokens, d_model] x [d_model, d_ff]
      {"ffn_down", 32, 128, 64},    // [tokens, d_ff] x [d_ff, d_model]
      {"classifier", 64, 44, 32},   // [candidates, feat] x [feat, hidden]
      {"square", 256, 256, 256},
  };
  const kernels::KernelBackend& fp32 = kernels::Kernels();
  const kernels::KernelBackend& scalar = kernels::ScalarKernels();
  const kernels::QuantizedBackend& q8 = kernels::Int8Kernels();
  Rng rng(11);
  for (const Shape& s : shapes) {
    Mat a(s.m, s.k), b(s.k, s.n), c32(s.m, s.n), c8(s.m, s.n);
    a.InitGaussian(&rng, 1.f);
    b.InitGaussian(&rng, 0.2f);
    // Pre-quantize weights per output channel: wt is b transposed, [n, k].
    std::vector<std::int8_t> wt8(static_cast<size_t>(s.n) * s.k);
    std::vector<float> w_scales(s.n);
    {
      Mat bt(s.n, s.k);
      for (int kk = 0; kk < s.k; ++kk)
        for (int j = 0; j < s.n; ++j) bt(j, kk) = b(kk, j);
      q8.quantize_rows(bt.data(), s.n, s.k, wt8.data(), w_scales.data());
    }
    std::vector<std::int8_t> a8(static_cast<size_t>(s.m) * s.k);
    std::vector<float> a_scales(s.m);
    const double flops = 2.0 * s.m * s.k * s.n;
    double fp32_best = 1e100, scalar_best = 1e100, int8_best = 1e100;
    for (int r = 0; r < reps; ++r) {
      auto start = std::chrono::steady_clock::now();
      fp32.matmul(a.data(), b.data(), c32.data(), s.m, s.k, s.n);
      fp32_best = std::min(
          fp32_best, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
      start = std::chrono::steady_clock::now();
      scalar.matmul(a.data(), b.data(), c32.data(), s.m, s.k, s.n);
      scalar_best = std::min(
          scalar_best, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      start = std::chrono::steady_clock::now();
      q8.quantize_rows(a.data(), s.m, s.k, a8.data(), a_scales.data());
      q8.qgemm(a8.data(), a_scales.data(), wt8.data(), w_scales.data(),
               nullptr, c8.data(), s.m, s.k, s.n);
      int8_best = std::min(
          int8_best, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
    // Accuracy check: symmetric 8-bit quantization of both operands bounds
    // each output by ~(maxabs_a * maxabs_w_row / 127) per accumulated term.
    float max_abs = 0.f, max_diff = 0.f;
    for (size_t i = 0; i < c32.size(); ++i) {
      max_abs = std::max(max_abs, std::fabs(c32.data()[i]));
      max_diff =
          std::max(max_diff, std::fabs(c32.data()[i] - c8.data()[i]));
    }
    if (max_diff > 0.05f * std::max(1.f, max_abs)) {
      std::fprintf(stderr, "FAIL: int8 GEMM diverges at %s (%g vs %g)\n",
                   s.tag, max_diff, max_abs);
      std::exit(1);
    }
    std::printf(
        "qgemm %s (%dx%dx%d): fp32[%s] %.2f GFLOP/s, fp32[scalar] %.2f "
        "GFLOP/s, int8[%s] %.2f GFLOP/s (x%.2f vs dispatch, x%.2f vs "
        "scalar), max err %.4f\n",
        s.tag, s.m, s.k, s.n, fp32.name, flops / fp32_best / 1e9,
        flops / scalar_best / 1e9, q8.name, flops / int8_best / 1e9,
        fp32_best / int8_best, scalar_best / int8_best, max_diff);
    const std::string dims = std::string(s.tag) + "/" + std::to_string(s.m) +
                             "x" + std::to_string(s.k) + "x" +
                             std::to_string(s.n);
    reporter->Add("qgemm_fp32/" + dims, reps, fp32_best * 1e9,
                  flops / fp32_best / 1e9, "GFLOP/s");
    reporter->Add("qgemm_fp32_scalar/" + dims, reps, scalar_best * 1e9,
                  flops / scalar_best / 1e9, "GFLOP/s");
    reporter->Add("qgemm_int8/" + dims, reps, int8_best * 1e9,
                  flops / int8_best / 1e9, "GFLOP/s");
  }
  reporter->Add(std::string("quant_backend/") + q8.name, 1, 0, 0, "");
}

// Seconds of the fastest of `reps` calls of `fn`.
template <typename Fn>
double BestSeconds(int reps, Fn fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

// The MiniBertweet inference slots at the shapes one deep_local batch of 256
// tweets issues (about 5120 piece rows, 4096 words, 1-3 spans per
// phrase-embedder call), each timed through the fused kernel and through the
// kernel composition it replaced: matmul, axpy(1, bias) per row and a ReLU
// pass; and per (tweet, head) a copy of the head slices, matmul_bt, vscale,
// softmax_rows, matmul and a copy back. The two must agree bit for bit;
// any difference exits nonzero. Rows: "<slot>/<shape>" (fused) and
// "<slot>_composed/<shape>".
void RunForwardSlots(bench::BenchReporter* reporter, int reps) {
  const kernels::KernelBackend& kern = kernels::Kernels();
  Rng rng(17);
  auto fail_unless_equal = [](const Mat& a, const Mat& b, const std::string& what) {
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) != 0) {
      std::fprintf(stderr, "FAIL: fused %s differs from its composition\n",
                   what.c_str());
      std::exit(1);
    }
  };
  struct LinearShape {
    int m, k, n;
    bool relu;
  };
  const LinearShape shapes[] = {
      {5120, 64, 64, false},   // Q/K/V/output projections
      {5120, 64, 128, true},   // FFN 1 + ReLU
      {5120, 128, 64, false},  // FFN 2
      {4096, 64, 3, false},    // word head (3 BIO labels)
      {2, 64, 300, false},     // phrase embedder, 2 spans
  };
  for (const LinearShape& s : shapes) {
    Mat a(s.m, s.k), w(s.k, s.n), bias(1, s.n), fused(s.m, s.n),
        composed(s.m, s.n);
    a.InitGaussian(&rng, 1.f);
    w.InitGaussian(&rng, 0.2f);
    bias.InitGaussian(&rng, 0.5f);
    // Small shapes repeat so one timing spans well over a microsecond.
    const int calls = std::max(1, 200000 / (s.m * s.n));
    const double fused_s = BestSeconds(reps, [&] {
      for (int c = 0; c < calls; ++c) {
        kern.linear(a.data(), w.data(), bias.data(), fused.data(), s.m, s.k,
                    s.n, s.relu);
      }
    });
    const double composed_s = BestSeconds(reps, [&] {
      for (int c = 0; c < calls; ++c) {
        kern.matmul(a.data(), w.data(), composed.data(), s.m, s.k, s.n);
        for (int i = 0; i < s.m; ++i) {
          kern.axpy(1.f, bias.data(), composed.row(i), s.n);
        }
        if (s.relu) {
          kern.relu(composed.data(), composed.data(), nullptr, s.m * s.n);
        }
      }
    });
    const std::string slot = s.relu ? "linear_relu" : "linear";
    const std::string dims = std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n);
    fail_unless_equal(fused, composed, slot + "/" + dims);
    const double flops = 2.0 * s.m * s.k * s.n * calls;
    std::printf("%s/%s: fused %.1f us, composed %.1f us (x%.2f)\n",
                slot.c_str(), dims.c_str(), fused_s / calls * 1e6,
                composed_s / calls * 1e6, composed_s / fused_s);
    reporter->Add(slot + "/" + dims, reps, fused_s / calls * 1e9,
                  flops / fused_s / 1e9, "GFLOP/s");
    reporter->Add(slot + "_composed/" + dims, reps, composed_s / calls * 1e9,
                  flops / composed_s / 1e9, "GFLOP/s");
  }

  // Attention: 256 tweets of 4 to 40 pieces, 4 heads of width 16.
  constexpr int kTweets = 256, kHeads = 4, kHead = 16, kModel = kHeads * kHead;
  std::vector<int> begin(kTweets + 1, 0);
  for (int t = 0; t < kTweets; ++t) {
    begin[t + 1] = begin[t] + 4 + static_cast<int>(rng.NextU64(37));
  }
  const int rows = begin[kTweets];
  Mat q(rows, kModel), k(rows, kModel), v(rows, kModel);
  q.InitGaussian(&rng, 1.f);
  k.InitGaussian(&rng, 1.f);
  v.InitGaussian(&rng, 1.f);
  Mat fused(rows, kModel), composed(rows, kModel), scores, qh, kh, vh, ctx;
  const float scale = 1.f / std::sqrt(static_cast<float>(kHead));
  const double fused_s = BestSeconds(reps, [&] {
    for (int t = 0; t < kTweets; ++t) {
      const int b = begin[t], len = begin[t + 1] - begin[t];
      scores.Resize(len, len);
      for (int h = 0; h < kHeads; ++h) {
        kern.attend_head(q.row(b) + h * kHead, k.row(b) + h * kHead,
                         v.row(b) + h * kHead, kModel, len, kHead, scale,
                         scores.data(), fused.row(b) + h * kHead);
      }
    }
  });
  const size_t head_bytes = sizeof(float) * kHead;
  const double composed_s = BestSeconds(reps, [&] {
    for (int t = 0; t < kTweets; ++t) {
      const int b = begin[t], len = begin[t + 1] - begin[t];
      for (int h = 0; h < kHeads; ++h) {
        const int off = h * kHead;
        qh.Resize(len, kHead);
        kh.Resize(len, kHead);
        vh.Resize(len, kHead);
        for (int r = 0; r < len; ++r) {
          std::memcpy(qh.row(r), q.row(b + r) + off, head_bytes);
          std::memcpy(kh.row(r), k.row(b + r) + off, head_bytes);
          std::memcpy(vh.row(r), v.row(b + r) + off, head_bytes);
        }
        scores.Resize(len, len);
        kern.matmul_bt(qh.data(), kh.data(), scores.data(), len, kHead, len);
        kern.vscale(scale, scores.data(), len * len);
        kern.softmax_rows(scores.data(), len, len);
        ctx.Resize(len, kHead);
        kern.matmul(scores.data(), vh.data(), ctx.data(), len, len, kHead);
        for (int r = 0; r < len; ++r) {
          std::memcpy(composed.row(b + r) + off, ctx.row(r), head_bytes);
        }
      }
    }
  });
  const std::string dims = std::to_string(kTweets) + "x" +
                           std::to_string(kHeads) + "x" + std::to_string(kHead);
  fail_unless_equal(fused, composed, "attention/" + dims);
  std::printf("attention/%s (%d rows): fused %.1f us, composed %.1f us (x%.2f)\n",
              dims.c_str(), rows, fused_s * 1e6, composed_s * 1e6,
              composed_s / fused_s);
  reporter->Add("attention/" + dims, reps, fused_s * 1e9,
                kTweets / fused_s, "tweets/sec");
  reporter->Add("attention_composed/" + dims, reps, composed_s * 1e9,
                kTweets / composed_s, "tweets/sec");
}

// Naive §V-A oracle: at each start position the longest window whose folded
// text is a live candidate key wins; no trie, no symbols, no shards.
std::vector<ExtractedMention> ReferenceScan(
    const std::unordered_map<std::string, int>& live_keys, size_t max_len,
    const std::vector<Token>& tokens) {
  std::vector<ExtractedMention> out;
  size_t i = 0;
  while (i < tokens.size()) {
    size_t best_end = 0;
    int best = CTrie::kNoCandidate;
    std::string key;
    for (size_t j = i; j < tokens.size() && j < i + max_len; ++j) {
      if (j > i) key += ' ';
      key += ToLowerAscii(tokens[j].text);
      auto it = live_keys.find(key);
      if (it != live_keys.end()) {
        best_end = j + 1;
        best = it->second;
      }
    }
    if (best != CTrie::kNoCandidate) {
      out.push_back({{i, best_end}, best});
      i = best_end;
    } else {
      ++i;
    }
  }
  return out;
}

// Candidate registration and re-scan over a sharded state (DESIGN §12): ns
// per Insert of a new and of a repeated phrase, then tokens/sec and trie
// steps/token of the symbol-keyed matcher. Every benchmarked tweet's mentions
// are checked against ReferenceScan; any divergence exits nonzero (the
// --scan-only CI smoke).
void RunScanBench(bench::BenchReporter* reporter, int num_candidates,
                  int shards, int reps) {
  Rng rng(23);
  // Word pool: enough distinct words that 1-3 word phrases stay mostly
  // unique, small enough that tweets revisit candidate vocabulary often.
  const int vocab_size = std::max(1000, num_candidates / 3);
  std::vector<std::string> vocab(vocab_size);
  for (int i = 0; i < vocab_size; ++i) {
    std::string w;
    for (int v = i;; v = v / 26 - 1) {
      w += static_cast<char>('a' + v % 26);
      if (v < 26) break;
    }
    vocab[i] = w + std::to_string(i % 97);
  }

  // Insert dedups, so draw phrases until the target count registers.
  ShardedGlobalState state(shards);
  std::vector<std::vector<std::string>> phrases;
  std::unordered_map<std::string, int> live_keys;
  while (state.num_candidates() < num_candidates) {
    std::vector<std::string> phrase(static_cast<size_t>(rng.NextInt(1, 3)));
    for (auto& w : phrase) w = vocab[rng.NextU64(vocab.size())];
    const int before = state.num_candidates();
    const int gid = state.Insert(phrase);
    if (state.num_candidates() > before) {
      live_keys.emplace(state.CandidateKey(gid), gid);
      phrases.push_back(std::move(phrase));
    }
  }

  // Registration (§IV): ns per ShardedGlobalState::Insert, first into a
  // fresh state (every call creates a candidate), then of the same phrases
  // again (every call finds one).
  const double n = static_cast<double>(phrases.size());
  double best_new = 1e100, best_repeat = 1e100;
  for (int r = 0; r < reps; ++r) {
    ShardedGlobalState fresh(shards);
    auto start = std::chrono::steady_clock::now();
    for (const auto& phrase : phrases) fresh.Insert(phrase);
    auto mid = std::chrono::steady_clock::now();
    for (const auto& phrase : phrases) fresh.Insert(phrase);
    const auto end = std::chrono::steady_clock::now();
    if (fresh.num_candidates() != num_candidates) {
      std::fprintf(stderr, "FAIL: registration built %d candidates, want %d\n",
                   fresh.num_candidates(), num_candidates);
      std::exit(1);
    }
    best_new = std::min(best_new, std::chrono::duration<double>(mid - start).count());
    best_repeat = std::min(best_repeat, std::chrono::duration<double>(end - mid).count());
  }

  // Tweets: injected candidate phrases (some with uppercase surface forms)
  // between in-vocabulary noise and out-of-vocabulary tokens.
  const size_t num_tweets = 512;
  const size_t tweet_len = 24;
  std::vector<std::vector<Token>> tweets(num_tweets);
  size_t total_tokens = 0;
  for (auto& tweet : tweets) {
    while (tweet.size() < tweet_len) {
      const double dice = rng.NextDouble();
      if (dice < 0.25) {
        const auto& phrase = phrases[rng.NextU64(phrases.size())];
        const bool capitalize = rng.NextBernoulli(0.5);
        for (const auto& w : phrase) {
          tweet.push_back({capitalize ? ToUpperAscii(w) : w});
        }
      } else if (dice < 0.85) {
        tweet.push_back({vocab[rng.NextU64(vocab.size())]});
      } else {
        tweet.push_back({"oov" + std::to_string(rng.NextU64(1u << 20))});
      }
    }
    tweet.resize(tweet_len);
    total_tokens += tweet.size();
  }

  obs::Counter* steps = obs::Metrics().GetCounter("emd_extract_steps_total");
  ShardedGlobalState::ScanScratch scratch;
  std::vector<std::vector<ExtractedMention>> outs(tweets.size());
  double best = 1e100;
  uint64_t steps_before = 0, steps_after = 0;
  for (int r = 0; r < reps; ++r) {
    steps_before = steps->value();
    const auto start = std::chrono::steady_clock::now();
    for (size_t t = 0; t < tweets.size(); ++t) {
      state.ExtractInto(tweets[t], &scratch, &outs[t]);
    }
    steps_after = steps->value();
    best = std::min(
        best,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  const double steps_per_token =
      static_cast<double>(steps_after - steps_before) / total_tokens;

  // Reference gate: the scan must reproduce the naive longest match.
  const size_t max_len = static_cast<size_t>(state.max_candidate_length());
  size_t mentions = 0;
  for (size_t t = 0; t < tweets.size(); ++t) {
    if (!(outs[t] == ReferenceScan(live_keys, max_len, tweets[t]))) {
      std::fprintf(stderr, "FAIL: scan diverges from the reference on tweet "
                   "%zu\n", t);
      std::exit(1);
    }
    mentions += outs[t].size();
  }

  const double tps = total_tokens / best;
  std::printf("scan %dk cand / %d shards (%zu mentions): %.2fM tok/s "
              "(%.2f steps/tok), reference-checked\n",
              num_candidates / 1000, shards, mentions, tps / 1e6,
              steps_per_token);

  std::printf("register %dk cand / %d shards: %.0f ns per new phrase, %.0f ns "
              "per repeat\n",
              num_candidates / 1000, shards, best_new * 1e9 / n,
              best_repeat * 1e9 / n);

  const std::string dims =
      std::to_string(num_candidates) + "x" + std::to_string(shards);
  reporter->Add("scan/" + dims, reps, best * 1e9, tps, "tokens/sec");
  reporter->Add("register/" + dims, reps, best_new * 1e9 / n, n / best_new,
                "inserts/sec");
  reporter->Add("register_repeat/" + dims, reps, best_repeat * 1e9 / n,
                n / best_repeat, "inserts/sec");
  reporter->Add("scan_steps_per_token/" + dims, reps, 0, steps_per_token,
                "steps/token");
}

}  // namespace
}  // namespace emd

int main(int argc, char** argv) {
  // --gemm-only / --quant-only / --scan-only / --forward-only (ours, not
  // google-benchmark's) skip the microbenchmark sweep so CI's smokes stay
  // fast; strip them before Initialize.
  bool gemm_only = false;
  bool quant_only = false;
  bool scan_only = false;
  bool forward_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gemm-only") == 0) {
      gemm_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--quant-only") == 0) {
      quant_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--scan-only") == 0) {
      scan_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--forward-only") == 0) {
      forward_only = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  emd::bench::BenchReporter reporter;
  emd::CapturingReporter console(&reporter);
  const bool full = !gemm_only && !quant_only && !scan_only && !forward_only;
  if (full) benchmark::RunSpecifiedBenchmarks(&console);
  if (scan_only) {
    // CI scan smoke at the reference point: 100k candidates / 13 shards.
    emd::RunScanBench(&reporter, 100000, 13, 5);
  } else if (full) {
    emd::RunScanBench(&reporter, 20000, 13, 3);
  }
  if (full || gemm_only) emd::RunGemmComparison(&reporter, 256, 3);
  if (full || quant_only) emd::RunQuantComparison(&reporter, 5);
  if (full || forward_only) emd::RunForwardSlots(&reporter, 7);
  // Machine-readable record of the resolved dispatch selection.
  reporter.Add(std::string("kernel_backend/") + emd::kernels::BackendName(), 1,
               0, 0, "");
  if (!reporter.WriteJson("BENCH_micro.json")) return 1;
  std::printf("wrote BENCH_micro.json\n");
  return 0;
}
