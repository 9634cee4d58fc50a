#include "core/phrase_embedder.h"

#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace emd {
namespace {

/// Cosine similarity plus its gradients w.r.t. both inputs.
float CosineWithGrad(const Mat& a, const Mat& b, Mat* da, Mat* db) {
  const int n = a.cols();
  double dot = 0, na2 = 0, nb2 = 0;
  for (int j = 0; j < n; ++j) {
    dot += double(a(0, j)) * b(0, j);
    na2 += double(a(0, j)) * a(0, j);
    nb2 += double(b(0, j)) * b(0, j);
  }
  const double na = std::sqrt(na2) + 1e-8;
  const double nb = std::sqrt(nb2) + 1e-8;
  const double cos = dot / (na * nb);
  *da = Mat(1, n);
  *db = Mat(1, n);
  for (int j = 0; j < n; ++j) {
    (*da)(0, j) = static_cast<float>(b(0, j) / (na * nb) - cos * a(0, j) / na2);
    (*db)(0, j) = static_cast<float>(a(0, j) / (na * nb) - cos * b(0, j) / nb2);
  }
  return static_cast<float>(cos);
}

}  // namespace

PhraseEmbedder::PhraseEmbedder(int in_dim, int out_dim, uint64_t seed)
    : w_(in_dim, out_dim), b_(1, out_dim) {
  Rng rng(seed);
  w_.InitXavier(&rng);
}

Mat PhraseEmbedder::EmbedAll(const Mat& token_embeddings) const {
  EMD_CHECK_EQ(token_embeddings.cols(), w_.rows());
  EMD_CHECK_GT(token_embeddings.rows(), 0);
  return AddRowBroadcast(MatMul(MeanRows(token_embeddings), w_), b_);
}

Mat PhraseEmbedder::Embed(const Mat& token_embeddings, const TokenSpan& span) const {
  ForwardArena arena;
  Mat out;
  const Status status = TryEmbedSpans(token_embeddings, {&span, 1}, &arena, &out);
  EMD_CHECK(status.ok()) << status;
  return out;
}

Status PhraseEmbedder::TryEmbedSpans(const Mat& token_embeddings,
                                     std::span<const TokenSpan> spans,
                                     ForwardArena* arena, Mat* out) const {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.phrase_embedder.embed"));
  if (token_embeddings.cols() != in_dim()) {
    return Status::InvalidArgument("phrase embedder dim mismatch: got ",
                                   token_embeddings.cols(), ", want ", in_dim());
  }
  for (const TokenSpan& span : spans) {
    if (span.begin >= span.end ||
        span.end > static_cast<size_t>(token_embeddings.rows())) {
      return Status::InvalidArgument("phrase embedder span [", span.begin, ", ",
                                     span.end, ") out of range for ",
                                     token_embeddings.rows(), " tokens");
    }
  }
  Mat* pooled = arena->mat(kArenaSlot);
  pooled->Resize(static_cast<int>(spans.size()), in_dim());
  for (int i = 0; i < pooled->rows(); ++i) {
    const TokenSpan& span = spans[i];
    float* prow = pooled->row(i);
    for (int j = 0; j < pooled->cols(); ++j) prow[j] = 0.f;
    for (size_t t = span.begin; t < span.end; ++t) {
      const float* row = token_embeddings.row(static_cast<int>(t));
      for (int j = 0; j < pooled->cols(); ++j) prow[j] += row[j];
    }
    const float inv = 1.f / static_cast<float>(span.length());
    kernels::Kernels().vscale(inv, prow, pooled->cols());
  }
  if (q_.packed()) {
    q_.Apply(*pooled, arena->qscratch(kArenaSlot), out);
  } else {
    out->Resize(pooled->rows(), out_dim());
    kernels::Kernels().linear(pooled->data(), w_.data(), b_.data(),
                              out->data(), pooled->rows(), in_dim(),
                              out_dim(), /*relu=*/false);
  }
  return Status::OK();
}

void PhraseEmbedder::PrepareQuantizedInference() { q_.Pack(w_, b_); }

double PhraseEmbedder::Evaluate(LocalEmdSystem* system,
                                const std::vector<StsPair>& pairs) const {
  double total = 0;
  long count = 0;
  for (const auto& pair : pairs) {
    if (pair.a.empty() || pair.b.empty()) continue;
    const Mat ea = system->Process(pair.a).token_embeddings;
    const Mat eb = system->Process(pair.b).token_embeddings;
    if (ea.empty() || eb.empty()) continue;
    Mat da, db;
    const float cos = CosineWithGrad(EmbedAll(ea), EmbedAll(eb), &da, &db);
    const double diff = double(cos) - pair.score;
    total += diff * diff;
    ++count;
  }
  return count == 0 ? 0.0 : total / count;
}

PhraseEmbedderTrainReport PhraseEmbedder::Train(
    LocalEmdSystem* system, const StsData& sts,
    const PhraseEmbedderTrainOptions& options) {
  EMD_CHECK(system->is_deep()) << "phrase embedder needs token embeddings";

  // The deep system is frozen, so its token embeddings per sentence are
  // constants: precompute the mean-pooled vectors once.
  auto pool_pairs = [&](const std::vector<StsPair>& pairs,
                        std::vector<Mat>* pa, std::vector<Mat>* pb,
                        std::vector<float>* scores) {
    for (const auto& pair : pairs) {
      if (pair.a.empty() || pair.b.empty()) continue;
      const Mat ea = system->Process(pair.a).token_embeddings;
      const Mat eb = system->Process(pair.b).token_embeddings;
      if (ea.empty() || eb.empty()) continue;
      pa->push_back(MeanRows(ea));
      pb->push_back(MeanRows(eb));
      scores->push_back(pair.score);
    }
  };
  std::vector<Mat> train_a, train_b, val_a, val_b;
  std::vector<float> train_s, val_s;
  pool_pairs(sts.train, &train_a, &train_b, &train_s);
  pool_pairs(sts.validation, &val_a, &val_b, &val_s);
  EMD_CHECK(!train_a.empty());
  EMD_CHECK(!val_a.empty());

  Mat gw(w_.rows(), w_.cols()), gb(1, b_.cols());
  ParamSet params;
  params.Register("phrase.w", &w_, &gw);
  params.Register("phrase.b", &b_, &gb);
  AdamOptimizer adam(options.learning_rate);

  auto eval_val = [&]() {
    double total = 0;
    for (size_t i = 0; i < val_a.size(); ++i) {
      Mat da, db;
      const float cos =
          CosineWithGrad(AddRowBroadcast(MatMul(val_a[i], w_), b_),
                         AddRowBroadcast(MatMul(val_b[i], w_), b_), &da, &db);
      const double diff = double(cos) - val_s[i];
      total += diff * diff;
    }
    return total / val_a.size();
  };

  PhraseEmbedderTrainReport report;
  double best_val = eval_val();
  Mat best_w = w_, best_b = b_;
  int since_best = 0;
  Rng rng(options.seed);
  std::vector<size_t> order(train_a.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&order);
    size_t pos = 0;
    while (pos < order.size()) {
      params.ZeroGrads();
      const size_t end = std::min(pos + options.batch_size, order.size());
      for (size_t k = pos; k < end; ++k) {
        const size_t i = order[k];
        Mat la = AddRowBroadcast(MatMul(train_a[i], w_), b_);
        Mat lb = AddRowBroadcast(MatMul(train_b[i], w_), b_);
        Mat dla, dlb;
        const float cos = CosineWithGrad(la, lb, &dla, &dlb);
        const float dcos = 2.f * (cos - train_s[i]) / static_cast<float>(end - pos);
        dla.Scale(dcos);
        dlb.Scale(dcos);
        // Mirrored sub-networks: both branches update the same W/b.
        gw.Add(MatMulAT(train_a[i], dla));
        gw.Add(MatMulAT(train_b[i], dlb));
        gb.Add(dla);
        gb.Add(dlb);
      }
      adam.Step(&params);
      pos = end;
    }
    report.epochs_run = epoch + 1;
    const double val = eval_val();
    if (val < best_val - 1e-5) {
      best_val = val;
      best_w = w_;
      best_b = b_;
      since_best = 0;
    } else if (++since_best >= options.early_stop_patience) {
      break;
    }
  }
  w_ = best_w;
  b_ = best_b;
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
  report.best_validation_loss = best_val;
  return report;
}

Status PhraseEmbedder::Save(const std::string& path) const {
  Mat gw(w_.rows(), w_.cols()), gb(1, b_.cols());
  ParamSet params;
  params.Register("phrase.w", const_cast<Mat*>(&w_), &gw);
  params.Register("phrase.b", const_cast<Mat*>(&b_), &gb);
  return SaveParams(params, path);
}

Status PhraseEmbedder::Load(const std::string& path) {
  Mat gw(w_.rows(), w_.cols()), gb(1, b_.cols());
  ParamSet params;
  params.Register("phrase.w", &w_, &gw);
  params.Register("phrase.b", &b_, &gb);
  EMD_RETURN_IF_ERROR(LoadParams(&params, path));
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
  return Status::OK();
}

}  // namespace emd
