#include "core/entity_classifier.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace emd {

EntityClassifier::EntityClassifier(EntityClassifierOptions options)
    : options_(options),
      feat_mean_(1, options.input_dim),
      feat_std_(1, options.input_dim) {
  feat_std_.Fill(1.f);
  BuildModel();
}

void EntityClassifier::BuildModel() {
  Rng rng(options_.seed);
  hidden_.clear();
  relus_.assign(options_.num_hidden_layers, ReluLayer());
  int in = options_.input_dim;
  for (int l = 0; l < options_.num_hidden_layers; ++l) {
    hidden_.push_back(std::make_unique<Linear>(in, options_.hidden_dim, &rng,
                                               "clf.h" + std::to_string(l)));
    in = options_.hidden_dim;
  }
  out_ = std::make_unique<Linear>(in, 1, &rng, "clf.out");
}

Mat EntityClassifier::MakeFeatures(const Mat& global_embedding, int num_tokens) {
  EMD_CHECK_EQ(global_embedding.rows(), 1);
  Mat f(1, global_embedding.cols() + 1);
  for (int j = 0; j < global_embedding.cols(); ++j) {
    f(0, j) = global_embedding(0, j);
  }
  f(0, global_embedding.cols()) = LengthFeature(num_tokens);
  return f;
}

float EntityClassifier::Forward(const Mat& features) const {
  EMD_CHECK_EQ(features.cols(), options_.input_dim);
  // Standardize.
  Mat x = features;
  for (int j = 0; j < x.cols(); ++j) {
    x(0, j) = (x(0, j) - feat_mean_(0, j)) / feat_std_(0, j);
  }
  for (size_t l = 0; l < hidden_.size(); ++l) {
    x = relus_[l].Forward(hidden_[l]->Forward(x));
  }
  const Mat logit = out_->Forward(x);
  return SigmoidScalar(logit(0, 0));
}

float EntityClassifier::Probability(const Mat& features) const {
  return Forward(features);
}

Status EntityClassifier::TryProbabilities(
    const Mat& features, ForwardArena* arena,
    std::vector<float>* probabilities) const {
  EMD_RETURN_IF_ERROR(EMD_FAILPOINT("core.entity_classifier.classify"));
  if (features.cols() != options_.input_dim) {
    return Status::InvalidArgument("classifier feature width ", features.cols(),
                                   ", want ", options_.input_dim);
  }
  const int rows = features.rows();
  Mat* x = arena->mat(kArenaSlot);
  Mat* y = arena->mat(kArenaSlot + 1);
  QuantizedLinear::Scratch* qs = arena->qscratch(kArenaSlot);
  x->Resize(rows, features.cols());
  for (int i = 0; i < rows; ++i) {
    const float* frow = features.row(i);
    float* xrow = x->row(i);
    for (int j = 0; j < features.cols(); ++j) {
      xrow[j] = (frow[j] - feat_mean_(0, j)) / feat_std_(0, j);
    }
  }
  for (size_t l = 0; l < hidden_.size(); ++l) {
    hidden_[l]->ApplyAuto(*x, qs, y, /*relu=*/true);
    std::swap(x, y);
  }
  out_->ApplyAuto(*x, qs, y);
  probabilities->resize(rows);
  for (int i = 0; i < rows; ++i) {
    (*probabilities)[i] = SigmoidScalar((*y)(i, 0));
  }
  return Status::OK();
}

void EntityClassifier::PrepareQuantizedInference() {
  for (auto& h : hidden_) h->PrepareQuantized();
  out_->PrepareQuantized();
}

CandidateLabel EntityClassifier::Classify(const Mat& features) const {
  const float p = Probability(features);
  if (p >= options_.alpha) return CandidateLabel::kEntity;
  if (p <= options_.beta) return CandidateLabel::kNonEntity;
  return CandidateLabel::kAmbiguous;
}

EntityClassifierTrainReport EntityClassifier::Train(
    const std::vector<ClassifierExample>& examples,
    const EntityClassifierTrainOptions& options) {
  EMD_CHECK(!examples.empty());
  Rng rng(options.seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  const size_t n_train =
      std::max<size_t>(1, static_cast<size_t>(order.size() * options.train_fraction));
  std::vector<size_t> train_idx(order.begin(), order.begin() + n_train);
  std::vector<size_t> val_idx(order.begin() + n_train, order.end());
  if (val_idx.empty()) val_idx = train_idx;

  // Fit standardization on the training split.
  feat_mean_.Zero();
  feat_std_.Fill(0.f);
  for (size_t i : train_idx) feat_mean_.Add(examples[i].features);
  feat_mean_.Scale(1.f / static_cast<float>(train_idx.size()));
  for (size_t i : train_idx) {
    for (int j = 0; j < feat_std_.cols(); ++j) {
      const float d = examples[i].features(0, j) - feat_mean_(0, j);
      feat_std_(0, j) += d * d;
    }
  }
  for (int j = 0; j < feat_std_.cols(); ++j) {
    feat_std_(0, j) =
        std::sqrt(feat_std_(0, j) / static_cast<float>(train_idx.size())) + 1e-4f;
  }

  ParamSet params;
  for (auto& h : hidden_) h->CollectParams(&params);
  out_->CollectParams(&params);
  AdamOptimizer adam(options.learning_rate);

  auto eval = [&](const std::vector<size_t>& idx, double* loss_out) {
    long tp = 0, fp = 0, fn = 0;
    double loss = 0;
    for (size_t i : idx) {
      const float p = Forward(examples[i].features);
      const bool pred = p >= 0.5f;
      const bool gold = examples[i].is_entity;
      if (pred && gold) ++tp;
      if (pred && !gold) ++fp;
      if (!pred && gold) ++fn;
      const double pc = std::clamp<double>(p, 1e-7, 1 - 1e-7);
      loss += gold ? -std::log(pc) : -std::log(1 - pc);
    }
    *loss_out = loss / std::max<size_t>(1, idx.size());
    const double prec = tp + fp == 0 ? 0 : double(tp) / (tp + fp);
    const double rec = tp + fn == 0 ? 0 : double(tp) / (tp + fn);
    return prec + rec == 0 ? 0.0 : 2 * prec * rec / (prec + rec);
  };

  EntityClassifierTrainReport report;
  report.num_train = static_cast<int>(train_idx.size());
  report.num_validation = static_cast<int>(val_idx.size());
  double best_loss;
  double best_f1 = eval(val_idx, &best_loss);
  // Snapshot best weights.
  std::vector<Mat> best_weights;
  auto snapshot = [&]() {
    best_weights.clear();
    for (const auto& p : params.params()) best_weights.push_back(*p.value);
  };
  auto restore = [&]() {
    for (size_t i = 0; i < params.params().size(); ++i) {
      *params.params()[i].value = best_weights[i];
    }
  };
  snapshot();

  int since_best = 0;
  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    size_t pos = 0;
    while (pos < train_idx.size()) {
      const size_t end = std::min(pos + options.batch_size, train_idx.size());
      params.ZeroGrads();
      for (size_t k = pos; k < end; ++k) {
        const auto& ex = examples[train_idx[k]];
        const float p = Forward(ex.features);
        // d(BCE)/d(logit) = p - y, averaged over the batch.
        Mat dlogit(1, 1);
        dlogit(0, 0) = (p - (ex.is_entity ? 1.f : 0.f)) /
                       static_cast<float>(end - pos);
        Mat dx = out_->Backward(dlogit);
        for (int l = static_cast<int>(hidden_.size()) - 1; l >= 0; --l) {
          dx = hidden_[l]->Backward(relus_[l].Backward(dx));
        }
      }
      adam.Step(&params);
      pos = end;
    }
    report.epochs_run = epoch + 1;
    double val_loss;
    const double val_f1 = eval(val_idx, &val_loss);
    if (val_loss < best_loss - 1e-5) {
      best_loss = val_loss;
      best_f1 = val_f1;
      snapshot();
      since_best = 0;
    } else if (++since_best >= options.early_stop_patience) {
      break;
    }
  }
  restore();
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
  report.best_validation_f1 = best_f1;
  report.best_validation_loss = best_loss;
  return report;
}

Status EntityClassifier::Save(const std::string& path) const {
  auto* self = const_cast<EntityClassifier*>(this);
  ParamSet params;
  Mat gmean(1, feat_mean_.cols()), gstd(1, feat_std_.cols());
  params.Register("clf.feat_mean", &self->feat_mean_, &gmean);
  params.Register("clf.feat_std", &self->feat_std_, &gstd);
  for (auto& h : self->hidden_) h->CollectParams(&params);
  self->out_->CollectParams(&params);
  return SaveParams(params, path);
}

Status EntityClassifier::Load(const std::string& path) {
  ParamSet params;
  Mat gmean(1, feat_mean_.cols()), gstd(1, feat_std_.cols());
  params.Register("clf.feat_mean", &feat_mean_, &gmean);
  params.Register("clf.feat_std", &feat_std_, &gstd);
  for (auto& h : hidden_) h->CollectParams(&params);
  out_->CollectParams(&params);
  EMD_RETURN_IF_ERROR(LoadParams(&params, path));
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
  return Status::OK();
}

}  // namespace emd
