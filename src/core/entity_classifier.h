// EntityClassifier — the Global EMD verdict module of §V-C.
//
// A multi-layer feed-forward network (ReLU hidden layers, sigmoid output)
// over a candidate's global embedding concatenated with its length feature
// (the "+1" of Table II). The sigmoid probability is thresholded into three
// verdicts: alpha >= 0.55 entity, beta <= 0.40 non-entity, gamma in between
// ambiguous.

#ifndef EMD_CORE_ENTITY_CLASSIFIER_H_
#define EMD_CORE_ENTITY_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/candidate_base.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/matrix.h"
#include "nn/planner.h"
#include "util/result.h"
#include "util/status.h"

namespace emd {

/// One labelled training example: global embedding + length feature.
struct ClassifierExample {
  Mat features;  // [1, input_dim]
  bool is_entity = false;
};

struct EntityClassifierOptions {
  int input_dim = 7;   // global embedding dim + 1 (candidate length)
  int hidden_dim = 64;
  int num_hidden_layers = 2;
  /// Verdict thresholds. alpha follows the paper; beta was "empirically
  /// determined from variation in the Classifier's entity detection
  /// performance over different values" (SV-C) on this repository's
  /// synthetic world — the paper's own world calibrated to 0.40
  /// (bench_ablation_thresholds sweeps both).
  float alpha = 0.55f;  // >= alpha: entity
  float beta = 0.10f;   // <= beta: non-entity
  uint64_t seed = 47;
};

struct EntityClassifierTrainOptions {
  // Paper §VI: Adam lr 0.0015, batch 128, up to 1000 epochs, 80/20 split,
  // early stop after 20 epochs without validation improvement.
  float learning_rate = 1.5e-3f;
  int batch_size = 128;
  int max_epochs = 1000;
  int early_stop_patience = 20;
  double train_fraction = 0.8;
  uint64_t seed = 53;
};

struct EntityClassifierTrainReport {
  double best_validation_f1 = 0;
  double best_validation_loss = 0;
  int epochs_run = 0;
  int num_train = 0;
  int num_validation = 0;
};

class EntityClassifier {
 public:
  explicit EntityClassifier(EntityClassifierOptions options = {});

  /// Builds the feature row for a candidate: global embedding ++ length.
  static Mat MakeFeatures(const Mat& global_embedding, int num_tokens);

  /// Allocation-recycling MakeFeatures: writes into `*out` (resized).
  static void MakeFeaturesInto(const Mat& global_embedding, int num_tokens,
                               Mat* out);

  /// The last feature column: the candidate's length in tokens, scaled.
  static float LengthFeature(int num_tokens) {
    return static_cast<float>(num_tokens) / 4.f;
  }

  /// Reusable per-worker inference scratch: the two ping-pong activation
  /// buffers of the maskless forward pass.
  struct InferScratch {
    Mat a, b;
    QuantizedLinear::Scratch qs;
  };

  /// P(candidate is an entity).
  float Probability(const Mat& features) const;

  /// Allocation-recycling Probability: inference-only forward through
  /// Linear::Apply and a maskless ReLU kernel — no activation caching, so it
  /// is safe for concurrent workers sharing one trained classifier.
  float Probability(const Mat& features, InferScratch* scratch) const;

  /// Thresholded verdict.
  CandidateLabel Classify(const Mat& features) const;

  /// Probability plus thresholded verdict in one forward pass.
  struct Verdict {
    float probability = 0.f;
    CandidateLabel label = CandidateLabel::kUnlabeled;
  };

  /// Fault-isolating classification: validates the feature shape
  /// (kInvalidArgument instead of a fatal check) and honors the
  /// "core.entity_classifier.classify" failpoint. The Globalizer degrades
  /// kFull to mention-extraction for the remaining cycle when this fails.
  Result<Verdict> TryEvaluate(const Mat& features) const;

  /// TryEvaluate with caller-owned scratch (hot path in Globalizer cycles).
  Result<Verdict> TryEvaluate(const Mat& features, InferScratch* scratch) const;

  /// Arena slots used by ProbabilitiesBatched (above the planner ranges of
  /// MiniBertweet, 0..20, and PhraseEmbedder, 24).
  static constexpr int kArenaSlot = 26;

  /// Planner batched inference: one fused forward over [C, input_dim]
  /// feature rows, probabilities[i] bit-identical (fp32) to
  /// Probability(features row i) — every layer computes each output row from
  /// its own input row alone. No failpoint; callers pre-screen resilience.
  void ProbabilitiesBatched(const Mat& features, ForwardArena* arena,
                            std::vector<float>* probabilities) const;

  /// Packs int8 copies of the hidden and output layers; afterwards
  /// Probability/ProbabilitiesBatched run their GEMMs through the quantized
  /// backend. Called by Train()/Load() when kernels::Int8Enabled().
  void PrepareQuantizedInference();

  /// Trains on labelled examples with an internal 80/20 split.
  EntityClassifierTrainReport Train(const std::vector<ClassifierExample>& examples,
                                    const EntityClassifierTrainOptions& options = {});

  int input_dim() const { return options_.input_dim; }
  const EntityClassifierOptions& options() const { return options_; }

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  void BuildModel();
  /// Forward pass to the output probability; caches activations for training.
  float Forward(const Mat& features) const;

  EntityClassifierOptions options_;
  // Feature standardization fitted on the training set.
  Mat feat_mean_, feat_std_;
  mutable std::vector<std::unique_ptr<Linear>> hidden_;
  mutable std::vector<ReluLayer> relus_;
  mutable std::unique_ptr<Linear> out_;
};

}  // namespace emd

#endif  // EMD_CORE_ENTITY_CLASSIFIER_H_
