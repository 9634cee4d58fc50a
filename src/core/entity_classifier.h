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

  /// The last feature column: the candidate's length in tokens, scaled.
  static float LengthFeature(int num_tokens) {
    return static_cast<float>(num_tokens) / 4.f;
  }

  /// P(candidate is an entity): the training forward of one [1, input_dim]
  /// row, always fp32 (it caches activations, so it is not thread-safe).
  float Probability(const Mat& features) const;

  /// Thresholded verdict of Probability.
  CandidateLabel Classify(const Mat& features) const;

  /// Arena slots used by TryProbabilities (above the planner ranges of
  /// MiniBertweet, 0..16, and PhraseEmbedder, 24).
  static constexpr int kArenaSlot = 26;

  /// The inference path: scores every row of `features` [C, input_dim] in
  /// one call. Evaluates the "core.entity_classifier.classify" failpoint
  /// once, returns kInvalidArgument when features.cols() != input_dim(),
  /// else runs one fused forward (fp32, or int8 once quantized) with its
  /// activations in `arena` and resizes `*probabilities` to C. Every layer
  /// computes each output row from its own input row alone, so row i is
  /// bit-identical to a one-row call, and in fp32 to Probability(row i).
  Status TryProbabilities(const Mat& features, ForwardArena* arena,
                          std::vector<float>* probabilities) const;

  /// Packs int8 copies of the hidden and output layers; afterwards
  /// TryProbabilities runs its GEMMs through the quantized backend. Called
  /// by Train()/Load() when kernels::Int8Enabled().
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
