#include "emd/twitter_nlp.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <span>
#include <string_view>

#include "nn/activations.h"
#include "nn/params.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {

// ---------------------------------------------------------------- CapClassifier

std::array<float, 3> CapClassifier::SentenceFeatures(const std::vector<Token>& tokens) {
  int words = 0, caps = 0, allcaps = 0;
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kWord) continue;
    ++words;
    if (!t.text.empty() && IsUpperAscii(t.text[0])) ++caps;
    if (IsAllUpper(t.text)) ++allcaps;
  }
  if (words == 0) return {0.f, 0.f, 0.f};
  return {static_cast<float>(caps) / words, static_cast<float>(allcaps) / words,
          words > 0 && !tokens.empty() ? 1.f : 0.f};
}

void CapClassifier::Train(const Dataset& corpus, int epochs) {
  // Silver label: capitalization is informative when the sentence is neither
  // ALL-CAPS nor caps-free — i.e. capitalized words carry signal.
  const float lr = 0.5f;
  for (int e = 0; e < epochs; ++e) {
    for (const auto& tweet : corpus.tweets) {
      const auto f = SentenceFeatures(tweet.tokens);
      const bool label = f[0] > 0.05f && f[1] < 0.6f;
      float z = w_[3];
      for (int i = 0; i < 3; ++i) z += w_[i] * f[i];
      const float p = SigmoidScalar(z);
      const float g = p - (label ? 1.f : 0.f);
      for (int i = 0; i < 3; ++i) w_[i] -= lr * g * f[i];
      w_[3] -= lr * g;
    }
  }
}

float CapClassifier::Informative(const std::vector<Token>& tokens) const {
  const auto f = SentenceFeatures(tokens);
  float z = w_[3];
  for (int i = 0; i < 3; ++i) z += w_[i] * f[i];
  return SigmoidScalar(z);
}

// ---------------------------------------------------------------- TwitterNlpSystem

TwitterNlpSystem::TwitterNlpSystem(const PosTagger* tagger, const Gazetteer* gazetteer)
    : tagger_(tagger), gazetteer_(gazetteer) {
  EMD_CHECK(tagger != nullptr);
  EMD_CHECK(gazetteer != nullptr);
  Rng rng(11);
  crf_ = std::make_unique<LinearChainCrf>(kNumBioLabels, &rng, "tseg.crf");
}

namespace {

// Brown-cluster-like bucket: a stable hash of the lowercased word into 64
// coarse clusters (distributional clustering stand-in).
int BrownBucket(const std::string& lower) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : lower) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % 64);
}

}  // namespace

std::vector<std::vector<int>> TwitterNlpSystem::ExtractFeatures(
    const std::vector<Token>& tokens, bool add_features) {
  const std::vector<PosTag> pos = tagger_->Tag(tokens);
  const float capinfo = tcap_.Informative(tokens);
  const char* capinfo_bucket = capinfo > 0.5f ? "y" : "n";

  auto feature_id = [&](const std::string& feat) -> int {
    auto it = feature_ids_.find(feat);
    if (it != feature_ids_.end()) return it->second;
    if (!add_features) return -1;
    const int id = static_cast<int>(feature_ids_.size());
    feature_ids_.emplace(feat, id);
    weights_.push_back({});
    return id;
  };

  // Gazetteer phrase matching: mark tokens covered by a listed phrase of
  // length 1..3 starting at any position (dictionary features of T-SEG).
  std::vector<int> gz_state(tokens.size(), 0);  // 0 none, 1 begin, 2 inside
  for (size_t t = 0; t < tokens.size(); ++t) {
    std::string phrase;
    for (size_t len = 1; len <= 3 && t + len <= tokens.size(); ++len) {
      if (len > 1) phrase += ' ';
      phrase += ToLowerAscii(tokens[t + len - 1].text);
      if (gazetteer_->ContainsAny(phrase)) {
        if (gz_state[t] == 0) gz_state[t] = 1;
        for (size_t i = t + 1; i < t + len; ++i) gz_state[i] = 2;
      }
    }
  }

  std::vector<std::vector<int>> out(tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::string lower = ToLowerAscii(tokens[t].text);
    std::vector<std::string> feats;
    feats.reserve(20);
    feats.push_back("w=" + lower);
    feats.push_back("shape=" + WordShape(tokens[t].text));
    if (lower.size() >= 2) feats.push_back("suf2=" + lower.substr(lower.size() - 2));
    if (lower.size() >= 3) feats.push_back("suf3=" + lower.substr(lower.size() - 3));
    feats.push_back(std::string("kind=") + TokenKindName(tokens[t].kind));
    const bool cap = !tokens[t].text.empty() && IsUpperAscii(tokens[t].text[0]);
    // Capitalization features are gated by T-CAP: in uninformative sentences
    // they fire under a different feature name, letting the model discount them.
    feats.push_back(std::string("cap=") + (cap ? "1" : "0") + "|ci=" + capinfo_bucket);
    if (IsAllUpper(tokens[t].text)) feats.push_back(std::string("allcaps|ci=") + capinfo_bucket);
    feats.push_back(std::string("start=") + (t == 0 ? "1" : "0"));
    feats.push_back(std::string("pos=") + PosTagName(pos[t]));
    if (t > 0) {
      feats.push_back("prev_w=" + ToLowerAscii(tokens[t - 1].text));
      feats.push_back(std::string("prev_pos=") + PosTagName(pos[t - 1]));
    } else {
      feats.push_back("prev_w=<s>");
    }
    if (t + 1 < tokens.size()) {
      feats.push_back("next_w=" + ToLowerAscii(tokens[t + 1].text));
      feats.push_back(std::string("next_pos=") + PosTagName(pos[t + 1]));
    } else {
      feats.push_back("next_w=</s>");
    }
    if (gz_state[t] == 1) feats.push_back("gz_b");
    if (gz_state[t] == 2) feats.push_back("gz_i");
    if (gazetteer_->TokenInAnyName(lower)) feats.push_back("gz_tok");
    feats.push_back("brown=" + std::to_string(BrownBucket(lower)));
    feats.push_back("bias");

    for (const auto& f : feats) {
      const int id = feature_id(f);
      if (id >= 0) out[t].push_back(id);
    }
  }
  return out;
}

Mat TwitterNlpSystem::Emissions(const std::vector<std::vector<int>>& features) const {
  Mat e(static_cast<int>(features.size()), kNumBioLabels);
  for (size_t t = 0; t < features.size(); ++t) {
    for (int fid : features[t]) {
      for (int l = 0; l < kNumBioLabels; ++l) e(static_cast<int>(t), l) += weights_[fid][l];
    }
  }
  return e;
}

void TwitterNlpSystem::Train(const Dataset& corpus,
                             const TwitterNlpTrainOptions& options) {
  tcap_.Train(corpus);

  // Adagrad accumulators for the sparse emission weights.
  std::vector<std::array<float, kNumBioLabels>> grad_sq;
  ParamSet crf_params;
  crf_->CollectParams(&crf_params);
  std::vector<Mat> crf_grad_sq;
  for (const auto& p : crf_params.params()) {
    crf_grad_sq.emplace_back(p.value->rows(), p.value->cols());
  }

  Rng rng(options.seed);
  std::vector<size_t> order(corpus.tweets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double total_loss = 0;
    for (size_t idx : order) {
      const AnnotatedTweet& tweet = corpus.tweets[idx];
      if (tweet.tokens.empty()) continue;
      const auto features = ExtractFeatures(tweet.tokens, /*add_features=*/true);
      grad_sq.resize(weights_.size());
      std::vector<TokenSpan> spans;
      for (const auto& g : tweet.gold) spans.push_back(g.span);
      const std::vector<int> gold = SpansToBio(spans, tweet.tokens.size());

      Mat emissions = Emissions(features);
      Mat demissions;
      crf_params.ZeroGrads();
      total_loss += crf_->NegLogLikelihood(emissions, gold, &demissions);

      // Adagrad update on sparse feature weights.
      for (size_t t = 0; t < features.size(); ++t) {
        for (int fid : features[t]) {
          for (int l = 0; l < kNumBioLabels; ++l) {
            const float g = demissions(static_cast<int>(t), l) +
                            options.l2 * weights_[fid][l];
            grad_sq[fid][l] += g * g;
            weights_[fid][l] -=
                options.learning_rate * g / (std::sqrt(grad_sq[fid][l]) + 1e-6f);
          }
        }
      }
      // Adagrad update on CRF transition parameters.
      for (size_t pi = 0; pi < crf_params.params().size(); ++pi) {
        Mat* w = crf_params.params()[pi].value;
        Mat* g = crf_params.params()[pi].grad;
        Mat& gs = crf_grad_sq[pi];
        for (size_t j = 0; j < w->size(); ++j) {
          const float gj = g->data()[j];
          gs.data()[j] += gj * gj;
          w->data()[j] -=
              options.learning_rate * gj / (std::sqrt(gs.data()[j]) + 1e-6f);
        }
      }
    }
    EMD_LOG(Info) << "TwitterNLP epoch " << epoch << " loss/tweet "
                  << total_loss / std::max<size_t>(1, corpus.tweets.size());
  }
}

LocalEmdResult TwitterNlpSystem::Process(const std::vector<Token>& tokens) {
  LocalEmdResult result;
  if (tokens.empty()) return result;
  const auto features = ExtractFeatures(tokens, /*add_features=*/false);
  const Mat emissions = Emissions(features);
  result.mentions = BioToSpans(crf_->Viterbi(emissions));
  return result;
}

Status TwitterNlpSystem::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: ", path);
  const auto capw = tcap_.weights();
  out << capw[0] << ' ' << capw[1] << ' ' << capw[2] << ' ' << capw[3] << "\n";
  // Features in id order, so a model saves to the same bytes however its
  // hash map happens to iterate.
  std::vector<const std::string*> names(feature_ids_.size());
  for (const auto& [feat, id] : feature_ids_) names[id] = &feat;
  out << names.size() << "\n";
  for (size_t id = 0; id < names.size(); ++id) {
    out << *names[id] << ' ' << id;
    for (int l = 0; l < kNumBioLabels; ++l) out << ' ' << weights_[id][l];
    out << "\n";
  }
  const Mat& trans = crf_->transitions();
  for (int i = 0; i < trans.rows(); ++i) {
    for (int j = 0; j < trans.cols(); ++j) out << trans(i, j) << ' ';
  }
  out << "\n";
  // Start/end vectors are serialized through the ParamSet walk.
  ParamSet params;
  const_cast<TwitterNlpSystem*>(this)->crf_->CollectParams(&params);
  for (const auto& p : params.params()) {
    for (size_t i = 0; i < p.value->size(); ++i) out << p.value->data()[i] << ' ';
    out << "\n";
  }
  if (!out) return Status::IoError("write failed: ", path);
  return Status::OK();
}

namespace {

// Parses the space-separated floats of `line` into `out`, which must be
// filled exactly. Save ends the matrix lines with a space; that one trailing
// separator is allowed.
bool ParseFloatLine(std::string_view line, std::span<float> out) {
  const char* p = line.data();
  const char* end = p + line.size();
  for (float& v : out) {
    const auto r = std::from_chars(p, end, v);
    if (r.ec != std::errc()) return false;
    p = r.ptr;
    if (p != end && *p++ != ' ') return false;
  }
  return p == end;
}

}  // namespace

Status TwitterNlpSystem::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: ", path);
  std::error_code ec;
  const uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat: ", path);

  // Everything is parsed into locals first; the system changes only once the
  // whole file has been read, so a rejected file leaves it untouched.
  std::string line;
  std::array<float, 4> capw;
  if (!std::getline(in, line) || !ParseFloatLine(line, capw)) {
    return Status::Corruption("malformed TwitterNLP cap weights: ", path);
  }
  size_t n = 0;
  {
    if (!std::getline(in, line)) return Status::Corruption("truncated model: ", path);
    const char* end = line.data() + line.size();
    auto [p, err] = std::from_chars(line.data(), end, n);
    if (err != std::errc() || p != end) {
      return Status::Corruption("unparsable TwitterNLP feature count: ", path);
    }
  }
  // A feature line holds at least a one-byte name, a one-digit id and
  // kNumBioLabels " <digit>" fields plus its newline; a count the file cannot
  // hold is rejected before anything is sized by it.
  constexpr uintmax_t kMinLineBytes = 4 + 2 * kNumBioLabels;
  if (n > file_bytes / kMinLineBytes) {
    return Status::Corruption("TwitterNLP feature count ", n, " exceeds file size: ", path);
  }

  std::unordered_map<std::string, int> feature_ids;
  feature_ids.reserve(n);
  std::vector<std::array<float, kNumBioLabels>> weights(n);
  std::vector<uint8_t> seen(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated model: ", path);
    const std::string_view view(line);
    const size_t name_end = view.find(' ');
    if (name_end == 0 || name_end == std::string_view::npos) {
      return Status::Corruption("malformed TwitterNLP feature line ", i + 3, ": ", path);
    }
    const char* end = view.data() + view.size();
    size_t id = 0;
    std::array<float, kNumBioLabels> w;
    const auto r = std::from_chars(view.data() + name_end + 1, end, id);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != ' ' ||
        !ParseFloatLine(std::string_view(r.ptr + 1, end - r.ptr - 1), w)) {
      return Status::Corruption("malformed TwitterNLP feature line ", i + 3, ": ", path);
    }
    if (id >= n) {
      return Status::Corruption("TwitterNLP feature id ", id, " outside [0, ", n,
                                ") on line ", i + 3, ": ", path);
    }
    if (seen[id] != 0 ||
        !feature_ids.emplace(std::string(view.substr(0, name_end)), static_cast<int>(id))
             .second) {
      return Status::Corruption("repeated TwitterNLP feature or id on line ", i + 3, ": ", path);
    }
    seen[id] = 1;
    weights[id] = w;
  }

  // The transition matrix, then one line per CRF parameter.
  Mat trans(crf_->transitions().rows(), crf_->transitions().cols());
  if (!std::getline(in, line) || !ParseFloatLine(line, {trans.data(), trans.size()})) {
    return Status::Corruption("malformed TwitterNLP transitions: ", path);
  }
  ParamSet params;
  crf_->CollectParams(&params);
  std::vector<std::vector<float>> values;
  for (const auto& p : params.params()) {
    values.emplace_back(p.value->size());
    if (!std::getline(in, line) || !ParseFloatLine(line, values.back())) {
      return Status::Corruption("malformed TwitterNLP CRF parameter ", p.name, ": ", path);
    }
  }
  in >> std::ws;
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::Corruption("trailing data after TwitterNLP model: ", path);
  }

  tcap_.set_weights(capw);
  feature_ids_ = std::move(feature_ids);
  weights_ = std::move(weights);
  crf_->transitions() = std::move(trans);
  for (size_t k = 0; k < values.size(); ++k) {
    std::copy(values[k].begin(), values[k].end(), params.params()[k].value->data());
  }
  return Status::OK();
}

}  // namespace emd
