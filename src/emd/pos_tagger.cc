#include "emd/pos_tagger.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace {

// Deterministic token-kind fast path: these kinds map to one tag.
bool KindForcesTag(const Token& tok, PosTag* tag) {
  switch (tok.kind) {
    case TokenKind::kMention:
      *tag = PosTag::kMention;
      return true;
    case TokenKind::kHashtag:
      *tag = PosTag::kHashtag;
      return true;
    case TokenKind::kUrl:
      *tag = PosTag::kUrl;
      return true;
    case TokenKind::kEmoticon:
      *tag = PosTag::kEmoticon;
      return true;
    case TokenKind::kPunct:
      *tag = PosTag::kPunct;
      return true;
    case TokenKind::kNumber:
      *tag = PosTag::kNum;
      return true;
    default:
      return false;
  }
}

}  // namespace

int32_t PosTagger::InternKey(std::string_view key) {
  const int32_t k = keys_.Intern(key);
  if (k == static_cast<int32_t>(key_features_.size())) key_features_.emplace_back();
  return k;
}

template <typename Self, typename PredictFn>
void PosTagger::Decode(Self& self, const std::vector<Token>& tokens,
                       std::vector<PosTag>* tags, PredictFn&& predict) {
  constexpr bool kIntern = !std::is_const_v<Self>;
  using Slot = std::conditional_t<kIntern, int32_t*, const int32_t*>;
  // A lookup in Tag (kAbsent on a miss), find-or-append in Train. Slots are
  // taken only after a token's last key is interned: appending may move
  // key_features_.
  auto key = [&self](std::string_view text) {
    if constexpr (kIntern) {
      return self.InternKey(text);
    } else {
      return self.keys_.Find(text);
    }
  };
  auto features = [&self](int32_t k) -> auto& {
    static const KeyFeatures kAbsent{};
    if constexpr (kIntern) {
      return self.key_features_[k];
    } else {
      return k == InternIndex::kAbsent ? kAbsent : self.key_features_[k];
    }
  };
  tags->assign(tokens.size(), PosTag::kNoun);
  // Per-call scratch: Tag runs on several lanes at once. Each token is
  // folded and looked up once, when it becomes the next-word context; its
  // key then serves as its own w= and as the neighbours' prev_w=/next_w=.
  std::string cur, next, shape;
  int32_t prev_key = key("<s>");
  int32_t cur_key = InternIndex::kAbsent;
  if (!tokens.empty()) {
    ToLowerAsciiInto(tokens[0].text, &cur);
    cur_key = key(cur);
  }
  PosTag prev = PosTag::kPunct;
  Slot slots[kMaxFeatures];
  for (size_t t = 0; t < tokens.size(); ++t) {
    int32_t next_key;
    if (t + 1 < tokens.size()) {
      ToLowerAsciiInto(tokens[t + 1].text, &next);
      next_key = key(next);
    } else {
      next_key = key("</s>");
    }
    PosTag tag;
    if (!KindForcesTag(tokens[t], &tag)) {
      const std::string_view lower = cur;
      const std::string& text = tokens[t].text;
      WordShapeInto(text, &shape);
      const int32_t shape_key = key(shape);
      const int32_t suf2_key =
          lower.size() >= 2 ? key(lower.substr(lower.size() - 2)) : InternIndex::kAbsent;
      const int32_t suf3_key =
          lower.size() >= 3 ? key(lower.substr(lower.size() - 3)) : InternIndex::kAbsent;
      int n = 0;
      slots[n++] = &features(cur_key).w;
      slots[n++] = &features(shape_key).shape;
      if (lower.size() >= 2) slots[n++] = &features(suf2_key).suf2;
      if (lower.size() >= 3) slots[n++] = &features(suf3_key).suf3;
      slots[n++] = &self.cap_[IsUpperAscii(text.empty() ? 'a' : text[0]) ? 1 : 0];
      slots[n++] = &self.start_[t == 0 ? 1 : 0];
      slots[n++] = &self.prev_tag_[static_cast<int>(prev)];
      slots[n++] = &features(prev_key).prev_w;
      slots[n++] = &features(next_key).next_w;
      slots[n++] = &self.bias_;
      tag = predict(t, slots, n);
    }
    (*tags)[t] = tag;
    prev = tag;
    prev_key = cur_key;
    cur_key = next_key;
    cur.swap(next);
  }
}

int PosTagger::Predict(const int32_t* const* slots, int n) const {
  // Whole padded rows: the adds vectorize, and each tag's sum still runs
  // in slot order from zero.
  float scores[kRowStride] = {};
  for (int i = 0; i < n; ++i) {
    const int32_t id = *slots[i];
    if (id == kNoFeature) continue;
    const float* w = &weights_[static_cast<size_t>(id) * kRowStride];
    for (int k = 0; k < kRowStride; ++k) scores[k] += w[k];
  }
  int best = 0;
  for (int k = 1; k < kNumPosTags; ++k) {
    if (scores[k] > scores[best]) best = k;
  }
  return best;
}

void PosTagger::Train(const Dataset& corpus, const PosTaggerTrainOptions& options) {
  // Averaged perceptron with lazily-updated accumulators, laid out like
  // weights_. A feature gets its id at its first update.
  std::vector<float> totals(weights_.size(), 0.f);
  std::vector<long> stamps(weights_.size(), 0);
  long step = 0;
  Rng rng(options.seed);

  auto update = [&](int32_t* slot, int tag, float delta) {
    if (*slot == kNoFeature) {
      *slot = num_features();
      weights_.resize(weights_.size() + kRowStride, 0.f);
      totals.resize(weights_.size(), 0.f);
      stamps.resize(weights_.size(), 0);
    }
    const size_t i = static_cast<size_t>(*slot) * kRowStride + tag;
    totals[i] += static_cast<float>(step - stamps[i]) * weights_[i];
    stamps[i] = step;
    weights_[i] += delta;
  };

  std::vector<size_t> order(corpus.tweets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<PosTag> tags;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      const AnnotatedTweet& tweet = corpus.tweets[idx];
      EMD_CHECK_EQ(tweet.silver_pos.size(), tweet.tokens.size());
      Decode(*this, tweet.tokens, &tags, [&](size_t t, int32_t* const* slots, int n) {
        ++step;
        const int pred = Predict(slots, n);
        const int gold = static_cast<int>(tweet.silver_pos[t]);
        if (pred != gold) {
          for (int i = 0; i < n; ++i) {
            update(slots[i], gold, 1.f);
            update(slots[i], pred, -1.f);
          }
        }
        // Greedy decoding uses the model's own prediction as context.
        return static_cast<PosTag>(pred);
      });
    }
  }
  // Finalize averaging.
  for (size_t i = 0; i < weights_.size(); ++i) {
    totals[i] += static_cast<float>(step - stamps[i]) * weights_[i];
    weights_[i] = step > 0 ? totals[i] / static_cast<float>(step) : weights_[i];
  }
  // Drop the keys decoding interned that never got an update.
  InternIndex keys;
  std::vector<KeyFeatures> key_features;
  for (int32_t k = 0; k < keys_.size(); ++k) {
    if (key_features_[k] == KeyFeatures{}) continue;
    keys.Intern(keys_.key(k));
    key_features.push_back(key_features_[k]);
  }
  keys_ = std::move(keys);
  key_features_ = std::move(key_features);
}

std::vector<PosTag> PosTagger::Tag(const std::vector<Token>& tokens) const {
  std::vector<PosTag> tags;
  Decode(*this, tokens, &tags, [this](size_t, const int32_t* const* slots, int n) {
    return static_cast<PosTag>(Predict(slots, n));
  });
  return tags;
}

double PosTagger::Accuracy(const Dataset& corpus) const {
  long correct = 0, total = 0;
  for (const auto& tweet : corpus.tweets) {
    const auto tags = Tag(tweet.tokens);
    for (size_t t = 0; t < tags.size(); ++t) {
      ++total;
      if (tags[t] == tweet.silver_pos[t]) ++correct;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

int32_t* PosTagger::SlotOf(std::string_view name) {
  if (name == "bias") return &bias_;
  const size_t eq = name.find('=');
  if (eq == std::string_view::npos) return nullptr;
  const std::string_view tmpl = name.substr(0, eq);
  const std::string_view key = name.substr(eq + 1);
  if (tmpl == "w") return &key_features_[InternKey(key)].w;
  if (tmpl == "prev_w") return &key_features_[InternKey(key)].prev_w;
  if (tmpl == "next_w") return &key_features_[InternKey(key)].next_w;
  if (tmpl == "shape") return &key_features_[InternKey(key)].shape;
  if (tmpl == "suf2") return &key_features_[InternKey(key)].suf2;
  if (tmpl == "suf3") return &key_features_[InternKey(key)].suf3;
  if (tmpl == "cap" || tmpl == "start") {
    auto& ids = tmpl == "cap" ? cap_ : start_;
    if (key == "0") return &ids[0];
    if (key == "1") return &ids[1];
    return nullptr;
  }
  if (tmpl == "prev_tag") {
    for (int k = 0; k < kNumPosTags; ++k) {
      if (key == PosTagName(static_cast<PosTag>(k))) return &prev_tag_[k];
    }
  }
  return nullptr;
}

Status PosTagger::Save(const std::string& path) const {
  // Name every feature id (template prefix, key), then write the features
  // in id order.
  std::vector<std::pair<std::string_view, std::string_view>> names(
      static_cast<size_t>(num_features()));
  auto name = [&](int32_t id, std::string_view tmpl, std::string_view key) {
    if (id != kNoFeature) names[id] = {tmpl, key};
  };
  for (int32_t k = 0; k < keys_.size(); ++k) {
    const KeyFeatures& f = key_features_[k];
    const std::string_view key = keys_.key(k);
    name(f.w, "w=", key);
    name(f.prev_w, "prev_w=", key);
    name(f.next_w, "next_w=", key);
    name(f.shape, "shape=", key);
    name(f.suf2, "suf2=", key);
    name(f.suf3, "suf3=", key);
  }
  for (int b = 0; b < 2; ++b) {
    name(cap_[b], "cap=", b ? "1" : "0");
    name(start_[b], "start=", b ? "1" : "0");
  }
  for (int k = 0; k < kNumPosTags; ++k) {
    name(prev_tag_[k], "prev_tag=", PosTagName(static_cast<PosTag>(k)));
  }
  name(bias_, "bias", "");

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: ", path);
  out << names.size() << "\n";
  for (size_t id = 0; id < names.size(); ++id) {
    out << names[id].first << names[id].second;
    for (int k = 0; k < kNumPosTags; ++k) out << ' ' << weights_[id * kRowStride + k];
    out << "\n";
  }
  if (!out) return Status::IoError("write failed: ", path);
  return Status::OK();
}

Status PosTagger::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: ", path);
  std::error_code ec;
  const uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat: ", path);

  std::string line;
  size_t n = 0;
  if (!std::getline(in, line)) return Status::Corruption("empty pos tagger model: ", path);
  {
    const char* end = line.data() + line.size();
    auto [p, err] = std::from_chars(line.data(), end, n);
    if (err != std::errc() || p != end) {
      return Status::Corruption("unparsable pos tagger model header: ", path);
    }
  }
  // A weight line holds at least a one-byte name and kNumPosTags " <digit>"
  // fields plus its newline; a count the file cannot hold is rejected before
  // anything is sized by it.
  constexpr uintmax_t kMinLineBytes = 2 + 2 * kNumPosTags;
  if (n > file_bytes / kMinLineBytes) {
    return Status::Corruption("pos tagger model count ", n, " exceeds file size: ", path);
  }

  PosTagger loaded;
  loaded.weights_.reserve(n * kRowStride);
  for (size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption("truncated pos tagger model: ", path);
    }
    const size_t space = line.find(' ');
    int32_t* slot = space == std::string::npos
                        ? nullptr
                        : loaded.SlotOf(std::string_view(line).substr(0, space));
    if (slot == nullptr || *slot != kNoFeature) {
      return Status::Corruption("unknown or repeated pos tagger feature on line ", i + 2,
                                ": ", path);
    }
    *slot = loaded.num_features();
    const char* p = line.data() + space;
    const char* end = line.data() + line.size();
    for (int k = 0; k < kNumPosTags; ++k) {
      float v = 0.f;
      std::from_chars_result r{};
      if (p == end || *p != ' ' ||
          (r = std::from_chars(p + 1, end, v)).ec != std::errc()) {
        return Status::Corruption("malformed pos tagger weight line ", i + 2, ": ", path);
      }
      p = r.ptr;
      loaded.weights_.push_back(v);
    }
    if (p != end) {
      return Status::Corruption("malformed pos tagger weight line ", i + 2, ": ", path);
    }
    loaded.weights_.resize(loaded.weights_.size() + kRowStride - kNumPosTags, 0.f);
  }
  in >> std::ws;
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::Corruption("trailing data after pos tagger model: ", path);
  }
  *this = std::move(loaded);
  return Status::OK();
}

}  // namespace emd
