#include "emd/mini_bertweet.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/kernels.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace emd {

MiniBertweetSystem::MiniBertweetSystem(MiniBertweetOptions options)
    : options_(options), model_rng_(options.seed) {}

void MiniBertweetSystem::BuildModel() {
  Rng* rng = &model_rng_;
  piece_emb_ = std::make_unique<Embedding>(subword_.vocab_size(), options_.d_model,
                                           rng, "bertweet.piece_emb");
  pos_emb_ = std::make_unique<Embedding>(options_.max_positions, options_.d_model,
                                         rng, "bertweet.pos_emb");
  layers_.clear();
  for (int l = 0; l < options_.num_layers; ++l) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        options_.d_model, options_.num_heads, options_.d_ff, options_.dropout, rng,
        "bertweet.enc" + std::to_string(l)));
  }
  ffnn_ = std::make_unique<Linear>(options_.d_model, options_.d_model, rng,
                                   "bertweet.ffnn");
  out_ = std::make_unique<Linear>(options_.d_model, kNumBioLabels, rng,
                                  "bertweet.out");
}

void MiniBertweetSystem::SegmentInto(const std::vector<Token>& tokens,
                                     SubwordTokenizer::Scratch* scratch,
                                     std::vector<int>* piece_ids,
                                     std::vector<int>* first_piece) const {
  const std::size_t limit = piece_ids->size() + options_.max_positions;
  for (const Token& tok : tokens) {
    if (piece_ids->size() >= limit) {
      // Truncated: the word maps to the last in-range piece (rare).
      first_piece->push_back(static_cast<int>(limit - 1));
      continue;
    }
    first_piece->push_back(static_cast<int>(piece_ids->size()));
    subword_.SplitInto(tok.text, scratch, piece_ids);
    if (piece_ids->size() > limit) piece_ids->resize(limit);
  }
}

Mat MiniBertweetSystem::ForwardWords(const std::vector<Token>& tokens, bool training) {
  SubwordTokenizer::Scratch scratch;
  std::vector<int> piece_ids;
  first_piece_cache_.clear();
  SegmentInto(tokens, &scratch, &piece_ids, &first_piece_cache_);
  num_pieces_cache_ = static_cast<int>(piece_ids.size());
  std::vector<int> positions(piece_ids.size());
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = static_cast<int>(i);

  Mat x = piece_emb_->Forward(piece_ids);
  x.Add(pos_emb_->Forward(positions));
  for (auto& layer : layers_) x = layer->Forward(x, training, &model_rng_);

  // Gather each word's first-piece row, then FFNN.
  Mat words(static_cast<int>(tokens.size()), options_.d_model);
  for (size_t w = 0; w < tokens.size(); ++w) {
    const int row = std::min(first_piece_cache_[w], x.rows() - 1);
    words.SetRow(static_cast<int>(w), x.row(row));
  }
  return ffnn_relu_.Forward(ffnn_->Forward(words));
}

void MiniBertweetSystem::BackwardWords(const Mat& dwords) {
  Mat dgather = ffnn_->Backward(ffnn_relu_.Backward(dwords));
  // Scatter word grads back onto their first-piece rows.
  Mat dx(num_pieces_cache_, options_.d_model);
  for (int w = 0; w < dgather.rows(); ++w) {
    const int row = std::min(first_piece_cache_[w], dx.rows() - 1);
    float* drow = dx.row(row);
    const float* grow = dgather.row(w);
    for (int j = 0; j < dx.cols(); ++j) drow[j] += grow[j];
  }
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    dx = (*it)->Backward(dx);
  }
  piece_emb_->Backward(dx);
  pos_emb_->Backward(dx);
}

void MiniBertweetSystem::Train(const Dataset& corpus,
                               const MiniBertweetTrainOptions& options) {
  subword_ = SubwordTokenizer::Build(corpus, options_.min_word_count);
  BuildModel();

  ParamSet params;
  piece_emb_->CollectParams(&params);
  pos_emb_->CollectParams(&params);
  for (auto& layer : layers_) layer->CollectParams(&params);
  ffnn_->CollectParams(&params);
  out_->CollectParams(&params);

  AdamOptimizer adam(options.learning_rate);
  Rng rng(options.seed);
  std::vector<size_t> order(corpus.tweets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double total_loss = 0;
    long count = 0;
    for (size_t idx : order) {
      const AnnotatedTweet& tweet = corpus.tweets[idx];
      if (tweet.tokens.empty()) continue;
      std::vector<TokenSpan> spans;
      for (const auto& g : tweet.gold) spans.push_back(g.span);
      const std::vector<int> gold = SpansToBio(spans, tweet.tokens.size());

      params.ZeroGrads();
      Mat words = ForwardWords(tweet.tokens, /*training=*/true);
      Mat logits = out_->Forward(words);
      // Per-token softmax cross-entropy (BERTweet fine-tuning uses softmax,
      // not a CRF).
      Mat probs = logits;
      SoftmaxRowsInPlace(&probs);
      Mat dlogits(logits.rows(), logits.cols());
      const float inv_t = 1.f / static_cast<float>(logits.rows());
      for (int t = 0; t < logits.rows(); ++t) {
        total_loss += -std::log(std::max(1e-8f, probs(t, gold[t])));
        for (int l = 0; l < kNumBioLabels; ++l) {
          dlogits(t, l) = (probs(t, l) - (l == gold[t] ? 1.f : 0.f)) * inv_t;
        }
      }
      ++count;

      BackwardWords(out_->Backward(dlogits));
      params.ClipGradNorm(options.clip_norm);
      adam.Step(&params);
    }
    EMD_LOG(Info) << "MiniBertweet epoch " << epoch << " loss/token-sum "
                  << total_loss / std::max<long>(1, count);
  }
  trained_ = true;
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
}

LocalEmdResult MiniBertweetSystem::Process(const std::vector<Token>& tokens) {
  LocalEmdResult result;
  if (tokens.empty()) return result;
  EMD_CHECK(trained_) << "MiniBertweetSystem used before Train()/Load()";
  Mat words = ForwardWords(tokens, /*training=*/false);
  Mat logits = out_->Forward(words);
  std::vector<int> labels(tokens.size());
  for (int t = 0; t < logits.rows(); ++t) {
    int best = 0;
    for (int l = 1; l < kNumBioLabels; ++l) {
      if (logits(t, l) > logits(t, best)) best = l;
    }
    labels[t] = best;
  }
  result.mentions = BioToSpans(labels);
  result.token_embeddings = std::move(words);
  return result;
}

void MiniBertweetSystem::ProcessBatched(
    const std::vector<const std::vector<Token>*>& tweets, ForwardArena* arena,
    std::vector<LocalEmdResult>* results) {
  results->clear();
  results->resize(tweets.size());
  if (tweets.empty()) return;
  EMD_CHECK(trained_) << "MiniBertweetSystem used before Train()/Load()";
  const int d = options_.d_model;

  // Arena layout: packs 0/1 = piece rows / word rows; ints 0/1 = word
  // gather list, packed piece ids; mats 0..4 = encoder ping-pong, word rows
  // of the last encoder layer, FFNN activations, logits. Encoder layers use
  // slots from kLayerBase up.
  RaggedPack* pieces = arena->pack(0);
  RaggedPack* word_pack = arena->pack(1);
  std::vector<int>* word_rows = arena->ints(0);
  std::vector<int>* piece_ids = arena->ints(1);
  Mat* x = arena->mat(0);
  Mat* y = arena->mat(1);
  Mat* words = arena->mat(2);
  Mat* ff_out = arena->mat(3);
  Mat* logits = arena->mat(4);
  QuantizedLinear::Scratch* qs = arena->qscratch(0);
  constexpr int kLayerBase = 6;

  pieces->Clear();
  word_pack->Clear();
  word_rows->clear();
  piece_ids->clear();

  // Pass 1: segment every tweet straight into the packed piece-id list and
  // the word -> packed-row gather table. Empty tweets contribute zero rows
  // (and finish with the same empty result Process returns for them).
  SubwordTokenizer::Scratch scratch;
  for (const std::vector<Token>* tokens : tweets) {
    const std::size_t base = piece_ids->size();
    SegmentInto(*tokens, &scratch, piece_ids, word_rows);
    pieces->Add(static_cast<int>(piece_ids->size() - base));
    word_pack->Add(static_cast<int>(tokens->size()));
  }

  const int total_rows = pieces->total_rows();
  if (total_rows == 0) return;  // every tweet was empty

  // Embedding add, fused over all rows: x[r] = piece_emb[id] + pos_emb[p]
  // with the position index resetting at each tweet boundary.
  x->Resize(total_rows, d);
  const kernels::KernelBackend& kern = kernels::Kernels();
  const Mat& piece_table = piece_emb_->table();
  const Mat& pos_table = pos_emb_->table();
  for (int s = 0; s < pieces->num_seqs(); ++s) {
    for (int r = pieces->begin(s); r < pieces->end(s); ++r) {
      kern.vadd(piece_table.row((*piece_ids)[r]),
                pos_table.row(r - pieces->begin(s)), x->row(r), d);
    }
  }

  // Encoder stack, fused over all rows (attention per tweet inside). The
  // last layer computes only the words' first-piece rows, gathered into the
  // idle ping-pong buffer: their K and V still come from every piece, and
  // each row's bits are those of the full layer (nn/planner.h).
  const std::size_t num_layers = layers_.size();
  for (std::size_t l = 0; l + 1 < num_layers; ++l) {
    layers_[l]->ApplyBatched(*x, *pieces, *x, *pieces, arena, kLayerBase, y);
    std::swap(x, y);
  }
  GatherRowsInto(*x, *word_rows, num_layers == 0 ? words : y);
  if (num_layers > 0) {
    layers_.back()->ApplyBatched(*x, *pieces, *y, *word_pack, arena,
                                 kLayerBase, words);
  }

  // FFNN + prediction layer, fused over all words.
  ffnn_->ApplyAuto(*words, qs, ff_out, /*relu=*/true);
  out_->ApplyAuto(*ff_out, qs, logits);

  // Per-tweet argmax -> BIO spans, and per-tweet embedding copies.
  for (std::size_t i = 0; i < tweets.size(); ++i) {
    const int wb = word_pack->begin(static_cast<int>(i));
    const int T = word_pack->len(static_cast<int>(i));
    if (T == 0) continue;
    LocalEmdResult& result = (*results)[i];
    std::vector<int> labels(T);
    for (int t = 0; t < T; ++t) {
      const float* lrow = logits->row(wb + t);
      int best = 0;
      for (int l = 1; l < kNumBioLabels; ++l) {
        if (lrow[l] > lrow[best]) best = l;
      }
      labels[t] = best;
    }
    result.mentions = BioToSpans(labels);
    result.token_embeddings.Resize(T, d);
    std::memcpy(result.token_embeddings.data(), ff_out->row(wb),
                sizeof(float) * std::size_t(T) * d);
  }
}

void MiniBertweetSystem::PrepareQuantizedInference() {
  EMD_CHECK(trained_);
  for (auto& layer : layers_) layer->PrepareQuantized();
  ffnn_->PrepareQuantized();
  out_->PrepareQuantized();
}

Status MiniBertweetSystem::Save(const std::string& path) const {
  auto* self = const_cast<MiniBertweetSystem*>(this);
  EMD_RETURN_IF_ERROR(WriteStringToFile(path + ".sv", subword_.Serialize()));
  ParamSet params;
  self->piece_emb_->CollectParams(&params);
  self->pos_emb_->CollectParams(&params);
  for (auto& layer : self->layers_) layer->CollectParams(&params);
  self->ffnn_->CollectParams(&params);
  self->out_->CollectParams(&params);
  return SaveParams(params, path);
}

Status MiniBertweetSystem::Load(const std::string& path) {
  std::string sv;
  EMD_ASSIGN_OR_RETURN(sv, ReadFileToString(path + ".sv"));
  EMD_ASSIGN_OR_RETURN(subword_, SubwordTokenizer::Deserialize(sv));
  BuildModel();
  ParamSet params;
  piece_emb_->CollectParams(&params);
  pos_emb_->CollectParams(&params);
  for (auto& layer : layers_) layer->CollectParams(&params);
  ffnn_->CollectParams(&params);
  out_->CollectParams(&params);
  EMD_RETURN_IF_ERROR(LoadParams(&params, path));
  trained_ = true;
  if (kernels::Int8Enabled()) PrepareQuantizedInference();
  return Status::OK();
}

}  // namespace emd
