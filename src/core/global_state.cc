#include "core/global_state.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace emd {

namespace {

// Scan-instrumentation counters (docs/OBSERVABILITY.md). Cached pointers:
// registration is mutex-guarded, updates are relaxed atomics, so flushing
// per-Extract totals from worker threads is TSan-clean.
obs::Counter& ExtractStepsCounter() {
  static obs::Counter* c = obs::Metrics().GetCounter(
      "emd_extract_steps_total",
      "Trie edge lookups performed by the candidate re-scan");
  return *c;
}

obs::Counter& ExtractRootProbesCounter() {
  static obs::Counter* c = obs::Metrics().GetCounter(
      "emd_extract_root_probes_total",
      "Window-start first-token dispatch lookups by the candidate re-scan "
      "(one per start, independent of the shard count)");
  return *c;
}

}  // namespace

ShardedGlobalState::ShardedGlobalState(int shard_count,
                                       uint64_t decay_half_life_tweets,
                                       bool retain_mention_embeddings)
    : router_(shard_count), symbols_(std::make_unique<SymbolTable>()) {
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    shards_.emplace_back(symbols_.get(), decay_half_life_tweets,
                         retain_mention_embeddings);
  }
}

int ShardedGlobalState::InsertFolded(const FoldedPhrase& phrase) {
  const int shard = router_.ShardOfFolded(phrase.key());
  Shard& sh = shards_[shard];
  CTrie::RootEdge first;
  const int local = sh.trie.Insert(phrase, &first);
  RegisterFirstToken(shard, first);
  if (local == static_cast<int>(sh.local_to_gid.size())) {
    // Freshly discovered candidate: next gid in global discovery order.
    const int gid = AppendGid({shard, local});
    sh.local_to_gid.push_back(gid);
    live_key_bytes_ += CTrie::KeyBytes(sh.trie.CandidateKey(local));
    live_key_tokens_ += phrase.size();
    return gid;
  }
  return sh.local_to_gid[local];
}

int ShardedGlobalState::AppendGid(GidRef ref) {
  const int gid = static_cast<int>(gids_.size());
  gids_.push_back(ref);
  labels_.push_back(static_cast<uint8_t>(CandidateLabel::kUnlabeled));
  flags_.push_back(0);
  return gid;
}

void ShardedGlobalState::RegisterFirstToken(int shard, CTrie::RootEdge first) {
  const int32_t sym = first.symbol;
  const int node = first.node;
  EMD_CHECK_GE(sym, 0) << "first token not interned after Insert";
  EMD_CHECK_NE(node, CTrie::kNoNode);
  if (sym >= static_cast<int32_t>(first_token_.size())) {
    first_token_.resize(symbols_->capacity());
  }
  auto& list = first_token_[sym];
  auto it = std::lower_bound(
      list.begin(), list.end(), shard,
      [](const DispatchEntry& e, int s) { return e.shard < s; });
  if (it != list.end() && it->shard == shard) {
    EMD_CHECK_EQ(it->node, node);  // root edges are stable until pruned
    return;
  }
  if (list.empty()) ++live_first_tokens_;
  dispatch_bytes_ -= list.capacity() * sizeof(DispatchEntry);
  list.insert(it, {shard, node});
  dispatch_bytes_ += list.capacity() * sizeof(DispatchEntry);
}

int ShardedGlobalState::DispatchFanout(int32_t sym) const {
  if (sym < 0 || sym >= static_cast<int32_t>(first_token_.size())) return 0;
  return static_cast<int>(first_token_[sym].size());
}

int ShardedGlobalState::Insert(const std::vector<Token>& tokens,
                               const TokenSpan& span) {
  EMD_CHECK_LE(span.end, tokens.size());
  EMD_CHECK_LT(span.begin, span.end);
  register_scratch_.Clear();
  for (size_t t = span.begin; t < span.end; ++t) {
    register_scratch_.Append(tokens[t].text);
  }
  return InsertFolded(register_scratch_);
}

int ShardedGlobalState::Insert(const std::vector<std::string>& words) {
  EMD_CHECK(!words.empty());
  register_scratch_.Clear();
  for (const auto& w : words) register_scratch_.Append(w);
  return InsertFolded(register_scratch_);
}

int ShardedGlobalState::Find(const std::vector<std::string>& words) const {
  if (words.empty()) return CTrie::kNoCandidate;
  FoldedPhrase phrase;
  for (const auto& w : words) phrase.Append(w);
  const Shard& sh = shards_[router_.ShardOfFolded(phrase.key())];
  const int local = sh.trie.Find(phrase);
  return local == CTrie::kNoCandidate ? CTrie::kNoCandidate
                                      : sh.local_to_gid[local];
}

int ShardedGlobalState::AppendTombstone() {
  // Tombstones carry no key, so they have no hash home; shard 0 hosts them —
  // which is also where the unsharded layout kept every id.
  Shard& sh = shards_[0];
  const int local = sh.trie.AppendTombstone();
  EMD_CHECK_EQ(local, static_cast<int>(sh.local_to_gid.size()));
  const int gid = AppendGid({0, local});
  sh.local_to_gid.push_back(gid);
  return gid;
}

std::vector<ExtractedMention> ShardedGlobalState::Extract(
    const std::vector<Token>& tokens) const {
  ScanScratch scratch;
  std::vector<ExtractedMention> out;
  ExtractInto(tokens, &scratch, &out);
  return out;
}

void ShardedGlobalState::ExtractInto(const std::vector<Token>& tokens,
                                     ScanScratch* s,
                                     std::vector<ExtractedMention>* out) const {
  out->clear();
  const size_t T = tokens.size();
  uint64_t steps = 0;
  uint64_t probes = 0;
  // Fold + intern each token exactly once per tweet; the window loop below
  // then touches only int32[]. A token that is not interned (kNoSymbol)
  // labels no trie edge in any shard, so it can extend or start no match.
  s->syms.resize(T);
  for (size_t t = 0; t < T; ++t) {
    s->syms[t] = symbols_->Lookup(
        ToLowerAsciiView(tokens[t].text, &s->fold_scratch));
  }
  const std::vector<int32_t>& syms = s->syms;
  const int32_t dispatch_size = static_cast<int32_t>(first_token_.size());
  size_t i = 0;
  while (i < T) {
    // One service-wide dispatch lookup resolves this window start to the
    // (usually zero or one) shards owning candidates that begin with this
    // symbol; each continuation then walks int-keyed edges. At most one
    // shard can terminate a candidate per window length (a phrase lives in
    // exactly one shard), so taking the strictly-longest terminal across
    // continuations reproduces the single-trie longest match exactly.
    ++probes;
    size_t best_end = 0;
    int best_shard = -1;
    int best_local = CTrie::kNoCandidate;
    const int32_t sym0 = syms[i];
    if (sym0 >= 0 && sym0 < dispatch_size) {
      for (const DispatchEntry& entry : first_token_[sym0]) {
        const CTrie& trie = shards_[entry.shard].trie;
        int node = entry.node;
        ++steps;  // the dispatch hit resolves the root edge
        int cand = trie.CandidateAt(node);
        if (cand != CTrie::kNoCandidate && i + 1 > best_end) {
          best_end = i + 1;
          best_shard = entry.shard;
          best_local = cand;
        }
        for (size_t j = i + 1; j < T; ++j) {
          const int32_t sym = syms[j];
          if (sym == SymbolTable::kNoSymbol) break;
          node = trie.StepSymbol(node, sym);
          ++steps;
          if (node == CTrie::kNoNode) break;
          cand = trie.CandidateAt(node);
          if (cand != CTrie::kNoCandidate && j + 1 > best_end) {
            best_end = j + 1;
            best_shard = entry.shard;
            best_local = cand;
          }
        }
      }
    }
    if (best_local != CTrie::kNoCandidate) {
      out->push_back(
          {{i, best_end}, shards_[best_shard].local_to_gid[best_local]});
      i = best_end;
    } else {
      ++i;
    }
  }
  ExtractStepsCounter().Increment(steps);
  ExtractRootProbesCounter().Increment(probes);
}

int ShardedGlobalState::num_live_candidates() const {
  int live = 0;
  for (const Shard& sh : shards_) live += sh.trie.num_live_candidates();
  return live;
}

bool ShardedGlobalState::IsTombstone(int gid) const {
  const GidRef r = ref(gid);
  return shards_[r.shard].trie.IsTombstone(r.local);
}

const std::string& ShardedGlobalState::CandidateKey(int gid) const {
  const GidRef r = ref(gid);
  return shards_[r.shard].trie.CandidateKey(r.local);
}

int ShardedGlobalState::CandidateLength(int gid) const {
  const GidRef r = ref(gid);
  return shards_[r.shard].trie.CandidateLength(r.local);
}

int ShardedGlobalState::max_candidate_length() const {
  int max_len = 0;
  for (const Shard& sh : shards_) {
    max_len = std::max(max_len, sh.trie.max_candidate_length());
  }
  return max_len;
}

int ShardedGlobalState::ShardOf(int gid) const { return ref(gid).shard; }

GidRef ShardedGlobalState::ref(int gid) const {
  EMD_CHECK_GE(gid, 0);
  EMD_CHECK_LT(gid, static_cast<int>(gids_.size()));
  return gids_[gid];
}

CandidateRecord& ShardedGlobalState::GetOrCreate(int gid) {
  const GidRef r = ref(gid);
  Shard& sh = shards_[r.shard];
  if (!sh.candidates.Contains(r.local)) OnRecordCreated(gid);
  return sh.candidates.GetOrCreate(r.local);
}

void ShardedGlobalState::OnRecordCreated(int gid) {
  ++live_by_label_[labels_[gid]];
  MarkDirty(gid);
}

CandidateRecord& ShardedGlobalState::at(int gid) {
  const GidRef r = ref(gid);
  return shards_[r.shard].candidates.at(r.local);
}

const CandidateRecord& ShardedGlobalState::at(int gid) const {
  const GidRef r = ref(gid);
  return shards_[r.shard].candidates.at(r.local);
}

bool ShardedGlobalState::Contains(int gid) const {
  if (gid < 0 || gid >= static_cast<int>(gids_.size())) return false;
  const GidRef r = gids_[gid];
  return shards_[r.shard].candidates.Contains(r.local);
}

void ShardedGlobalState::AddMention(int gid, uint64_t pos,
                                    std::span<const float> local_emb) {
  const GidRef r = ref(gid);
  shards_[r.shard].candidates.AddMention(r.local, pos, local_emb);
}

void ShardedGlobalState::Evict(int gid) {
  const GidRef r = ref(gid);
  shards_[r.shard].candidates.Evict(r.local);
  --live_by_label_[labels_[gid]];
  flags_[gid] = kEvictedFlag;
}

void ShardedGlobalState::MarkDirty(int gid) {
  EMD_CHECK_LT(static_cast<size_t>(gid), flags_.size());
  if ((flags_[gid] & kDirtyFlag) != 0) return;
  // A full list first drops its stale entries, so candidates evicted
  // between Finalizes do not grow it with the id space. It doubles when
  // that frees less than half, which keeps the compaction amortised.
  if (!dirty_.empty() && dirty_.size() == dirty_.capacity()) {
    CompactDirty();
    if (dirty_.size() * 2 > dirty_.capacity()) {
      dirty_.reserve(2 * dirty_.capacity());
    }
  }
  flags_[gid] |= kDirtyFlag;
  dirty_.push_back(gid);
}

void ShardedGlobalState::CompactDirty() {
  // An entry is stale once SetLabel / Evict cleared its flag, and repeated
  // when the gid was re-marked after that.
  std::erase_if(dirty_,
                [this](int gid) { return (flags_[gid] & kDirtyFlag) == 0; });
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
}

const std::vector<int>& ShardedGlobalState::DirtyGids() {
  CompactDirty();
  return dirty_;
}

void ShardedGlobalState::SetLabel(int gid, CandidateLabel label) {
  EMD_CHECK(Contains(gid)) << "SetLabel on gid " << gid << " with no record";
  --live_by_label_[labels_[gid]];
  ++live_by_label_[static_cast<size_t>(label)];
  labels_[gid] = static_cast<uint8_t>(label);
  flags_[gid] &= static_cast<uint8_t>(~kDirtyFlag);
}

void ShardedGlobalState::RestoreLabel(int gid, CandidateLabel label,
                                      bool evicted) {
  EMD_CHECK_LT(static_cast<size_t>(gid), labels_.size());
  labels_[gid] = static_cast<uint8_t>(label);
  if (evicted) flags_[gid] |= kEvictedFlag;
}

void ShardedGlobalState::RebuildLabelColumn() {
  live_by_label_ = {};
  for (int gid = 0; gid < num_candidates(); ++gid) {
    if (!Contains(gid)) continue;
    ++live_by_label_[labels_[gid]];
    MarkDirty(gid);
  }
}

int ShardedGlobalState::Prune(int gid) {
  const GidRef r = ref(gid);
  Shard& sh = shards_[r.shard];
  // Capture the first token's symbol before Prune clears the candidate key
  // and releases edge references (the symbol itself may die with them).
  const std::string& key = sh.trie.CandidateKey(r.local);
  int32_t first_sym = SymbolTable::kNoSymbol;
  if (!sh.trie.IsTombstone(r.local)) {
    live_key_bytes_ -= CTrie::KeyBytes(key);
    live_key_tokens_ -= static_cast<size_t>(sh.trie.CandidateLength(r.local));
  }
  if (!key.empty()) {
    const size_t space = key.find(' ');
    first_sym = symbols_->Lookup(std::string_view(key).substr(
        0, space == std::string::npos ? key.size() : space));
  }
  const int pruned = sh.trie.Prune(r.local);
  // Unregister the shard's dispatch continuation when its root edge for the
  // first token disappeared (no other candidate in this shard starts with
  // it). A symbol whose last edge died anywhere has, by this rule, already
  // lost every dispatch entry — so its recycled id starts clean.
  if (first_sym != SymbolTable::kNoSymbol &&
      first_sym < static_cast<int32_t>(first_token_.size()) &&
      sh.trie.RootChildForSymbol(first_sym) == CTrie::kNoNode) {
    auto& list = first_token_[first_sym];
    auto it = std::lower_bound(
        list.begin(), list.end(), r.shard,
        [](const DispatchEntry& e, int shard) { return e.shard < shard; });
    if (it != list.end() && it->shard == r.shard) {
      list.erase(it);
      if (list.empty()) --live_first_tokens_;
    }
  }
  return pruned;
}

size_t ShardedGlobalState::SharedContainerBytes() const {
  return gids_.capacity() * sizeof(GidRef) +
         first_token_.capacity() * sizeof(std::vector<DispatchEntry>) +
         labels_.capacity() + flags_.capacity() +
         dirty_.capacity() * sizeof(int);
}

size_t ShardedGlobalState::ApproxBytes() const {
  // Per-shard structures plus the service-wide scan state (symbol table and
  // first-token dispatch), so the memory governor's budget sees them too.
  size_t bytes =
      symbols_->ApproxBytes() + SharedContainerBytes() + dispatch_bytes_;
  for (int s = 0; s < shard_count(); ++s) bytes += ShardApproxBytes(s);
  return bytes;
}

size_t ShardedGlobalState::GovernedRecordBytes() const {
  size_t records = 0;
  size_t payload = 0;
  for (const Shard& sh : shards_) {
    records += sh.candidates.num_records();
    payload += sh.candidates.PayloadBytes();
  }
  return static_cast<size_t>(num_live_candidates()) * CTrie::EntryBytes() +
         records * sizeof(CandidateRecord) + payload;
}

size_t ShardedGlobalState::GovernedBytes() const {
  return GovernedRecordBytes() + live_key_bytes_ +
         live_key_tokens_ * CTrie::PathBytesPerToken() +
         live_first_tokens_ * sizeof(DispatchEntry);
}

size_t ShardedGlobalState::RecountGovernedBytes() const {
  size_t key_bytes = 0, key_tokens = 0, first_tokens = 0;
  for (int gid = 0; gid < num_candidates(); ++gid) {
    if (IsTombstone(gid)) continue;
    key_bytes += CTrie::KeyBytes(CandidateKey(gid));
    key_tokens += static_cast<size_t>(CandidateLength(gid));
  }
  for (const auto& list : first_token_) first_tokens += !list.empty();
  return GovernedRecordBytes() + key_bytes +
         key_tokens * CTrie::PathBytesPerToken() +
         first_tokens * sizeof(DispatchEntry);
}

size_t ShardedGlobalState::ShardApproxBytes(int shard) const {
  EMD_CHECK_GE(shard, 0);
  EMD_CHECK_LT(shard, shard_count());
  const Shard& sh = shards_[shard];
  return sh.trie.ApproxBytes() + sh.candidates.ApproxBytes() +
         sh.local_to_gid.capacity() * sizeof(int);
}

size_t ShardedGlobalState::RecountBytes() const {
  size_t bytes = symbols_->RecountBytes() + SharedContainerBytes();
  for (const auto& list : first_token_) {
    bytes += list.capacity() * sizeof(DispatchEntry);
  }
  for (int s = 0; s < shard_count(); ++s) bytes += ShardRecountBytes(s);
  return bytes;
}

size_t ShardedGlobalState::ShardRecountBytes(int shard) const {
  EMD_CHECK_GE(shard, 0);
  EMD_CHECK_LT(shard, shard_count());
  const Shard& sh = shards_[shard];
  return sh.trie.RecountBytes() + sh.candidates.RecountBytes() +
         sh.local_to_gid.capacity() * sizeof(int);
}

void ShardedGlobalState::RebuildByteTotals() {
  for (Shard& sh : shards_) sh.candidates.RebuildByteTotals();
}

int ShardedGlobalState::ShardLiveCandidates(int shard) const {
  EMD_CHECK_GE(shard, 0);
  EMD_CHECK_LT(shard, shard_count());
  return shards_[shard].trie.num_live_candidates();
}

void ShardedGlobalState::UpdateShardGauges() {
  if (shard_candidate_gauges_.empty()) {
    shard_candidate_gauges_.resize(shards_.size());
    shard_byte_gauges_.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      const obs::Label label{"shard", std::to_string(s)};
      shard_candidate_gauges_[s] = obs::Metrics().GetGauge(
          "emd_shard_candidates",
          "Live candidates homed in this shard of the global state", label);
      shard_byte_gauges_[s] = obs::Metrics().GetGauge(
          "emd_shard_bytes",
          "Approximate heap bytes held by this shard (trie + records)", label);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_candidate_gauges_[s]->Set(ShardLiveCandidates(static_cast<int>(s)));
    shard_byte_gauges_[s]->Set(
        static_cast<int64_t>(ShardApproxBytes(static_cast<int>(s))));
  }
}

}  // namespace emd
