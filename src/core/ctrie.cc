#include "core/ctrie.h"

#include "text/symbol_table.h"
#include "util/logging.h"

namespace emd {

CTrie::CTrie(SymbolTable* symbols) : symbols_(symbols) {
  EMD_CHECK(symbols != nullptr);
  nodes_.emplace_back();
}

void FoldedPhrase::Append(std::string_view token) {
  if (!joined_.empty()) joined_ += ' ';
  const size_t begin = joined_.size();
  joined_.append(token);
  for (size_t i = begin; i < joined_.size(); ++i) {
    char& c = joined_[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  ends_.push_back(static_cast<uint32_t>(joined_.size()));
}

void CTrie::AddSymEdge(int node, int32_t sym, int child) {
  auto& edges = nodes_[node].sym_edges;
  element_bytes_ -= edges.capacity() * sizeof(Edge);
  edges.insert(std::lower_bound(edges.begin(), edges.end(), sym, EdgeLess),
               {sym, child});
  element_bytes_ += edges.capacity() * sizeof(Edge);
}

void CTrie::RemoveSymEdge(int node, int32_t sym) {
  EMD_CHECK_GE(sym, 0) << "removing edge: symbol not interned";
  auto& edges = nodes_[node].sym_edges;
  auto it = std::lower_bound(edges.begin(), edges.end(), sym, EdgeLess);
  EMD_CHECK(it != edges.end() && it->first == sym);
  edges.erase(it);
  symbols_->Release(sym);
}

void CTrie::ClearNode(int node) {
  element_bytes_ -= nodes_[node].sym_edges.capacity() * sizeof(Edge);
  nodes_[node] = Node();
}

int CTrie::AllocNode() {
  if (!free_nodes_.empty()) {
    const int slot = free_nodes_.back();
    free_nodes_.pop_back();
    ClearNode(slot);
    return slot;
  }
  const int slot = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  return slot;
}

int CTrie::Insert(const FoldedPhrase& phrase, RootEdge* first) {
  EMD_CHECK_GT(phrase.size(), 0u);
  int node = root();
  for (size_t i = 0; i < phrase.size(); ++i) {
    // An interned symbol may still lack an edge at this node (it labels
    // edges elsewhere); StepSymbol misses and the edge is created.
    int32_t sym = symbols_->Lookup(phrase.token(i));
    int child = StepSymbol(node, sym);
    if (child == kNoNode) {
      if (sym == SymbolTable::kNoSymbol) {
        sym = symbols_->Intern(phrase.token(i));
      } else {
        symbols_->Retain(sym);
      }
      child = AllocNode();
      AddSymEdge(node, sym, child);
    }
    if (i == 0 && first != nullptr) *first = {sym, child};
    node = child;
  }
  if (nodes_[node].candidate_id != kNoCandidate) return nodes_[node].candidate_id;
  // The key grows by the same appends it always has: element_bytes_ counts
  // its capacity, which depends on the growth steps.
  std::string key;
  for (size_t i = 0; i < phrase.size(); ++i) {
    if (!key.empty()) key += ' ';
    key += phrase.token(i);
  }
  const int id = static_cast<int>(candidate_keys_.size());
  nodes_[node].candidate_id = id;
  candidate_keys_.push_back(std::move(key));
  element_bytes_ += candidate_keys_.back().capacity();
  const int length = static_cast<int>(phrase.size());
  candidate_lengths_.push_back(length);
  tombstoned_.push_back(0);
  max_len_ = std::max(max_len_, length);
  return id;
}

int CTrie::Insert(const std::vector<std::string>& tokens) {
  FoldedPhrase phrase;
  for (const auto& tok : tokens) phrase.Append(tok);
  return Insert(phrase);
}

int CTrie::Insert(const std::vector<Token>& tokens, const TokenSpan& span) {
  EMD_CHECK_LE(span.end, tokens.size());
  EMD_CHECK_LT(span.begin, span.end);
  FoldedPhrase phrase;
  for (size_t t = span.begin; t < span.end; ++t) phrase.Append(tokens[t].text);
  return Insert(phrase);
}

int CTrie::CandidateAt(int node) const {
  EMD_CHECK_GE(node, 0);
  EMD_CHECK_LT(node, static_cast<int>(nodes_.size()));
  return nodes_[node].candidate_id;
}

const std::string& CTrie::CandidateKey(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return candidate_keys_[candidate_id];
}

int CTrie::CandidateLength(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return candidate_lengths_[candidate_id];
}

int CTrie::Find(const FoldedPhrase& phrase) const {
  int node = root();
  for (size_t i = 0; i < phrase.size(); ++i) {
    node = StepSymbol(node, symbols_->Lookup(phrase.token(i)));
    if (node == kNoNode) return kNoCandidate;
  }
  return CandidateAt(node);
}

int CTrie::Find(const std::vector<std::string>& tokens) const {
  FoldedPhrase phrase;
  for (const auto& tok : tokens) phrase.Append(tok);
  return Find(phrase);
}

bool CTrie::IsTombstone(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return tombstoned_[candidate_id] != 0;
}

int CTrie::Prune(int candidate_id) {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  if (tombstoned_[candidate_id]) return 0;

  // Re-walk the candidate's (already case-folded) key from the root,
  // remembering the path so empty suffix nodes can be unlinked bottom-up.
  const std::string_view key = candidate_keys_[candidate_id];
  struct PathEdge {
    int parent;
    int32_t sym;
  };
  std::vector<PathEdge> path;
  path.reserve(static_cast<size_t>(candidate_lengths_[candidate_id]));
  int node = root();
  size_t begin = 0;
  while (begin <= key.size()) {
    size_t end = key.find(' ', begin);
    if (end == std::string_view::npos) end = key.size();
    const int32_t sym = symbols_->Lookup(key.substr(begin, end - begin));
    const int child = StepSymbol(node, sym);
    EMD_CHECK(child != kNoNode)
        << "pruning candidate " << candidate_id << " ('" << key
        << "'): trie path missing";
    path.push_back({node, sym});
    node = child;
    begin = end + 1;
  }

  EMD_CHECK_EQ(nodes_[node].candidate_id, candidate_id);
  nodes_[node].candidate_id = kNoCandidate;
  tombstoned_[candidate_id] = 1;
  std::string& dead_key = candidate_keys_[candidate_id];
  element_bytes_ -= dead_key.capacity();
  dead_key.clear();
  dead_key.shrink_to_fit();
  element_bytes_ += dead_key.capacity();
  candidate_lengths_[candidate_id] = 0;
  ++num_tombstones_;

  // Unlink nodes that no longer terminate a candidate and have no children.
  // Stops at the first node still in use (shared prefix) or at the root.
  int pruned = 0;
  for (size_t i = path.size(); i-- > 0;) {
    if (nodes_[node].candidate_id != kNoCandidate ||
        !nodes_[node].sym_edges.empty()) {
      break;
    }
    RemoveSymEdge(path[i].parent, path[i].sym);
    ClearNode(node);
    free_nodes_.push_back(node);
    ++pruned;
    node = path[i].parent;
  }
  return pruned;
}

int CTrie::AppendTombstone() {
  const int id = static_cast<int>(candidate_keys_.size());
  element_bytes_ += candidate_keys_.emplace_back().capacity();
  candidate_lengths_.push_back(0);
  tombstoned_.push_back(1);
  ++num_tombstones_;
  return id;
}

size_t CTrie::ContainerBytes() const {
  // Edge token text lives once in the shared SymbolTable, which its owner
  // counts.
  return nodes_.capacity() * sizeof(Node) +
         free_nodes_.capacity() * sizeof(int) +
         candidate_keys_.capacity() * sizeof(std::string) +
         candidate_lengths_.capacity() * sizeof(int) +
         tombstoned_.capacity() * sizeof(uint8_t);
}

size_t CTrie::RecountBytes() const {
  size_t bytes = ContainerBytes();
  for (const auto& key : candidate_keys_) bytes += key.capacity();
  for (const auto& node : nodes_) {
    bytes += node.sym_edges.capacity() * sizeof(Edge);
  }
  return bytes;
}

}  // namespace emd
