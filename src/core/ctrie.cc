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
  const int id = static_cast<int>(entry_of_.size());
  nodes_[node].candidate_id = id;
  int32_t slot;
  if (free_entries_.empty()) {
    slot = static_cast<int32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    slot = free_entries_.back();
    free_entries_.pop_back();
    element_bytes_ -= KeyBytes(entries_[slot].key);
  }
  Entry& entry = entries_[slot];
  entry.key = std::move(key);
  element_bytes_ += KeyBytes(entry.key);
  entry.length = static_cast<int>(phrase.size());
  entry.id = id;
  entry_of_.push_back(slot);
  max_len_ = std::max(max_len_, entry.length);
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
  static const std::string kPrunedKey;
  const int32_t slot = EntryOf(candidate_id);
  return slot == kNoEntry ? kPrunedKey : entries_[slot].key;
}

int CTrie::CandidateLength(int candidate_id) const {
  const int32_t slot = EntryOf(candidate_id);
  return slot == kNoEntry ? 0 : entries_[slot].length;
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

int32_t CTrie::EntryOf(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return entry_of_[candidate_id];
}

bool CTrie::IsTombstone(int candidate_id) const {
  return EntryOf(candidate_id) == kNoEntry;
}

int CTrie::Prune(int candidate_id) {
  const int32_t slot = EntryOf(candidate_id);
  if (slot == kNoEntry) return 0;
  Entry& entry = entries_[slot];

  // Re-walk the candidate's (already case-folded) key from the root,
  // remembering the path so empty suffix nodes can be unlinked bottom-up.
  const std::string_view key = entry.key;
  struct PathEdge {
    int parent;
    int32_t sym;
  };
  std::vector<PathEdge> path;
  path.reserve(static_cast<size_t>(entry.length));
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
  element_bytes_ -= KeyBytes(entry.key);
  entry.key.clear();
  entry.key.shrink_to_fit();
  element_bytes_ += KeyBytes(entry.key);
  entry.length = 0;
  entry.id = kNoCandidate;
  free_entries_.push_back(slot);
  entry_of_[candidate_id] = kNoEntry;
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
  if (free_entries_.size() * 2 > entries_.size()) CompactEntries();
  return pruned;
}

void CTrie::CompactEntries() {
  for (const Entry& entry : entries_) element_bytes_ -= KeyBytes(entry.key);
  size_t live = 0;
  for (size_t s = 0; s < entries_.size(); ++s) {
    const int id = entries_[s].id;
    if (id == kNoCandidate) continue;
    if (s != live) {
      entries_[live] = std::move(entries_[s]);
      entry_of_[id] = static_cast<int32_t>(live);
    }
    ++live;
  }
  entries_.resize(live);
  entries_.shrink_to_fit();
  free_entries_.clear();
  free_entries_.shrink_to_fit();
  for (const Entry& entry : entries_) element_bytes_ += KeyBytes(entry.key);
}

int CTrie::AppendTombstone() {
  const int id = static_cast<int>(entry_of_.size());
  entry_of_.push_back(kNoEntry);
  ++num_tombstones_;
  return id;
}

size_t CTrie::EntryBytes() { return sizeof(Entry); }

size_t CTrie::PathBytesPerToken() { return sizeof(Node) + sizeof(Edge); }

size_t CTrie::ContainerBytes() const {
  // Edge token text lives once in the shared SymbolTable, which its owner
  // counts.
  return nodes_.capacity() * sizeof(Node) +
         free_nodes_.capacity() * sizeof(int) +
         entry_of_.capacity() * sizeof(int32_t) +
         entries_.capacity() * sizeof(Entry) +
         free_entries_.capacity() * sizeof(int32_t);
}

size_t CTrie::RecountBytes() const {
  size_t bytes = ContainerBytes();
  for (const Entry& entry : entries_) bytes += KeyBytes(entry.key);
  for (const auto& node : nodes_) {
    bytes += node.sym_edges.capacity() * sizeof(Edge);
  }
  return bytes;
}

}  // namespace emd
