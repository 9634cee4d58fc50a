// CTrie — the CandidatePrefixTrie of §IV: a token-level, case-insensitive
// prefix-trie forest indexing the seed entity candidates suggested by Local
// EMD, and supporting the longest-match lookups of the Candidate Mention
// Extraction step (§V-A).
//
// Nodes correspond to (case-folded) tokens; candidates sharing prefixes share
// subtrees. A node may mark the end of a registered candidate. Edges are
// keyed by the token's dense int32 symbol in a shared SymbolTable: each node
// keeps one sorted (symbol, child) array, so every walk — Insert, Find,
// Prune and the re-scan's StepSymbol — is a binary search over integers.
//
// Memory governance (unbounded streams): Prune() evicts a registered
// candidate — it unmarks the terminal node, deletes the now-empty suffix
// chain (freed node slots go on a free list and are recycled by later
// Inserts), and tombstones the candidate id. Ids are dense and NEVER reused:
// a pruned candidate that reappears in the stream is re-inserted under a
// fresh id, so accumulated evidence restarts from zero — exactly the
// semantics eviction wants. A candidate's key and length live in an entry
// slot that Prune frees for the next new candidate, so a tombstoned id costs
// one slot index. Pruning requires the same external
// synchronization as Insert (single writer, no concurrent scan): the
// Globalizer only prunes at its batch merge barrier.

#ifndef EMD_CORE_CTRIE_H_
#define EMD_CORE_CTRIE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/token.h"

namespace emd {

class SymbolTable;

/// A phrase case-folded once into one buffer: its folded tokens joined by
/// single spaces (no space follows while the buffer is still empty), which
/// is the candidate key the shard router hashes and the trie stores, plus
/// each token's end offset. Reusable scratch: Clear keeps the capacities.
class FoldedPhrase {
 public:
  void Clear() {
    joined_.clear();
    ends_.clear();
  }
  /// Appends the case-folded `token`.
  void Append(std::string_view token);

  size_t size() const { return ends_.size(); }
  std::string_view key() const { return joined_; }
  /// Folded text of token `i`.
  std::string_view token(size_t i) const {
    const size_t begin = i == 0 || ends_[i - 1] == 0 ? 0 : ends_[i - 1] + 1;
    return std::string_view(joined_).substr(begin, ends_[i] - begin);
  }

 private:
  std::string joined_;
  std::vector<uint32_t> ends_;
};

/// Token-level prefix trie over candidate strings.
class CTrie {
 public:
  static constexpr int kNoNode = -1;
  static constexpr int kNoCandidate = -1;

  /// `symbols` is the shared (not owned) table every edge token is interned
  /// in; it must outlive the trie. Each edge holds one reference on its
  /// symbol, taken on Insert and dropped on Prune.
  explicit CTrie(SymbolTable* symbols);

  /// The root edge a phrase's first token follows: its symbol and the root
  /// child it leads to.
  struct RootEdge {
    int32_t symbol;
    int node;
  };

  /// Registers a folded, non-empty phrase. Returns its stable candidate id;
  /// re-inserting returns the existing id. Each token's symbol is looked up
  /// once, and the candidate key is built only for a new candidate. When
  /// `first` is set it receives the root edge the walk stepped through.
  int Insert(const FoldedPhrase& phrase, RootEdge* first = nullptr);

  /// Convenience: registers a sequence of tokens (case-folded internally).
  int Insert(const std::vector<std::string>& tokens);

  /// Convenience: registers the tokens covered by `span`.
  int Insert(const std::vector<Token>& tokens, const TokenSpan& span);

  /// Root handle for traversals.
  int root() const { return 0; }

  /// Follows the edge whose case-folded token interned to `sym`; kNoNode
  /// when absent (including sym == SymbolTable::kNoSymbol). A binary search
  /// over the node's sorted (symbol, child) array — no hashing, no string
  /// compare, no allocation. Callers obtain `sym` from the shared table's
  /// Lookup of the folded token.
  int StepSymbol(int node, int32_t sym) const {
    const auto& edges = nodes_[node].sym_edges;
    auto it = std::lower_bound(edges.begin(), edges.end(), sym, EdgeLess);
    return (it != edges.end() && it->first == sym) ? it->second : kNoNode;
  }

  /// Child of the root reached by `sym`, or kNoNode. Used by the sharded
  /// state to maintain its service-wide first-token dispatch table.
  int RootChildForSymbol(int32_t sym) const { return StepSymbol(root(), sym); }

  /// Candidate id terminating at `node`, or kNoCandidate.
  int CandidateAt(int node) const;

  /// Case-folded surface string of a candidate ("andy beshear"). Empty for a
  /// pruned (tombstoned) id.
  const std::string& CandidateKey(int candidate_id) const;

  /// Number of tokens of a candidate (0 for a pruned id).
  int CandidateLength(int candidate_id) const;

  /// Looks up a folded phrase; returns its candidate id or kNoCandidate.
  int Find(const FoldedPhrase& phrase) const;

  /// Convenience: looks up a sequence of tokens (case-folded internally).
  int Find(const std::vector<std::string>& tokens) const;

  /// Evicts `candidate_id`: the terminal node is unmarked, nodes on its path
  /// that now carry no candidate and no children are unlinked and recycled,
  /// and the id is tombstoned (CandidateKey/CandidateLength become
  /// empty / 0; lookups of the phrase miss). Returns the number of trie
  /// nodes freed. Safe on shared prefixes: a node that still serves another
  /// candidate or subtree survives. No-op (returns 0) for an already-pruned
  /// id. Caller must hold the single-writer contract (no concurrent scan).
  int Prune(int candidate_id);

  /// True when `candidate_id` was pruned. Ids stay dense; tombstoned ids
  /// are never reassigned (their entry slots are).
  bool IsTombstone(int candidate_id) const;

  /// Restore-path only: appends a tombstoned id (no trie nodes, no entry) so
  /// a checkpointed id space including holes rebuilds exactly. Returns the
  /// id.
  int AppendTombstone();

  /// Total ids ever assigned, including tombstones (dense id space bound).
  int num_candidates() const { return static_cast<int>(entry_of_.size()); }

  /// Live (non-tombstoned) candidates.
  int num_live_candidates() const {
    return num_candidates() - num_tombstones_;
  }

  /// Trie nodes currently linked (excludes free-listed slots).
  int num_live_nodes() const {
    return static_cast<int>(nodes_.size() - free_nodes_.size());
  }

  /// Approximate heap bytes held by the trie: node slots, edge arrays, the
  /// id -> entry map, the entry slots and their keys' heap bytes. An
  /// estimate for byte accounting, not an allocator-exact figure. O(1): edge
  /// arrays and key bytes are running sums kept by Insert and Prune.
  size_t ApproxBytes() const { return ContainerBytes() + element_bytes_; }

  /// The same figure by walking every node and key: the oracle ApproxBytes()
  /// must equal. O(nodes).
  size_t RecountBytes() const;

  /// Bytes the governor's shard-independent figure charges per live
  /// candidate (its entry slot) and per token of its key (a node and the
  /// edge to it, as if no prefix were shared). See
  /// ShardedGlobalState::GovernedBytes.
  static size_t EntryBytes();
  static size_t PathBytesPerToken();

  /// Bytes a candidate key adds beyond its entry slot: its capacity when it
  /// is held on the heap, 0 for a key short enough to sit inside the slot's
  /// std::string (which EntryBytes already counts). The one key term of both
  /// ApproxBytes() and the governor's figure.
  static size_t KeyBytes(const std::string& key) {
    static const size_t kInlineCapacity = std::string().capacity();
    return key.capacity() > kInlineCapacity ? key.capacity() : 0;
  }

  /// Longest depth of any registered candidate (scan window bound k of
  /// §V-A). Monotonic: pruning does not shrink it — a stale upper bound only
  /// costs a slightly longer scan window, never correctness.
  int max_candidate_length() const { return max_len_; }

 private:
  using Edge = std::pair<int32_t, int32_t>;  // (symbol, child node)

  struct Node {
    // The node's only edge structure: (symbol, child) sorted by symbol.
    std::vector<Edge> sym_edges;
    int candidate_id = kNoCandidate;
  };

  /// A live candidate's case-folded key and token count, and its id
  /// (kNoCandidate while the slot is free).
  struct Entry {
    std::string key;
    int length = 0;
    int id = kNoCandidate;
  };
  static constexpr int32_t kNoEntry = -1;

  static bool EdgeLess(const Edge& e, int32_t sym) { return e.first < sym; }

  /// Entry slot of a candidate id (kNoEntry when tombstoned).
  int32_t EntryOf(int candidate_id) const;
  /// Moves the live entries to the front in slot order, re-pointing their
  /// ids, and releases the free slots. Prune runs it once free slots
  /// outnumber live ones, so its O(entries) cost is amortised.
  void CompactEntries();
  int AllocNode();
  /// Resets a slot to an empty node, releasing its edge array.
  void ClearNode(int node);
  /// Links `child` under `node` by `sym`, whose reference the caller took.
  void AddSymEdge(int node, int32_t sym, int child);
  void RemoveSymEdge(int node, int32_t sym);
  /// Terms read from container capacities at query time.
  size_t ContainerBytes() const;

  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;  // recycled slots from Prune
  // Candidate id -> entry slot (kNoEntry: tombstoned). Pruned entries go on
  // a free list and are recycled by later Inserts; CompactEntries releases
  // them once they outnumber the live ones.
  std::vector<int32_t> entry_of_;
  std::vector<Entry> entries_;
  std::vector<int32_t> free_entries_;
  int num_tombstones_ = 0;
  int max_len_ = 0;
  // Edge-array bytes of every node plus every entry's KeyBytes.
  size_t element_bytes_ = 0;
  SymbolTable* symbols_;  // not owned
};

}  // namespace emd

#endif  // EMD_CORE_CTRIE_H_
