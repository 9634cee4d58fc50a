// SymbolTable — dense int32 interning of case-folded scan tokens.
//
// Interning every distinct folded token to a dense int32 symbol turns the
// global re-scan's (§V-A) trie probes into integer compares: each CTrie node
// keeps one sorted (symbol, child) edge array, and the scan loop touches only
// int32[] once each token of a batch has been folded + interned exactly once
// (docs/SHARDING.md, DESIGN §12).
//
// Lifecycle: symbols are reference-counted by the trie edges that carry
// them. Acquire() interns (or revives) a token and takes one reference;
// Release() drops one, and a symbol whose last edge disappears dies — its id
// goes on a free list and is reused by a later Acquire, so the id space
// stays dense under eviction-heavy streams. Lookup() is the read-only scan
// probe: allocation-free, returns kNoSymbol for tokens that begin no
// registered edge anywhere.
//
// Byte accounting: the string capacities (texts plus map keys) are kept as
// a running sum adjusted by Acquire/Release, so ApproxBytes() is O(1);
// RecountBytes() is the full walk it must always equal.
//
// Concurrency contract: Acquire/Release mutate and follow the same
// single-writer batch barrier as CTrie::Insert/Prune. Lookup/text are
// read-only and safe from worker threads while no writer runs.

#ifndef EMD_TEXT_SYMBOL_TABLE_H_
#define EMD_TEXT_SYMBOL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace emd {

/// Refcounted map from case-folded token to dense int32 symbol id.
class SymbolTable {
 public:
  static constexpr int32_t kNoSymbol = -1;

  /// Interns `folded` (must already be case-folded) and takes one reference.
  /// Returns its symbol id; a dead id slot is reused before a new one grows.
  int32_t Acquire(std::string_view folded);

  /// Acquire split for a caller that already probed with Lookup: Retain
  /// takes one more reference on a live `sym`; Intern adds `folded`, which
  /// must not be interned yet, with one reference and returns its id.
  void Retain(int32_t sym);
  int32_t Intern(std::string_view folded);

  /// Drops one reference from `sym`. At zero the symbol dies: its text is
  /// forgotten, Lookup misses, and the id is recycled by a later Acquire.
  void Release(int32_t sym);

  /// Read-only probe: symbol of `folded`, or kNoSymbol when it is not
  /// currently interned. Zero allocations (transparent hash lookup).
  int32_t Lookup(std::string_view folded) const {
    auto it = ids_.find(folded);
    return it == ids_.end() ? kNoSymbol : it->second;
  }

  /// Folded text of a live symbol (empty for a dead id).
  const std::string& text(int32_t sym) const { return texts_[sym]; }

  /// References currently held on `sym` (0 for a dead id).
  uint32_t ref_count(int32_t sym) const { return refs_[sym]; }

  /// Live (referenced) symbols.
  int num_live() const {
    return static_cast<int>(texts_.size() - free_ids_.size());
  }

  /// Total id slots ever grown (bound for dense symbol-indexed arrays).
  int capacity() const { return static_cast<int>(texts_.size()); }

  /// Approximate heap bytes (map buckets + entries + text storage). An
  /// estimate for the memory governor, not allocator-exact. O(1): the text
  /// storage is a running sum.
  size_t ApproxBytes() const { return ContainerBytes() + string_bytes_; }

  /// The same figure by walking every string: the oracle ApproxBytes()
  /// must equal. O(symbols).
  size_t RecountBytes() const;

 private:
  /// Terms read from container sizes and capacities at query time.
  size_t ContainerBytes() const;

  std::unordered_map<std::string, int32_t, TransparentStringHash,
                     TransparentStringEq>
      ids_;
  std::vector<std::string> texts_;   // id -> folded text ("" when dead)
  std::vector<uint32_t> refs_;       // id -> live references
  std::vector<int32_t> free_ids_;    // dead ids awaiting reuse
  size_t string_bytes_ = 0;          // capacity of every text and map key
};

}  // namespace emd

#endif  // EMD_TEXT_SYMBOL_TABLE_H_
