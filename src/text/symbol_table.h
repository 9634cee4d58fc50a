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
// is erased from the index and reused by a later Acquire (last freed, first
// reused), so the id space stays dense under eviction-heavy streams.
// Lookup() is the read-only scan probe: allocation-free, returns kNoSymbol
// for tokens that begin no registered edge anywhere.
//
// Storage: one InternIndex (flat slot array plus one key arena) and a
// refcount per id. Byte accounting reads container capacities, so
// ApproxBytes() is O(1); RecountBytes() recounts the key arena's held bytes
// from a walk of the live symbols and must always equal it.
//
// Concurrency contract: Acquire/Release mutate and follow the same
// single-writer batch barrier as CTrie::Insert/Prune. Lookup/text are
// read-only and safe from worker threads while no writer runs.

#ifndef EMD_TEXT_SYMBOL_TABLE_H_
#define EMD_TEXT_SYMBOL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/intern_index.h"

namespace emd {

/// Refcounted map from case-folded token to dense int32 symbol id.
class SymbolTable {
 public:
  static constexpr int32_t kNoSymbol = InternIndex::kAbsent;

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
  /// currently interned. Zero allocations.
  int32_t Lookup(std::string_view folded) const { return index_.Find(folded); }

  /// Folded text of a live symbol (empty for a dead id). Valid until the
  /// next Acquire, Intern or Release.
  std::string_view text(int32_t sym) const { return index_.key(sym); }

  /// References currently held on `sym` (0 for a dead id).
  uint32_t ref_count(int32_t sym) const { return refs_[sym]; }

  /// Live (referenced) symbols.
  int num_live() const { return index_.num_live(); }

  /// Total id slots ever grown (bound for dense symbol-indexed arrays).
  int capacity() const { return index_.size(); }

  /// Approximate heap bytes: the index's slot array, key spans, free list
  /// and key arena, plus the refcounts. An estimate for the memory governor,
  /// not allocator-exact. O(1).
  size_t ApproxBytes() const {
    return index_.ApproxBytes() + refs_.capacity() * sizeof(uint32_t);
  }

  /// The same figure with the key arena's held bytes recounted from the
  /// live symbols' texts (InternIndex::RecountBytes): the oracle
  /// ApproxBytes() must equal. O(symbols).
  size_t RecountBytes() const;

 private:
  InternIndex index_;
  std::vector<uint32_t> refs_;  // id -> live references
};

}  // namespace emd

#endif  // EMD_TEXT_SYMBOL_TABLE_H_
