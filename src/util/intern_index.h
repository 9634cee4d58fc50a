// InternIndex — dense interning of byte strings for hot lookup paths.
//
// Maps each distinct key to a small key index, so callers keep per-key data
// in plain vectors beside it. Open addressing over a power-of-two slot array;
// each slot packs the key index with the upper half of the key's 64-bit
// hash, so a probe hashes the key once, touches one slot array and compares
// bytes only on a hash-tag hit. Key bytes live in one arena. Find never
// allocates.
//
// Erase turns a key's slot into a tombstone and frees its index; the next
// Intern of a new key reuses the most recently freed index (LIFO), else
// appends index size(). Live slots plus tombstones stay at most half the slot
// array: past that, a rebuild drops the tombstones, compacts the erased keys'
// bytes out of the arena and, when live keys fill more than a quarter of the
// array, doubles it.
//
// Not thread-safe for writers: Intern and Erase mutate; Find is read-only and
// may run from several threads at once while nothing writes.

#ifndef EMD_UTIL_INTERN_INDEX_H_
#define EMD_UTIL_INTERN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace emd {

class InternIndex {
 public:
  static constexpr int32_t kAbsent = -1;

  /// Key index of `key`, or kAbsent.
  int32_t Find(std::string_view key) const {
    if (slots_.empty()) return kAbsent;
    const uint64_t slot = slots_[Probe(key, Hash(key))];
    return slot == 0 ? kAbsent : static_cast<int32_t>((slot & kIndexMask) - 1);
  }

  /// Key index of `key`, adding it first when absent. `key` must not view
  /// this index's own bytes (a rebuild may move them).
  int32_t Intern(std::string_view key);

  /// Removes the live key at index `i`. Its index is reused by a later
  /// Intern of a new key; key(i) reads empty until then.
  void Erase(int32_t i);

  /// Index bound: every index handed out so far, live or erased.
  int32_t size() const { return static_cast<int32_t>(spans_.size()); }

  /// Keys currently interned.
  int32_t num_live() const { return num_live_; }

  /// True when index `i` holds a key (false once erased, until reused).
  bool live(int32_t i) const { return spans_[i].begin != kErased; }

  /// Bytes of key `i`; empty for an erased index. Valid until the next
  /// Intern or Erase.
  std::string_view key(int32_t i) const {
    const Span s = spans_[i];
    return s.begin == kErased ? std::string_view()
                              : std::string_view(arena_.data() + s.begin, s.size);
  }

  /// Heap bytes held: slot array, key spans, free list and key arena, all
  /// read from container capacities. O(1).
  size_t ApproxBytes() const {
    return slots_.capacity() * sizeof(uint64_t) +
           spans_.capacity() * sizeof(Span) +
           free_.capacity() * sizeof(int32_t) + arena_.capacity();
  }

  /// The same figure with the arena's held bytes recounted from the live
  /// keys plus the erased keys' bytes awaiting compaction: the oracle
  /// ApproxBytes() must equal. O(keys).
  size_t RecountBytes() const;

 private:
  struct Span {
    uint32_t begin;  // offset in arena_, or kErased
    uint32_t size;
  };
  static constexpr uint32_t kErased = 0xffffffffu;
  // A slot is (hash >> 32) << 32 | (key index + 1); 0 is empty and an index
  // field of all ones is a tombstone.
  static constexpr uint64_t kIndexMask = 0xffffffffull;
  static constexpr uint64_t kTombstone = kIndexMask;

  static uint64_t Hash(std::string_view key) {
    // Eight bytes per multiply-xorshift round, then a final avalanche; the
    // low bits pick the slot and the high bits tag it.
    uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
    size_t i = 0;
    for (; i + 8 <= key.size(); i += 8) {
      uint64_t v;
      std::memcpy(&v, key.data() + i, 8);
      h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
    }
    if (i < key.size()) {
      uint64_t v = 0;
      std::memcpy(&v, key.data() + i, key.size() - i);
      h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
    }
    h *= 0x94d049bb133111ebull;
    return h ^ (h >> 29);
  }

  /// Slot holding `key` (hash `h`), or the empty slot ending its probe chain.
  /// Tombstones are stepped over.
  size_t Probe(std::string_view key, uint64_t h) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t tag = h & ~kIndexMask;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == 0) return i;
      if ((slot & ~kIndexMask) == tag && slot != kTombstone) {
        const Span s = spans_[(slot & kIndexMask) - 1];
        if (std::string_view(arena_.data() + s.begin, s.size) == key) return i;
      }
    }
  }

  /// Re-slots every live key into a tombstone-free array (doubled when live
  /// keys fill more than a quarter of it) and compacts the arena.
  void Rebuild();

  std::vector<uint64_t> slots_;
  std::vector<Span> spans_;    // key index -> bytes in arena_
  std::vector<int32_t> free_;  // erased indices, reused last-in first-out
  std::string arena_;
  int32_t num_live_ = 0;
  int32_t num_tombstones_ = 0;
  size_t erased_bytes_ = 0;
};

}  // namespace emd

#endif  // EMD_UTIL_INTERN_INDEX_H_
