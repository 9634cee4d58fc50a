// InternIndex — dense interning of byte strings for hot lookup paths.
//
// Maps each distinct key to a key index 0, 1, 2, ... in insertion order, so
// callers keep per-key data in plain vectors beside it. Open addressing over
// a power-of-two slot array (at most half full); each slot packs the key
// index with the upper half of the key's 64-bit hash, so a probe hashes the
// key once, touches one slot array and compares bytes only on a hash-tag
// hit. Key bytes live in one arena. Find never allocates.
//
// Not thread-safe for writers: Intern mutates; Find is read-only and may run
// from several threads at once while nothing interns.

#ifndef EMD_UTIL_INTERN_INDEX_H_
#define EMD_UTIL_INTERN_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace emd {

class InternIndex {
 public:
  static constexpr int32_t kAbsent = -1;

  /// Key index of `key`, or kAbsent.
  int32_t Find(std::string_view key) const;

  /// Key index of `key`, appending it first when absent.
  int32_t Intern(std::string_view key);

  int32_t size() const { return static_cast<int32_t>(ends_.size()); }

  /// Bytes of key `i` (valid until the next Intern).
  std::string_view key(int32_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(arena_).substr(begin, ends_[i] - begin);
  }

 private:
  static uint64_t Hash(std::string_view key);
  /// Slot holding `key` (hash `h`), or the empty slot where it would go.
  size_t Probe(std::string_view key, uint64_t h) const;
  void Grow();

  // (hash >> 32) << 32 | (key index + 1); 0 marks an empty slot.
  std::vector<uint64_t> slots_;
  std::vector<uint32_t> ends_;  // end offset of key i in arena_
  std::string arena_;
};

}  // namespace emd

#endif  // EMD_UTIL_INTERN_INDEX_H_
