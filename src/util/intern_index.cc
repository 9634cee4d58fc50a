#include "util/intern_index.h"

#include <cstring>

namespace emd {

namespace {
constexpr uint64_t kIndexMask = 0xffffffffull;
}  // namespace

uint64_t InternIndex::Hash(std::string_view key) {
  // Eight bytes per multiply-xorshift round, then a final avalanche; the low
  // bits pick the slot and the high bits tag it.
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

size_t InternIndex::Probe(std::string_view key, uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = h & ~kIndexMask;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if ((slot & ~kIndexMask) == tag &&
        this->key(static_cast<int32_t>((slot & kIndexMask) - 1)) == key) {
      return i;
    }
  }
}

int32_t InternIndex::Find(std::string_view key) const {
  if (slots_.empty()) return kAbsent;
  const uint64_t slot = slots_[Probe(key, Hash(key))];
  return slot == 0 ? kAbsent : static_cast<int32_t>((slot & kIndexMask) - 1);
}

int32_t InternIndex::Intern(std::string_view key) {
  if (2 * (ends_.size() + 1) > slots_.size()) Grow();
  const uint64_t h = Hash(key);
  uint64_t& slot = slots_[Probe(key, h)];
  if (slot != 0) return static_cast<int32_t>((slot & kIndexMask) - 1);
  arena_.append(key);
  ends_.push_back(static_cast<uint32_t>(arena_.size()));
  slot = (h & ~kIndexMask) | ends_.size();
  return size() - 1;
}

void InternIndex::Grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
  for (int32_t i = 0; i < size(); ++i) {
    const uint64_t h = Hash(key(i));
    slots_[Probe(key(i), h)] = (h & ~kIndexMask) | static_cast<uint64_t>(i + 1);
  }
}

}  // namespace emd
