#include "util/intern_index.h"

#include "util/logging.h"

namespace emd {

int32_t InternIndex::Intern(std::string_view key) {
  if (2 * static_cast<size_t>(num_live_ + num_tombstones_ + 1) > slots_.size()) {
    Rebuild();
  }
  const uint64_t h = Hash(key);
  uint64_t& slot = slots_[Probe(key, h)];
  if (slot != 0) return static_cast<int32_t>((slot & kIndexMask) - 1);
  int32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = size();
    EMD_CHECK_LT(static_cast<uint64_t>(i) + 1, kIndexMask) << "index space full";
    spans_.push_back({});
  }
  EMD_CHECK_LT(arena_.size() + key.size(), size_t{kErased}) << "key arena full";
  spans_[i] = {static_cast<uint32_t>(arena_.size()),
               static_cast<uint32_t>(key.size())};
  arena_.append(key);
  slot = (h & ~kIndexMask) | (static_cast<uint64_t>(i) + 1);
  ++num_live_;
  return i;
}

void InternIndex::Erase(int32_t i) {
  EMD_CHECK_GE(i, 0);
  EMD_CHECK_LT(i, size());
  EMD_CHECK(live(i)) << "erasing a dead key index " << i;
  const std::string_view k = key(i);
  uint64_t& slot = slots_[Probe(k, Hash(k))];
  EMD_CHECK_EQ(slot & kIndexMask, static_cast<uint64_t>(i) + 1);
  slot = kTombstone;
  erased_bytes_ += spans_[i].size;
  spans_[i].begin = kErased;
  free_.push_back(i);
  --num_live_;
  ++num_tombstones_;
}

size_t InternIndex::RecountBytes() const {
  size_t held = erased_bytes_;
  for (int32_t i = 0; i < size(); ++i) held += key(i).size();
  return ApproxBytes() - arena_.size() + held;
}

void InternIndex::Rebuild() {
  size_t n = slots_.empty() ? 16 : slots_.size();
  if (4 * static_cast<size_t>(num_live_ + 1) > n) n *= 2;
  if (erased_bytes_ > 0) {
    std::string packed;
    packed.reserve(arena_.size() - erased_bytes_);
    for (Span& s : spans_) {
      if (s.begin == kErased) continue;
      const uint32_t begin = static_cast<uint32_t>(packed.size());
      packed.append(arena_, s.begin, s.size);
      s.begin = begin;
    }
    arena_ = std::move(packed);
    erased_bytes_ = 0;
  }
  slots_.assign(n, 0);
  num_tombstones_ = 0;
  for (int32_t i = 0; i < size(); ++i) {
    if (!live(i)) continue;
    const uint64_t h = Hash(key(i));
    slots_[Probe(key(i), h)] = (h & ~kIndexMask) | (static_cast<uint64_t>(i) + 1);
  }
}

}  // namespace emd
