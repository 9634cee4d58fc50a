#include "text/symbol_table.h"

#include "util/logging.h"

namespace emd {

int32_t SymbolTable::Acquire(std::string_view folded) {
  const int32_t sym = Lookup(folded);
  if (sym == kNoSymbol) return Intern(folded);
  Retain(sym);
  return sym;
}

void SymbolTable::Retain(int32_t sym) {
  EMD_CHECK_GE(sym, 0);
  EMD_CHECK_LT(sym, capacity());
  EMD_CHECK_GT(refs_[sym], 0u) << "retaining dead symbol " << sym;
  ++refs_[sym];
}

int32_t SymbolTable::Intern(std::string_view folded) {
  int32_t sym;
  if (!free_ids_.empty()) {
    sym = free_ids_.back();
    free_ids_.pop_back();
    string_bytes_ -= texts_[sym].capacity();
    texts_[sym].assign(folded);
    refs_[sym] = 1;
  } else {
    sym = static_cast<int32_t>(texts_.size());
    texts_.emplace_back(folded);
    refs_.push_back(1);
  }
  string_bytes_ += texts_[sym].capacity();
  const auto [it, inserted] = ids_.emplace(texts_[sym], sym);
  EMD_CHECK(inserted) << "interning a live symbol";
  string_bytes_ += it->first.capacity();
  return sym;
}

void SymbolTable::Release(int32_t sym) {
  EMD_CHECK_GE(sym, 0);
  EMD_CHECK_LT(sym, capacity());
  EMD_CHECK_GT(refs_[sym], 0u) << "releasing dead symbol " << sym;
  if (--refs_[sym] > 0) return;
  auto it = ids_.find(texts_[sym]);
  string_bytes_ -= it->first.capacity() + texts_[sym].capacity();
  ids_.erase(it);
  texts_[sym].clear();
  texts_[sym].shrink_to_fit();
  string_bytes_ += texts_[sym].capacity();
  free_ids_.push_back(sym);
}

size_t SymbolTable::ContainerBytes() const {
  constexpr size_t kEntryOverhead = 2 * sizeof(void*) + sizeof(int32_t);
  return ids_.bucket_count() * sizeof(void*) +
         ids_.size() * (kEntryOverhead + sizeof(std::string)) +
         texts_.capacity() * sizeof(std::string) +
         refs_.capacity() * sizeof(uint32_t) +
         free_ids_.capacity() * sizeof(int32_t);
}

size_t SymbolTable::RecountBytes() const {
  size_t bytes = ContainerBytes();
  for (const auto& t : texts_) bytes += t.capacity();
  for (const auto& [key, id] : ids_) {
    (void)id;
    bytes += key.capacity();
  }
  return bytes;
}

}  // namespace emd
