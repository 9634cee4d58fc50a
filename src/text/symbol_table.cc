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
  const int32_t sym = index_.Intern(folded);
  if (sym == static_cast<int32_t>(refs_.size())) {
    refs_.push_back(1);
  } else {
    EMD_CHECK_EQ(refs_[sym], 0u) << "interning a live symbol";
    refs_[sym] = 1;
  }
  return sym;
}

void SymbolTable::Release(int32_t sym) {
  EMD_CHECK_GE(sym, 0);
  EMD_CHECK_LT(sym, capacity());
  EMD_CHECK_GT(refs_[sym], 0u) << "releasing dead symbol " << sym;
  if (--refs_[sym] == 0) index_.Erase(sym);
}

size_t SymbolTable::RecountBytes() const {
  return index_.RecountBytes() + refs_.capacity() * sizeof(uint32_t);
}

}  // namespace emd
