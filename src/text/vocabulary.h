// Vocabulary: bidirectional string<->id map with frequency-based pruning.
//
// Used for word, character, and feature vocabularies across all the neural
// and CRF models. Id 0 is reserved for <pad>, id 1 for <unk>. Ids are the
// key indices of one InternIndex, so a lookup is one allocation-free probe.

#ifndef EMD_TEXT_VOCABULARY_H_
#define EMD_TEXT_VOCABULARY_H_

#include <string>
#include <string_view>
#include <unordered_map>

#include "util/intern_index.h"
#include "util/result.h"

namespace emd {

/// Bidirectional token<->id vocabulary.
class Vocabulary {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;
  static constexpr int kAbsent = InternIndex::kAbsent;
  static constexpr const char* kPadToken = "<pad>";
  static constexpr const char* kUnkToken = "<unk>";

  Vocabulary();

  /// Adds (or finds) a token and returns its id.
  int Add(std::string_view token);

  /// Id of a token, or kUnkId when absent.
  int Id(std::string_view token) const {
    const int id = Find(token);
    return id == kAbsent ? kUnkId : id;
  }

  /// Id of a token, or kAbsent (no <unk> fallback).
  int Find(std::string_view token) const { return index_.Find(token); }

  /// Token text for an id; aborts on out-of-range.
  std::string_view Token(int id) const;

  /// Number of entries including <pad> and <unk>.
  int size() const { return index_.size(); }

  /// Builds a vocabulary from counted tokens, keeping those with
  /// count >= min_count, ordered by descending count then lexicographic.
  static Vocabulary FromCounts(const std::unordered_map<std::string, int>& counts,
                               int min_count = 1);

  /// Serialization: one token per line after a header.
  std::string Serialize() const;
  static Result<Vocabulary> Deserialize(const std::string& data);

 private:
  InternIndex index_;  // token -> id; never erased, so ids stay dense
};

}  // namespace emd

#endif  // EMD_TEXT_VOCABULARY_H_
