// NpChunkerSystem: chunker-based local EMD (instantiation 1, §IV-A).
//
// Stand-in for the TweeboParser + NP-chunker pipeline: a rule-based noun
// phrase chunker over PosTagger output projects noun chunks as entity
// candidates. By design this is the weakest local system — high false
// positive rate from capitalized non-entities and sentence-start nouns, and
// misses lowercase entity mentions — matching its Table III profile.

#ifndef EMD_EMD_NP_CHUNKER_H_
#define EMD_EMD_NP_CHUNKER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "emd/local_emd_system.h"
#include "emd/pos_tagger.h"
#include "util/intern_index.h"

namespace emd {

struct NpChunkerOptions {
  /// Maximum tokens per projected chunk.
  int max_chunk_len = 4;
  /// Project lowercase noun chunks when the head noun is out-of-lexicon
  /// (unknown lowercase words are candidate novel entities).
  bool project_oov_lowercase = true;
};

class NpChunkerSystem : public LocalEmdSystem {
 public:
  /// `tagger` must be trained and outlive the system.
  NpChunkerSystem(const PosTagger* tagger, NpChunkerOptions options = {});

  std::string name() const override { return "NP Chunker"; }
  const char* process_failpoint() const override { return "emd.np_chunker.process"; }
  bool is_deep() const override { return false; }
  /// Process only reads the tagger, options and lexicon — no per-call state.
  bool concurrent_safe() const override { return true; }
  int embedding_dim() const override { return 0; }
  LocalEmdResult Process(const std::vector<Token>& tokens) override;

  /// Registers a word as in-lexicon (known common word). Populated from the
  /// training corpus so OOV detection mirrors the paper's lexical-resource
  /// rarity problem.
  void AddLexiconWord(const std::string& lower_word);

 private:
  bool InLexicon(std::string_view lower_word) const {
    return lexicon_.Find(lower_word) != InternIndex::kAbsent;
  }

  const PosTagger* tagger_;
  NpChunkerOptions options_;
  InternIndex lexicon_;
};

}  // namespace emd

#endif  // EMD_EMD_NP_CHUNKER_H_
