// MockLocalSystem: a scripted LocalEmdSystem for deterministic pipeline
// tests. Detects mentions of configured phrases, with optional per-phrase
// detection rules (e.g. "only when capitalized" to emulate the
// inconsistent-detection behaviour the framework corrects).

#ifndef EMD_TESTS_MOCK_LOCAL_SYSTEM_H_
#define EMD_TESTS_MOCK_LOCAL_SYSTEM_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "emd/local_emd_system.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {

class MockLocalSystem : public LocalEmdSystem {
 public:
  struct Rule {
    std::vector<std::string> phrase;  // case-insensitive token match
    /// Detect only when the first token is capitalized in the sentence.
    bool require_capitalized = false;
    /// Truncate the detection to the first token (partial extraction).
    bool partial = false;
  };

  /// `dim` > 0 makes the mock "deep": deterministic pseudo-embeddings are
  /// produced per token (hash-seeded), entity-ish tokens offset by +1.
  explicit MockLocalSystem(std::vector<Rule> rules, int dim = 0)
      : rules_(std::move(rules)), dim_(dim) {}

  std::string name() const override { return "Mock"; }
  const char* process_failpoint() const override {
    return failpoint_name_.c_str();
  }

  /// Overrides the failpoint evaluated by TryProcess (default
  /// "emd.mock.process") so a primary and a fallback mock in the same test
  /// can fail independently.
  void set_process_failpoint(std::string name) {
    failpoint_name_ = std::move(name);
  }
  bool is_deep() const override { return dim_ > 0; }
  int embedding_dim() const override { return dim_; }
  /// Process writes only its local result (calls_ is atomic), so the mock
  /// can be shared across worker lanes in parallel-pipeline tests.
  bool concurrent_safe() const override { return true; }

  /// Counts ProcessBatched calls (the happy-path local stage), then defers
  /// to the base class's per-tweet loop, which is bit-identical to Process.
  void ProcessBatched(const std::vector<const std::vector<Token>*>& tweets,
                      ForwardArena* arena,
                      std::vector<LocalEmdResult>* results) override {
    ++batched_calls_;
    LocalEmdSystem::ProcessBatched(tweets, arena, results);
  }

  LocalEmdResult Process(const std::vector<Token>& tokens) override {
    ++calls_;
    LocalEmdResult result;
    for (size_t t = 0; t < tokens.size(); ++t) {
      for (const Rule& rule : rules_) {
        if (t + rule.phrase.size() > tokens.size()) continue;
        bool match = true;
        for (size_t k = 0; k < rule.phrase.size(); ++k) {
          if (!EqualsIgnoreCase(tokens[t + k].text, rule.phrase[k])) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        if (rule.require_capitalized &&
            (tokens[t].text.empty() || !IsUpperAscii(tokens[t].text[0]))) {
          continue;
        }
        const size_t end = rule.partial ? t + 1 : t + rule.phrase.size();
        result.mentions.push_back({t, end});
      }
    }
    if (dim_ > 0) {
      result.token_embeddings = Mat(static_cast<int>(tokens.size()), dim_);
      for (size_t t = 0; t < tokens.size(); ++t) {
        // Deterministic per-word embedding so pooling is reproducible.
        uint64_t h = 1469598103934665603ULL;
        for (char c : ToLowerAscii(tokens[t].text)) {
          h ^= static_cast<unsigned char>(c);
          h *= 1099511628211ULL;
        }
        Rng rng(h);
        for (int j = 0; j < dim_; ++j) {
          result.token_embeddings(static_cast<int>(t), j) =
              rng.NextFloat(-1.f, 1.f);
        }
      }
    }
    return result;
  }

  int calls() const { return calls_; }
  int batched_calls() const { return batched_calls_; }

 private:
  std::vector<Rule> rules_;
  int dim_;
  std::atomic<int> calls_{0};
  std::atomic<int> batched_calls_{0};
  std::string failpoint_name_ = "emd.mock.process";
};

/// While alive, forces the Globalizer onto its resilient paths — per-tweet
/// LocalEmdResilient and per-row classification — by arming a failpoint
/// that no code evaluates: AnyArmed() is true, yet nothing ever fires. The
/// reference those paths give must match the batched happy path bit for
/// bit. The re-scan stage has one embedding path, so it runs the same code
/// either way.
class ForceResilientPath {
 public:
  ForceResilientPath() {
    failpoint::EnableAfter(kName, Status::Internal("never evaluated"));
  }
  ~ForceResilientPath() { failpoint::Disable(kName); }
  ForceResilientPath(const ForceResilientPath&) = delete;
  ForceResilientPath& operator=(const ForceResilientPath&) = delete;

 private:
  static constexpr const char* kName = "test.resilient_path.unreached";
};

}  // namespace emd

#endif  // EMD_TESTS_MOCK_LOCAL_SYSTEM_H_
