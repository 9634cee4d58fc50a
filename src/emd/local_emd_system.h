// LocalEmdSystem: the pluggable "Local EMD" interface of the framework (§IV).
//
// Any system that (a) labels entity-mention spans in one tweet-sentence at a
// time and (b), if deep, exposes its penultimate-layer token embeddings, can
// be inserted into the EMD Globalizer unchanged. The four instantiations of
// the paper map to NpChunkerSystem, TwitterNlpSystem, AguilarNetSystem and
// MiniBertweetSystem.

#ifndef EMD_EMD_LOCAL_EMD_SYSTEM_H_
#define EMD_EMD_LOCAL_EMD_SYSTEM_H_

#include <string>
#include <vector>

#include "nn/matrix.h"
#include "nn/planner.h"
#include "text/token.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/result.h"

namespace emd {

/// Output of processing one tweet-sentence.
struct LocalEmdResult {
  /// Predicted entity-mention spans.
  std::vector<TokenSpan> mentions;
  /// "Entity-aware" token embeddings [T, d] from the final pre-classification
  /// layer (§IV). Empty for non-deep systems.
  Mat token_embeddings;
};

/// Interface implemented by every local EMD instantiation.
class LocalEmdSystem {
 public:
  virtual ~LocalEmdSystem() = default;

  /// Human-readable system name as used in the paper's tables.
  virtual std::string name() const = 0;

  /// True when the system produces token-level contextual embeddings.
  virtual bool is_deep() const = 0;

  /// True when Process may run concurrently from multiple threads on this
  /// one instance — i.e. Process keeps no mutable per-call state. The
  /// parallel batch engine fans the local stage's chunks across worker
  /// threads only for concurrent-safe systems; others either run serially or
  /// get per-worker replicas (Globalizer::set_worker_systems). The deep systems cache
  /// forward activations for backprop and therefore stay false.
  virtual bool concurrent_safe() const { return false; }

  /// Dimension of token embeddings (0 for non-deep systems).
  virtual int embedding_dim() const = 0;

  /// Processes one tweet-sentence in isolation.
  virtual LocalEmdResult Process(const std::vector<Token>& tokens) = 0;

  /// True when ProcessBatched fuses work across tweets (forward-pass
  /// planner). Descriptive only: the Globalizer calls ProcessBatched on every
  /// system, and one that returns false runs the per-tweet loop below.
  virtual bool batch_capable() const { return false; }

  /// Token-batched inference over one contiguous chunk of a batch: results
  /// is resized to tweets.size(), entry i corresponding to tweets[i] and
  /// equal to what Process(*tweets[i]) returns (bit-identical in fp32 —
  /// batching is a scheduling change, not a numeric one). `arena` owns all
  /// scratch; reusing one arena per worker lane makes the steady state
  /// allocation-free inside the planner. The Globalizer's local stage calls
  /// this, one call per lane chunk, whenever a batch is on the happy path (no
  /// local deadline, no armed failpoint, breaker closed); otherwise it runs
  /// TryProcess per tweet under the resilience ladder. So this entry point
  /// performs no fault injection of its own.
  virtual void ProcessBatched(
      const std::vector<const std::vector<Token>*>& tweets,
      ForwardArena* arena, std::vector<LocalEmdResult>* results) {
    (void)arena;
    results->clear();
    results->resize(tweets.size());
    for (std::size_t i = 0; i < tweets.size(); ++i) {
      (*results)[i] = Process(*tweets[i]);
    }
  }

  /// Failpoint evaluated by TryProcess before dispatching to Process;
  /// implementations override it with "emd.<system>.process".
  virtual const char* process_failpoint() const { return "emd.local.process"; }

  /// Fault-isolating wrapper around Process: the Globalizer calls this so a
  /// failing local system (today: an armed failpoint; in production: any
  /// future Status-returning implementation) quarantines one tweet instead of
  /// aborting the stream.
  Result<LocalEmdResult> TryProcess(const std::vector<Token>& tokens) {
    return TryProcess(tokens, Deadline::Infinite());
  }

  /// Deadline-aware variant: refuses to start once `deadline` has expired,
  /// and discards a result that finished past it (a slow success still blew
  /// the stage budget — the caller's retry/breaker decides what happens
  /// next). An infinite deadline never interferes.
  Result<LocalEmdResult> TryProcess(const std::vector<Token>& tokens,
                                    const Deadline& deadline) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(name(), ": deadline expired before local EMD");
    }
    EMD_RETURN_IF_ERROR(EMD_FAILPOINT(process_failpoint()));
    LocalEmdResult result = Process(tokens);
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(name(), ": local EMD overran its deadline");
    }
    return result;
  }
};

}  // namespace emd

#endif  // EMD_EMD_LOCAL_EMD_SYSTEM_H_
