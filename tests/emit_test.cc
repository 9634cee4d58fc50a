// The emitted table Finalize keeps between calls (label: parallel, so the
// TSan job runs it).
//
// Finalize appends the tweets processed since its last call and re-emits
// only the stored tweets that mention a candidate whose label crossed the
// output rule, found through the TweetBase postings. These tests pin:
//   * equivalence — after every Finalize the output equals a full re-emit
//     of the TweetBase, under eviction, tombstones, trims and γ-band sweeps
//     between calls, across a kill and restore, around a degraded call, in
//     every mode and at 1 and 3 shards;
//   * snapshots — an output a caller holds never changes, however many
//     batches and Finalizes follow, and can be read from another thread
//     while the owner keeps finalizing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "churn_stream.h"
#include "core/entity_classifier.h"
#include "core/globalizer.h"
#include "full_emit.h"
#include "mock_local_system.h"
#include "util/failpoint.h"

namespace emd {
namespace {

using Table = std::vector<std::vector<TokenSpan>>;

/// Scores the churn stream's candidates (6-dim syntactic embeddings) around
/// its thresholds, so verdicts flip in both directions as casing evidence
/// accrues and decays.
EntityClassifier ChurnClassifier() {
  return EntityClassifier({.input_dim = 7, .alpha = 0.487f, .beta = 0.479f});
}

/// GovernedOptions in kFull with a γ-band sweep every other batch: between
/// two Finalizes the governor evicts and prunes, and the sweep flips labels.
GlobalizerOptions FullGoverned(int shards) {
  GlobalizerOptions opt = GovernedOptions(shards, /*threads=*/4);
  opt.mode = GlobalizerOptions::Mode::kFull;
  opt.memory.reclassify_interval_batches = 2;
  return opt;
}

struct Plan {
  /// Batch after which the stream is checkpointed and resumed in a fresh
  /// Globalizer (-1 = never).
  int restore_after = -1;
  /// Batch whose Finalize runs with a failing classifier (-1 = none).
  int degrade_at = -1;
};

struct EmitRun {
  /// Stored tweets whose emitted spans changed after their first Finalize:
  /// the re-emits the postings drive.
  size_t reemitted = 0;
  /// The last Finalize's output; it outlives the Globalizer that made it.
  GlobalizerOutput last;
};

/// Streams ChurnStream(240, 67), finalizing after every batch. Each output
/// must equal a full re-emit; it is copied and dropped before the next call,
/// so the kept table is updated in place.
EmitRun RunEveryBatch(const GlobalizerOptions& opt, const Plan& plan = {}) {
  const Dataset d = ChurnStream(240, 67);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const EntityClassifier clf = ChurnClassifier();
  const EntityClassifier* classifier =
      opt.mode == GlobalizerOptions::Mode::kFull ? &clf : nullptr;
  MockLocalSystem mock(ChurnRules());
  auto g = std::make_unique<Globalizer>(&mock, nullptr, classifier, opt);
  const std::string path = ::testing::TempDir() + "emd_emit_test.ckpt";

  EmitRun run;
  Table prev;
  for (size_t b = 0; b < batches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    EXPECT_TRUE(g->ProcessBatch(BatchAt(d, b)).ok());
    const bool degrade = static_cast<int>(b) == plan.degrade_at;
    if (degrade) {
      failpoint::EnableAfter("core.entity_classifier.classify",
                             Status::Internal("down"), /*skip=*/0,
                             /*max_fires=*/-1);
    }
    {
      const GlobalizerOutput out = g->Finalize().value();
      failpoint::DisableAll();
      EXPECT_EQ(out.classifier_degraded, degrade);
      ExpectEqualsFullReEmit(*g, opt, out);
      for (size_t i = 0; i < prev.size(); ++i) {
        run.reemitted += out.mentions[i] != prev[i];
      }
      prev = out.mentions;
      if (b + 1 == batches) run.last = out;
    }
    if (static_cast<int>(b) == plan.restore_after) {
      EXPECT_TRUE(g->SaveCheckpoint(path).ok());
      g = std::make_unique<Globalizer>(&mock, nullptr, classifier, opt);
      EXPECT_TRUE(g->RestoreCheckpoint(path).ok());
      std::remove(path.c_str());
    }
  }
  return run;
}

// ------------------------------------------------------- Equivalence --

TEST(EmitTest, EveryFinalizeEqualsAFullReEmitUnderChurn) {
  Table want;
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const EmitRun run = RunEveryBatch(FullGoverned(shards));
    // The fixture covers what falls between two calls.
    EXPECT_GT(run.reemitted, 0u);
    EXPECT_GT(run.last.num_evicted, 0u);
    EXPECT_GT(run.last.num_pruned_nodes, 0u);
    EXPECT_GT(run.last.num_reclassified, 0u);
    if (want.empty()) want = run.last.mentions;
    EXPECT_EQ(run.last.mentions, want) << "shard count changed the output";
  }
}

TEST(EmitTest, KillAndRestoreMidStreamThenFinalize) {
  // A restored Globalizer starts with an empty table: its first Finalize
  // emits every stored tweet, and later ones update that table.
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const EmitRun run =
        RunEveryBatch(FullGoverned(shards), {.restore_after = 12});
    EXPECT_GT(run.reemitted, 0u);
  }
}

TEST(EmitTest, DegradedFinalizeThenANormalOne) {
  // The degraded call emits every stored mention; the next call classifies
  // again and rebuilds the table under the output rule.
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const EmitRun run = RunEveryBatch(FullGoverned(shards), {.degrade_at = 12});
    EXPECT_GT(run.reemitted, 0u);
  }
}

TEST(EmitTest, LocalOnlyAndMentionExtractionEmitEveryStoredMention) {
  for (const auto mode : {GlobalizerOptions::Mode::kLocalOnly,
                          GlobalizerOptions::Mode::kMentionExtraction}) {
    for (const int shards : {1, 3}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   " shards " + std::to_string(shards));
      GlobalizerOptions opt = GovernedOptions(shards, /*threads=*/4);
      opt.mode = mode;
      const EmitRun run = RunEveryBatch(opt, {.restore_after = 12});
      EXPECT_EQ(run.reemitted, 0u) << "no label decides these outputs";
    }
  }
}

// --------------------------------------------------------- Snapshots --

/// Order-sensitive digest of a table, read element by element.
uint64_t Digest(const Table& mentions) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::vector<TokenSpan>& spans : mentions) {
    h = (h ^ (spans.size() + 0x9E37)) * 1099511628211ULL;
    for (const TokenSpan& s : spans) {
      h = (h ^ s.begin) * 1099511628211ULL;
      h = (h ^ (s.end + 0x100000)) * 1099511628211ULL;
    }
  }
  return h;
}

TEST(EmitTest, HeldOutputNeverChanges) {
  const Dataset d = ChurnStream(240, 67);
  const GlobalizerOptions opt = FullGoverned(1);
  const EntityClassifier clf = ChurnClassifier();
  MockLocalSystem mock(ChurnRules());
  Globalizer g(&mock, nullptr, &clf, opt);
  for (size_t b = 0; b < 12; ++b) ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
  const GlobalizerOutput held = g.Finalize().value();
  const Table copy = held.mentions;

  GlobalizerOutput latest;
  for (size_t b = 12; b < 18; ++b) {
    ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    if (b % 2 == 1) latest = g.Finalize().value();  // three more calls
  }
  EXPECT_EQ(held.mentions, copy);
  ExpectEqualsFullReEmit(g, opt, latest);
  // The later calls did re-emit tweets the held output covers, so it was
  // kept apart from a table that changed.
  bool changed = false;
  for (size_t i = 0; i < copy.size(); ++i) {
    changed = changed || latest.mentions[i] != copy[i];
  }
  EXPECT_TRUE(changed);
}

TEST(EmitTest, ReaderThreadReadsAHeldOutputWhileTheOwnerFinalizes) {
  const Dataset d = ChurnStream(240, 67);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  const GlobalizerOptions opt = FullGoverned(3);
  const EntityClassifier clf = ChurnClassifier();
  MockLocalSystem mock(ChurnRules());
  Globalizer g(&mock, nullptr, &clf, opt);
  for (size_t b = 0; b < 6; ++b) ASSERT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());

  // A reader holds an output and reads it over and over while the owner
  // processes batches and finalizes: the owner copies the table it shares.
  auto held = std::make_unique<GlobalizerOutput>(g.Finalize().value());
  const uint64_t want = Digest(held->mentions);
  std::atomic<size_t> batches_done{6};
  std::atomic<int> mismatches{0};
  std::thread reader([&, out = std::move(held)] {
    for (int reads = 0; batches_done.load() < batches / 2 || reads < 8;
         ++reads) {
      if (Digest(out->mentions) != want) ++mismatches;
    }
  });
  size_t b = 6;
  for (; b < batches / 2 + 2; ++b) {
    EXPECT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    const GlobalizerOutput out = g.Finalize().value();
    ExpectEqualsFullReEmit(g, opt, out);
    batches_done.store(b + 1);
  }
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  // A reader reads an output and drops it. The owner learns of the drop
  // only through a relaxed flag, so nothing but the output's release of its
  // hold orders the reader's reads before the owner's next Finalize, which
  // then writes the table in place.
  for (; b < batches; ++b) {
    auto out = std::make_unique<GlobalizerOutput>(g.Finalize().value());
    const uint64_t digest = Digest(out->mentions);
    std::atomic<bool> dropped{false};
    std::thread last_reader([&, out = std::move(out)]() mutable {
      if (Digest(out->mentions) != digest) ++mismatches;
      out.reset();
      dropped.store(true, std::memory_order_relaxed);
    });
    EXPECT_TRUE(g.ProcessBatch(BatchAt(d, b)).ok());
    while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
    ExpectEqualsFullReEmit(g, opt, g.Finalize().value());
    last_reader.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace emd
