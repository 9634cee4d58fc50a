// Writes a golden v5 checkpoint fixture with WriteGoldenCheckpoint
// (churn_stream.h):
//
//   ./build/tests/golden_checkpoint_writer tests/data/golden_v5.ckpt
//
// AccountingTest.GoldenCheckpointRestoresAndResavesItsStateSection runs the
// same pipeline, so the file this tool writes passes that test's coverage
// and re-save checks whenever the test passes. The pipeline's governor
// evicts by byte figures, so a tree whose byte accounting differs writes a
// different fixture, and GoldenOptions()'s budget is retuned when the test's
// fresh fixture stops covering what it checks. Every record it writes is in
// the trimmed form: the TweetBase stores no token text.
//
// The committed tests/data/golden_v5.ckpt was written when the TweetBase
// still stored token text, before its compact layout; that accounting
// evicted 52 candidates and trimmed 104 of 112 tweets at a 96 KiB budget.
// It pins the v5 bytes that every later build must keep reading: its token
// lists are validated and dropped, and a re-save writes its records in the
// trimmed form. Regenerate it only when the checkpoint format changes on
// purpose.

#include <cstdio>
#include <string>

#include "churn_stream.h"

int main(int argc, char** argv) {
  using namespace emd;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.ckpt\n", argv[0]);
    return 2;
  }
  const Result<MemoryGovernorStats> gov = WriteGoldenCheckpoint(argv[1]);
  if (!gov.ok()) {
    std::fprintf(stderr, "%s\n", gov.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: evicted %llu, pruned nodes %llu\n", argv[1],
              static_cast<unsigned long long>(gov->evicted_candidates),
              static_cast<unsigned long long>(gov->pruned_nodes));
  return 0;
}
