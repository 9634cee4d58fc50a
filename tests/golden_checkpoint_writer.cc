// Writes the golden v5 checkpoint fixture that
// AccountingTest.GoldenCheckpointRestoresAndResavesItsStateSection restores
// and re-saves:
//
//   ./build/tests/golden_checkpoint_writer tests/data/golden_v5.ckpt
//
// The pipeline is GoldenOptions() (churn_stream.h) over ChurnStream(112,
// 79), one quarantined tweet (37). Its governor trims and evicts by byte
// figures, so a tree whose byte accounting differs writes a different
// fixture. The committed file was written before the TweetBase's compact
// layout, whose accounting evicted 52 candidates and trimmed 104 of 112
// tweets at a 96 KiB budget; it pins the v5 bytes that layout must keep.
// Today's accounting counts fewer bytes, so GoldenOptions() budgets
// 56 640 B, where this tool writes an equivalent fixture (50 evicted, 96
// trimmed) that passes the same test; every budget from 56 400 to 56 880 B
// writes the same bytes. (56 KiB wrote them while the CTrie still counted
// short keys twice.) Regenerate the committed file only when the
// checkpoint format changes on purpose, retuning GoldenOptions() until the
// new file passes that test's coverage checks. The metrics block is written
// empty, so the state section is everything but the last 8 + 4 bytes.

#include <cstdio>
#include <string>

#include "churn_stream.h"
#include "core/phrase_embedder.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/failpoint.h"

int main(int argc, char** argv) {
  using namespace emd;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.ckpt\n", argv[0]);
    return 2;
  }
  const std::string out = argv[1];
  const Dataset d = ChurnStream(112, 79);
  const size_t batches = (d.tweets.size() + kBatch - 1) / kBatch;
  MockLocalSystem mock(ChurnRules(), /*dim=*/6);
  PhraseEmbedder pe(6, 4);
  Globalizer g(&mock, &pe, nullptr, GoldenOptions());
  failpoint::EnableAfter("emd.mock.process", Status::Internal("golden"),
                         /*skip=*/37, /*max_fires=*/1);
  for (size_t b = 0; b < batches; ++b) {
    const Status st = g.ProcessBatch(BatchAt(d, b));
    if (!st.ok()) {
      std::fprintf(stderr, "batch %zu: %s\n", b, st.ToString().c_str());
      return 1;
    }
  }
  failpoint::DisableAll();
  Result<std::string> state = SaveStateSection(g, out);
  if (!state.ok()) {
    std::fprintf(stderr, "%s\n", state.status().ToString().c_str());
    return 1;
  }
  binio::AppendU32(&*state, 0);  // counters
  binio::AppendU32(&*state, 0);  // histograms
  binio::AppendU32(&*state, Crc32(state->data(), state->size()));
  const Status written = WriteStringToFile(out, *state);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  const MemoryGovernorStats& gov = g.memory_governor().stats();
  std::printf("wrote %s: %zu bytes, %zu tweets, evicted %llu, trimmed %llu\n",
              out.c_str(), state->size(), g.tweet_base().size(),
              static_cast<unsigned long long>(gov.evicted_candidates),
              static_cast<unsigned long long>(gov.trimmed_tweets));
  return 0;
}
