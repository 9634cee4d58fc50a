// Shared assertion for the running byte totals: every O(1) ApproxBytes()
// read of the global state's stores must equal the full RecountBytes() walk
// of the same store. (The TweetBase keeps no running total: its figure is
// its array capacities, read directly.) Fatal on the first mismatch; wrap a
// call in ASSERT_NO_FATAL_FAILURE to stop the caller too.

#ifndef EMD_TESTS_BYTE_ACCOUNTING_H_
#define EMD_TESTS_BYTE_ACCOUNTING_H_

#include <gtest/gtest.h>

#include "core/global_state.h"
#include "core/globalizer.h"

namespace emd {

inline void ExpectByteTotalsMatchRecount(const ShardedGlobalState& state) {
  for (int s = 0; s < state.shard_count(); ++s) {
    ASSERT_EQ(state.ShardApproxBytes(s), state.ShardRecountBytes(s))
        << "shard " << s;
  }
  ASSERT_EQ(state.symbols().ApproxBytes(), state.symbols().RecountBytes());
  ASSERT_EQ(state.ApproxBytes(), state.RecountBytes());
  ASSERT_EQ(state.GovernedBytes(), state.RecountGovernedBytes());
}

inline void ExpectByteTotalsMatchRecount(const Globalizer& g) {
  ExpectByteTotalsMatchRecount(g.global_state());
}

}  // namespace emd

#endif  // EMD_TESTS_BYTE_ACCOUNTING_H_
