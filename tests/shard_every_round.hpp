// Included by the suites that check the parallel round engine: it makes
// every round of a sharded network cross the pool barrier. By default a
// round with little work runs its shards in order on the calling thread
// (SyncNetwork::kInlineRoundItems), and these suites' graphs are small
// enough that most of their rounds would, leaving the concurrent path
// untested. Tests of the default itself set and restore the limit.
#pragma once

#include "sim/network.hpp"

namespace dec::test_support {

inline const bool kShardEveryRound = [] {
  SyncNetwork::set_inline_round_items(0);
  return true;
}();

}  // namespace dec::test_support
