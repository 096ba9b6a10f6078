// Regression pin for defective_refine's dirty-flag announce optimization:
// re-broadcasting only changed colors must not change the algorithm — the
// audited round count and the final coloring are bit-identical to the full
// re-broadcast — while the substrate message count drops strictly on any
// instance where most colors stabilize early (which is the normal case: a
// class-step only moves an independent set of over-threshold nodes).
#include <gtest/gtest.h>

#include <tuple>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

auto trajectory_key(const DefectiveResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.max_defect, r.sweeps,
                    r.converged, r.max_message_bits);
}

TEST(RefineDirtyAnnounce, BitIdenticalAndStrictlyFewerMessages) {
  Rng rng(55);
  const Graph g = gen::random_regular(200, 8, rng);
  const LinialResult lin = linial_color(g);
  const int threshold = g.max_degree() / 4 + 2;

  RoundLedger ledger_full, ledger_dirty;
  const DefectiveResult full =
      defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                       &ledger_full, 1, /*dirty_announce=*/false);
  const DefectiveResult dirty =
      defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                       &ledger_dirty, 1, /*dirty_announce=*/true);

  // Same trajectory: rounds, sweeps, and every color bit-identical (the
  // caches only ever serve values the neighbor would have re-sent).
  EXPECT_EQ(trajectory_key(full), trajectory_key(dirty));
  EXPECT_EQ(ledger_full.component("defective_refine"),
            ledger_dirty.component("defective_refine"));

  // Strictly fewer substrate messages: after the first announce round, only
  // movers re-broadcast. Most nodes never move, so the drop is large —
  // assert a conservative 2x, not just strictness.
  EXPECT_LT(dirty.messages, full.messages);
  EXPECT_LT(2 * dirty.messages, full.messages);
}

TEST(RefineDirtyAnnounce, BitIdenticalUnderParallelEngine) {
  Rng rng(56);
  const Graph g = gen::gnp(120, 0.08, rng);
  const LinialResult lin = linial_color(g);
  const int threshold = g.max_degree() / 4 + 1;

  const DefectiveResult full =
      defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                       nullptr, 1, /*dirty_announce=*/false);
  for (const int threads : {1, 2, 4}) {
    const DefectiveResult dirty =
        defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                         nullptr, threads, /*dirty_announce=*/true);
    EXPECT_EQ(trajectory_key(full), trajectory_key(dirty))
        << "threads " << threads;
    EXPECT_LT(dirty.messages, full.messages) << "threads " << threads;
  }
}

}  // namespace
}  // namespace dec
