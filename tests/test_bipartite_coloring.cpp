// Tests for the (2+ε)Δ bipartite edge coloring (Lemma 6.1).
#include <gtest/gtest.h>

#include "core/bipartite_coloring.hpp"
#include "graph/generators.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

TEST(BipartiteColoring, ProperOnRegularGraphs) {
  for (const int d : {4, 8, 16}) {
    const auto bg = gen::regular_bipartite(8 * d, d);
    const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
    EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
    for (const Color c : r.colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, r.palette);
    }
  }
}

TEST(BipartiteColoring, PaletteWithinTwoPlusEpsDelta) {
  for (const int d : {8, 16, 32, 64}) {
    const auto bg = gen::regular_bipartite(4 * d, d);
    const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
    // (2+ε)Δ with ε = 1: palette <= 3Δ.
    EXPECT_LE(r.palette, 3 * d) << "d=" << d;
    EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  }
}

TEST(BipartiteColoring, ShardedRunsAreBitIdentical) {
  // The recursive halving feeds every split through the substrate's
  // defective 2EC; sharding that engine must not change a single color or
  // the parallel-part round accounting.
  const auto bg = gen::regular_bipartite(64, 16);
  RoundLedger serial_ledger;
  const auto serial = bipartite_edge_coloring(bg.graph, bg.parts, 1.0,
                                              ParamMode::kPractical,
                                              &serial_ledger, 1);
  for (const int threads : {2, 4}) {
    RoundLedger ledger;
    const auto parallel = bipartite_edge_coloring(
        bg.graph, bg.parts, 1.0, ParamMode::kPractical, &ledger, threads);
    EXPECT_EQ(serial.colors, parallel.colors) << "threads " << threads;
    EXPECT_EQ(serial.rounds, parallel.rounds) << "threads " << threads;
    EXPECT_EQ(serial.palette, parallel.palette) << "threads " << threads;
    EXPECT_EQ(serial_ledger.breakdown(), ledger.breakdown())
        << "threads " << threads;
  }
}

TEST(BipartiteColoring, DisjointRangesPerPart) {
  const auto bg = gen::regular_bipartite(256, 128);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  if (r.levels > 0) {
    EXPECT_EQ(r.palette, (1 << r.levels) * (r.leaf_degree_bound + 1));
  }
}

TEST(BipartiteColoring, IrregularGraphs) {
  Rng rng(80);
  const auto bg = gen::random_bipartite(120, 120, 0.1, rng);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 0.5);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  EXPECT_LE(r.palette, 2 * bg.graph.max_edge_degree() + 8);
}

TEST(BipartiteColoring, EmptyGraph) {
  const auto bg = gen::regular_bipartite(4, 0);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_EQ(r.palette, 0);
}

TEST(BipartiteColoring, SmallEpsilonSkipsSplitting) {
  // A tight palette budget forbids levels; the leaf pipeline handles all.
  const auto bg = gen::regular_bipartite(64, 8);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 0.05);
  EXPECT_EQ(r.levels, 0);
  EXPECT_LE(r.palette, bg.graph.max_edge_degree() + 1);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
}

TEST(BipartiteColoring, RejectsBadEps) {
  const auto bg = gen::regular_bipartite(4, 1);
  EXPECT_THROW(bipartite_edge_coloring(bg.graph, bg.parts, 0.0), CheckError);
  EXPECT_THROW(bipartite_edge_coloring(bg.graph, bg.parts, 1.5), CheckError);
}

TEST(BipartiteColoring, MatchingIsOneColor) {
  const auto bg = gen::regular_bipartite(10, 1);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_LE(r.palette, 1);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
}

}  // namespace
}  // namespace dec
