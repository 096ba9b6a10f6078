// Directed-adapter tests: arc-indexed delivery in both directions, lane
// multiplexing for anti-parallel and parallel arcs, the free drain, audit
// accounting, and serial-vs-parallel equivalence of a directed node program.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/token_dropping.hpp"
#include "sim/dinetwork.hpp"
#include "util/rng.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

TEST(DiNetwork, DeliversAlongArcs) {
  // Directed cycle 0 -> 1 -> 2 -> 0: along-messages reach heads, nothing
  // arrives against the direction unless sent.
  const Digraph g(3, {{0, 1}, {1, 2}, {2, 0}});
  DiNetwork net(g);
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    out.along(0, {10 + v});
  });
  net.round_fast([&](NodeId v, const auto& in, DiOutbox&) {
    ASSERT_EQ(g.in(v).size(), 1u);
    const ArcView got = in.along(0);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.at(0), 10 + g.in(v)[0].node);
    EXPECT_TRUE(in.against(0).empty());  // nothing flowed backwards
  });
  EXPECT_EQ(net.rounds_executed(), 2);
}

TEST(DiNetwork, DeliversAgainstArcs) {
  const Digraph g(3, {{0, 1}, {1, 2}, {2, 0}});
  DiNetwork net(g, nullptr, "dinetwork", 1, SlotPlan{.max_fields = 2});
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    out.against(0, {100 + v, 7});  // head replies toward its in-arc's tail
  });
  net.round_fast([&](NodeId v, const auto& in, DiOutbox&) {
    const ArcView got = in.against(0);  // read on the out-arc at the tail
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got.at(0), 100 + g.out(v)[0].node);
    EXPECT_EQ(got.at(1), 7);
    EXPECT_TRUE(in.along(0).empty());
  });
}

TEST(DiNetwork, AntiparallelArcsAreIndependentLanes) {
  // 0 <-> 1: one support edge, two lanes; both forward channels used in the
  // same round must not interfere.
  const Digraph g(2, {{0, 1}, {1, 0}});
  DiNetwork net(g, nullptr, "dinetwork", 1, SlotPlan{.max_fields = 2});
  EXPECT_EQ(net.support().num_edges(), 1);
  EXPECT_EQ(net.lane_count(0), 2u);
  EXPECT_EQ(net.lane_count(1), 2u);
  EXPECT_NE(net.lane(0), net.lane(1));

  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    out.along(0, {1000 + v});        // forward on my out-arc
    out.against(0, {2000 + v, 42});  // backward on my in-arc
  });
  net.round_fast([](NodeId v, const auto& in, DiOutbox&) {
    const NodeId peer = 1 - v;
    const ArcView fwd = in.along(0);  // peer's forward send on my in-arc
    ASSERT_EQ(fwd.size(), 1u);
    EXPECT_EQ(fwd.at(0), 1000 + peer);
    const ArcView bwd = in.against(0);  // peer's backward send on my out-arc
    ASSERT_EQ(bwd.size(), 2u);
    EXPECT_EQ(bwd.at(0), 2000 + peer);
    EXPECT_EQ(bwd.at(1), 42);
  });
}

TEST(DiNetwork, ParallelArcsAreIndependentLanes) {
  // Two arcs 0 -> 1: one support edge, two lanes, distinct payloads per arc.
  const Digraph g(2, {{0, 1}, {0, 1}});
  DiNetwork net(g, nullptr, "dinetwork", 1, SlotPlan{.max_fields = 2});
  EXPECT_EQ(net.support().num_edges(), 1);
  EXPECT_EQ(net.lane_count(0), 2u);
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    if (v == 0) {
      out.along(0, {11});
      out.along(1, {22, 23});
    }
  });
  net.round_fast([](NodeId v, const auto& in, DiOutbox&) {
    if (v == 1) {
      ASSERT_EQ(in.along(0).size(), 1u);
      EXPECT_EQ(in.along(0).at(0), 11);
      ASSERT_EQ(in.along(1).size(), 2u);
      EXPECT_EQ(in.along(1).at(0), 22);
      EXPECT_EQ(in.along(1).at(1), 23);
    }
  });
}

TEST(DiNetwork, PartialLaneWritesLeaveOtherLanesEmpty) {
  // Only one lane of a two-lane edge written: the other must read empty,
  // not garbage from the frame.
  const Digraph g(2, {{0, 1}, {1, 0}});
  DiNetwork net(g);
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    if (v == 0) out.along(0, {5});
  });
  net.round_fast([](NodeId v, const auto& in, DiOutbox&) {
    if (v == 1) {
      ASSERT_EQ(in.along(0).size(), 1u);
      EXPECT_EQ(in.along(0).at(0), 5);
      EXPECT_TRUE(in.against(0).empty());
    }
    if (v == 0) {
      EXPECT_TRUE(in.along(0).empty());
      EXPECT_TRUE(in.against(0).empty());
    }
  });
}

TEST(DiNetwork, SingleLanePayloadsAreUnframed) {
  // With one lane per support edge the wire format is the raw payload, so
  // the audit charges exactly the solver's bits (here one field of value 5).
  const Digraph g(2, {{0, 1}});
  DiNetwork net(g);
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    if (v == 0) out.along(0, {5});
  });
  EXPECT_EQ(net.audit().messages_sent(), 1);
  EXPECT_EQ(net.audit().max_bits(), field_bits(5));
}

TEST(DiNetwork, DrainReadsLastRoundWithoutCharging) {
  const Digraph g(2, {{0, 1}});
  RoundLedger ledger;
  DiNetwork net(g, &ledger, "dtest");
  net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
    if (v == 0) out.along(0, {9});
  });
  bool saw = false;
  net.drain_fast([&](NodeId v, const auto& in) {
    if (v == 1 && !in.along(0).empty() && in.along(0).at(0) == 9) saw = true;
  });
  EXPECT_TRUE(saw);
  EXPECT_EQ(net.rounds_executed(), 1);
  EXPECT_EQ(ledger.component("dtest"), 1);
}

TEST(DiNetwork, ChargesLedgerPerRound) {
  const Digraph g(3, {{0, 1}, {1, 2}});
  RoundLedger ledger;
  DiNetwork net(g, &ledger, "game");
  for (int r = 0; r < 5; ++r) {
    net.round_fast([](NodeId, const auto&, DiOutbox&) {});
  }
  EXPECT_EQ(ledger.component("game"), 5);
  EXPECT_EQ(net.rounds_executed(), 5);
}

TEST(DiNetwork, RejectsOverwidePayload) {
  const Digraph g(2, {{0, 1}});
  DiNetwork net(g, nullptr, "dinetwork", 1,
                SlotPlan{.max_fields = DiNetwork::kMaxArcFields});
  EXPECT_THROW(
      net.round_fast([](NodeId v, const auto&, DiOutbox& out) {
        if (v == 0) out.along(0, {1, 2, 3, 4, 5});  // > kMaxArcFields
      }),
      CheckError);
}

// The same deterministic directed program on 1 vs 4 shards must agree on
// states, audit, and round count (the undirected engine already proves this
// for SyncNetwork; this covers the adapter's scratch/packing layer).
void check_directed_engine_equivalence(const Digraph& g) {
  auto run = [&](int threads) {
    DiNetwork net(g, nullptr, "d", threads, SlotPlan{.max_fields = 2});
    std::vector<std::int64_t> state(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      state[static_cast<std::size_t>(v)] = v + 1;
    }
    for (int r = 0; r < 6; ++r) {
      std::vector<std::int64_t> next(state);
      net.round_fast([&](NodeId v, const auto& in, DiOutbox& out) {
        std::int64_t acc = state[static_cast<std::size_t>(v)];
        for (std::size_t j = 0; j < g.in(v).size(); ++j) {
          const ArcView m = in.along(j);
          for (std::size_t i = 0; i < m.size(); ++i) acc += m.at(i) * 13;
        }
        for (std::size_t j = 0; j < g.out(v).size(); ++j) {
          const ArcView m = in.against(j);
          for (std::size_t i = 0; i < m.size(); ++i) acc -= m.at(i) * 7;
        }
        next[static_cast<std::size_t>(v)] = acc;
        // Odd rounds only send forward; even rounds also reply backward, so
        // stale lanes and absent messages are exercised.
        for (std::size_t j = 0; j < g.out(v).size(); ++j) {
          if ((v + r) % 3 != 0) out.along(j, {acc, v});
        }
        if (r % 2 == 0) {
          for (std::size_t j = 0; j < g.in(v).size(); ++j) {
            out.against(j, {acc ^ 17});
          }
        }
      });
      state = std::move(next);
    }
    return std::tuple(state, net.audit().max_bits(),
                      net.audit().messages_sent(), net.rounds_executed());
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(DiNetwork, ParallelMatchesSerialOnRandomGame) {
  Rng rng(77);
  check_directed_engine_equivalence(random_game(80, 0.06, rng));
}

TEST(DiNetwork, ParallelMatchesSerialOnLayeredGame) {
  Rng rng(78);
  check_directed_engine_equivalence(layered_game(4, 20, 3, rng));
}

TEST(DiNetwork, ParallelMatchesSerialWithAntiparallelPairs) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId i = 1; i <= 30; ++i) {
    arcs.emplace_back(0, i);
    arcs.emplace_back(i, 0);
  }
  check_directed_engine_equivalence(Digraph(31, std::move(arcs)));
}

}  // namespace
}  // namespace dec
