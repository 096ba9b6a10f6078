// Slot plane tests: 16 B slot layout, delivery semantics (inline and
// slab-spilled payloads, epoch gating, drain), declared-width enforcement
// (throws with an actionable message, never truncates, network stays usable
// after the rollback), plan validation, per-lease width re-declaration, the
// run-state byte count (two 16 B planes per slot), and epoch renormalization
// (solvers run across it bit-identically to a fresh network).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

static_assert(sizeof(NarrowSlot) == 16,
              "the narrow plane's whole point is the 16 B slot");

SlotPlan narrow(int max_fields) {
  return SlotPlan{.max_fields = max_fields};
}

// ------------------------------------------------------------ delivery

TEST(NarrowSlots, SingleFieldRoundTrip) {
  for (const int threads : {1, 2, 4}) {
    const Graph g = gen::cycle(7);
    SyncNetwork net(g, nullptr, "narrow_echo", threads, narrow(1));
    EXPECT_EQ(net.declared_fields(), 1);

    // Round 0: inbox must read all-empty (epoch gating), then everyone
    // announces its id.
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_TRUE(in[i].empty());
      }
      for (auto&& m : out) m.assign({v});
    });
    // Drain: entry i is what g.neighbors(v)[i] sent.
    net.drain_fast([&](NodeId v, const auto& in) {
      const auto nb = g.neighbors(v);
      ASSERT_EQ(in.size(), nb.size());
      for (std::size_t i = 0; i < nb.size(); ++i) {
        ASSERT_FALSE(in[i].empty());
        EXPECT_EQ(in[i].size(), 1u);
        EXPECT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
      }
    });
    EXPECT_EQ(net.rounds_executed(), 1);
    EXPECT_EQ(net.audit().messages_sent(),
              static_cast<std::int64_t>(2 * g.num_edges()));
  }
}

TEST(NarrowSlots, SpilledPayloadRoundTrip) {
  // declared width 3: count 1 stays in the slot, counts 2..3 spill to the
  // shard slab. Multiple rounds exercise the per-round slab rewind and the
  // read-plane spill resolution both mid-round and during the final drain.
  for (const int threads : {1, 2, 4}) {
    Rng rng(7);
    const Graph g = gen::gnp(40, 0.2, rng);
    SyncNetwork net(g, nullptr, "narrow_spill", threads, narrow(3));
    for (int r = 0; r < 3; ++r) {
      net.round_fast([&](NodeId v, const auto& in, auto&& out) {
        if (r > 0) {
          const auto nb = g.neighbors(v);
          for (std::size_t i = 0; i < in.size(); ++i) {
            const auto& m = in[i];
            const auto w = static_cast<std::int64_t>(nb[i].neighbor);
            ASSERT_EQ(m.size(), 3u);
            EXPECT_EQ(m.at(0), w);
            EXPECT_EQ(m.at(1), w + r - 1);
            EXPECT_EQ(m.at(2), -w);
          }
        }
        for (auto&& m : out) m.assign({v, v + r, -static_cast<std::int64_t>(v)});
      });
    }
    net.drain_fast([&](NodeId v, const auto& in) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const auto w = static_cast<std::int64_t>(nb[i].neighbor);
        // Range-for over the view's fields via the iterator form too.
        std::vector<std::int64_t> got;
        for (const std::int64_t f : in[i].fields()) got.push_back(f);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got[0], w);
        EXPECT_EQ(got[1], w + 2);
        EXPECT_EQ(got[2], -w);
      }
    });
  }
}

TEST(NarrowSlots, InboxIterationMatchesIndexing) {
  const Graph g = gen::star(5);
  SyncNetwork net(g, nullptr, "narrow_iter", 1, narrow(2));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    std::size_t i = 0;
    for (auto&& m : out) {
      m.assign({v, static_cast<std::int64_t>(i)});
      ++i;
    }
  });
  net.drain_fast([&](NodeId v, const auto& in) {
    std::size_t i = 0;
    for (const auto& m : in) {  // by-value views; const auto& binds fine
      ASSERT_FALSE(m.empty());
      EXPECT_EQ(m.at(0), in[i].at(0));
      EXPECT_EQ(m.at(1), in[i].at(1));
      ++i;
    }
    EXPECT_EQ(i, in.size());
  });
}

TEST(NarrowSlots, ResetInvalidatesDeliveredPlane) {
  const Graph g = gen::cycle(4);
  SyncNetwork net(g, nullptr, "narrow_reset", 1, narrow(1));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  net.reset();
  EXPECT_EQ(net.rounds_executed(), 0);
  net.drain_fast([&](NodeId, const auto& in) {
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_TRUE(in[i].empty());
  });
}

// ------------------------------------------------- declared-width violations

TEST(NarrowSlots, WidthViolationThrowsActionably) {
  const Graph g = gen::cycle(6);
  SyncNetwork net(g, nullptr, "narrow_overflow", 1, narrow(2));
  try {
    net.round_fast([&](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v, v, v});  // 3 > declared 2
    });
    FAIL() << "over-wide message must throw, never truncate";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("message wider than the protocol's declared slot "
                        "plan"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("component 'narrow_overflow'"), std::string::npos);
    EXPECT_NE(what.find("round 0"), std::string::npos);
    EXPECT_NE(what.find("node 0"), std::string::npos);
    EXPECT_NE(what.find("reached 3 fields"), std::string::npos);
    EXPECT_NE(what.find("declared max_fields=2"), std::string::npos);
    EXPECT_NE(what.find("raise the lease's declared max_fields (at most "
                        "255)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("never truncates"), std::string::npos);
  }
  // The aborted round rolled back: no round charged, and the network is
  // fully usable afterwards.
  EXPECT_EQ(net.rounds_executed(), 0);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v, v + 1});
  });
  net.drain_fast([&](NodeId v, const auto& in) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(in[i].size(), 2u);
      EXPECT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
    }
  });
  EXPECT_EQ(net.rounds_executed(), 1);
}

TEST(NarrowSlots, WidthViolationThrowsSharded) {
  // The violating node program runs on a pool worker; the throw must cross
  // the round barrier and the round must roll back.
  const Graph g = gen::grid(8, 8);
  SyncNetwork net(g, nullptr, "narrow_overflow_par", 4, narrow(1));
  EXPECT_THROW(net.round_fast([&](NodeId v, const auto&, auto&& out) {
                 if (v == 37) {
                   for (auto&& m : out) m.assign({1, 2});
                 } else {
                   for (auto&& m : out) m.assign({v});
                 }
               }),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 0);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  EXPECT_EQ(net.rounds_executed(), 1);
}

TEST(NarrowSlots, ArcWidthViolationThrowsActionably) {
  const Digraph dg(3, {{0, 1}, {1, 2}, {2, 0}});
  DiNetwork net(dg, nullptr, "di_overflow", 1, narrow(1));
  try {
    net.round_fast([&](NodeId, const auto&, DiOutbox& out) {
      out.along(0, {1, 2});  // 2 > declared arc width 1
    });
    FAIL() << "over-wide arc payload must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arc payload wider than the protocol's declared arc "
                        "plan"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("component 'di_overflow'"), std::string::npos);
    EXPECT_NE(what.find("max_fields=1"), std::string::npos);
    EXPECT_NE(what.find("never truncates"), std::string::npos);
  }
}

// ---------------------------------------------------- plan validation/guards

TEST(NarrowSlots, PlanValidation) {
  const Graph g = gen::cycle(3);
  EXPECT_THROW(SyncNetwork(g, nullptr, "bad", 1, narrow(0)), CheckError);
  EXPECT_THROW(SyncNetwork(g, nullptr, "bad", 1, narrow(256)), CheckError);
  EXPECT_THROW(SyncNetwork(g, nullptr, "bad", 1, narrow(-1)), CheckError);
  EXPECT_NO_THROW(SyncNetwork(g, nullptr, "ok", 1, narrow(255)));
}

TEST(NarrowSlots, RebindRedeclaresWidthButNotPlaneMode) {
  const Graph g = gen::cycle(5);
  auto topo = NetworkTopology::plan(g, 1);
  SyncNetwork net(g, topo, nullptr, "rebind", narrow(1));
  // Same plane mode, wider declaration: the spill path must now work.
  net.rebind(g, topo, nullptr, "rebind", narrow(3));
  EXPECT_EQ(net.declared_fields(), 3);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v, v, v});
  });
  net.drain_fast([&](NodeId, const auto& in) {
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(in[i].size(), 3u);
  });
  // The plane mode is structural: a rebind cannot flip it.
  EXPECT_THROW(net.rebind(g, topo, nullptr, "rebind",
                          SlotPlan{.max_fields = 1, .mode = PlaneMode::kSingle}),
               CheckError);
}

// ------------------------------------------------------------ memory

TEST(NarrowSlots, MemoryBytesAreTwoSixteenBytePlanes) {
  // A width-1 double-plane run state is two 16 B slot planes plus the
  // touched lists (4 B per written slot) and a few shard boundaries; a
  // width-1 lease never spills, so its slabs stay empty.
  Rng rng(11);
  const Graph g = gen::random_regular(512, 8, rng);
  SyncNetwork net(g, nullptr, "mem", 1, narrow(1));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  const std::size_t slots = net.num_slots();
  EXPECT_GE(net.memory_bytes(), 2 * 16 * slots);
  EXPECT_LE(net.memory_bytes(), (2 * 16 + 4) * slots + 64);
}

// ------------------------------------------------- epoch renormalization

// Seeding a pooled run state two bumps below kEpochRenormalizeAt makes the
// solver's own lease (a same-shape rebind: one reset bump) cross the
// renormalization at its second round, with a live delivery in flight.
constexpr std::uint32_t kSeedEpoch = SyncNetwork::kEpochRenormalizeAt - 2;

auto linial_key(const LinialResult& r, const RoundLedger& l) {
  return std::tuple(r.colors, r.palette, r.rounds, r.iterations,
                    r.max_message_bits, l.breakdown());
}

auto defective_key(const DefectiveResult& r, const RoundLedger& l) {
  return std::tuple(r.colors, r.palette, r.rounds, r.max_defect, r.sweeps,
                    r.converged, r.max_message_bits, r.messages,
                    l.breakdown());
}

auto token_key(const TokenDroppingResult& r, const RoundLedger& l) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits, l.breakdown());
}

TEST(EpochWrap, LinialAndRefineMatchFreshAcrossRenormalization) {
  Rng rng(77);
  const Graph g = gen::random_regular(200, 4, rng);  // Linial: 2 rounds
  const LinialResult lin = linial_color(g);
  const int threshold = g.max_degree() / 4 + 2;
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2}) {
      const std::string where = std::string(mode == PlaneMode::kDouble
                                                ? "double"
                                                : "single") +
                                " plane, " + std::to_string(threads) +
                                " shard(s)";
      const SlotPlan plan{.max_fields = 1, .mode = mode};
      NetworkPool pool(threads);
      const auto seed = [&] {
        pool.network(g, nullptr, "seed", plan)->seed_epoch_for_testing(
            kSeedEpoch);
      };
      const auto renormalized = [&] {
        return pool.network(g, nullptr, "check", plan)->epoch() < kSeedEpoch;
      };

      RoundLedger fresh_l, wrap_l;
      const LinialResult fresh = linial_color(g, &fresh_l, {}, 0, threads,
                                              nullptr, nullptr, mode);
      seed();
      const LinialResult wrapped =
          linial_color(g, &wrap_l, {}, 0, threads, &pool, nullptr, mode);
      ASSERT_GE(wrapped.rounds, 2) << where;
      EXPECT_TRUE(renormalized()) << where;
      EXPECT_EQ(linial_key(fresh, fresh_l), linial_key(wrapped, wrap_l))
          << "linial, " << where;

      RoundLedger rfresh_l, rwrap_l;
      const DefectiveResult rfresh =
          defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                           &rfresh_l, threads, true, nullptr, nullptr, mode);
      seed();
      const DefectiveResult rwrapped =
          defective_refine(g, lin.colors, lin.palette, 4, threshold, 256,
                           &rwrap_l, threads, true, &pool, nullptr, mode);
      ASSERT_GE(rwrapped.rounds, 2) << where;
      EXPECT_TRUE(renormalized()) << where;
      EXPECT_EQ(defective_key(rfresh, rfresh_l),
                defective_key(rwrapped, rwrap_l))
          << "defective refine, " << where;
    }
  }
}

TEST(EpochWrap, TokenDroppingMatchesFreshAcrossRenormalization) {
  // Token dropping drains its last round, so it runs double-plane only.
  Rng rng(78);
  const Digraph game = layered_game(4, 12, 3, rng);
  TokenDroppingParams p;
  p.k = 6;
  p.delta = 2;
  std::vector<int> init(static_cast<std::size_t>(game.num_nodes()));
  for (auto& t : init) t = static_cast<int>(rng.next_u64() % (p.k + 1));
  for (const int threads : {1, 2}) {
    NetworkPool pool(threads);
    const SlotPlan arc_plan{.max_fields = 2};
    RoundLedger fresh_l, wrap_l;
    const TokenDroppingResult fresh =
        run_token_dropping(game, init, p, &fresh_l, threads);
    pool.dinetwork(game, nullptr, "seed", arc_plan)
        ->seed_epoch_for_testing(kSeedEpoch);
    const TokenDroppingResult wrapped =
        run_token_dropping(game, init, p, &wrap_l, threads, &pool);
    ASSERT_GE(wrapped.rounds, 2);
    EXPECT_LT(pool.dinetwork(game, nullptr, "check", arc_plan)->epoch(),
              kSeedEpoch);
    EXPECT_EQ(token_key(fresh, fresh_l), token_key(wrapped, wrap_l))
        << threads << " shard(s)";
  }
}

TEST(EpochWrap, RenormalizationKeepsTheLiveDeliveryOnly) {
  // At the boundary round the slots carrying the live delivery (including
  // a spilled payload) must still read back, while every older tag stays
  // stale; afterwards the counter restarts near zero.
  const Graph g = gen::path(3);
  SyncNetwork net(g, nullptr, "wrap", 1, SlotPlan{.max_fields = 2});
  net.seed_epoch_for_testing(SyncNetwork::kEpochRenormalizeAt - 1);
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    if (v == 1) out[0].assign({7, 8});  // 1 -> 0, spilled; 1 -> 2 silent
  });
  net.round_fast([](NodeId v, const auto& in, auto&&) {
    if (v == 0) {
      ASSERT_EQ(in[0].size(), 2u);
      EXPECT_EQ(in[0].at(0), 7);
      EXPECT_EQ(in[0].at(1), 8);
    } else {
      for (std::size_t i = 0; i < in.size(); ++i) EXPECT_TRUE(in[i].empty());
    }
  });
  EXPECT_EQ(net.epoch(), 2u);
  EXPECT_EQ(net.rounds_executed(), 2);
}

}  // namespace
}  // namespace dec
