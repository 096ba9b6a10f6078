// Slot plane tests: 16 B slot layout, delivery semantics (inline and
// slab-spilled payloads, epoch gating, drain), declared-width enforcement
// (throws with an actionable message, never truncates, network stays usable
// after the rollback), plan validation, per-lease width re-declaration, the
// run-state byte count (two 16 B planes per slot), epoch renormalization
// (solvers run across it bit-identically to a fresh network), and the
// quiet-inbox bit (never true for an inbox with mail, under every way a
// round can start, end or be skipped).
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
#include "sim/cancel.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"
#include "shard_every_round.hpp"

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
  // touched lists (4 B per written slot), the two 1 B per-node mail tag
  // arrays and a few shard boundaries; a width-1 lease never spills, so its
  // slabs stay empty.
  Rng rng(11);
  const Graph g = gen::random_regular(512, 8, rng);
  SyncNetwork net(g, nullptr, "mem", 1, narrow(1));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  const std::size_t slots = net.num_slots();
  const auto nodes = static_cast<std::size_t>(g.num_nodes());
  EXPECT_GE(net.memory_bytes(), 2 * 16 * slots + 2 * nodes);
  EXPECT_LE(net.memory_bytes(), (2 * 16 + 4) * slots + 2 * nodes + 64);
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


// ------------------------------------------------------------ quiet inboxes

// What one round's inboxes looked like: quiet() against a brute-force scan.
struct QuietTally {
  int false_negatives = 0;  // quiet() true, yet an entry had mail
  int quiet = 0;            // inboxes that read quiet
  int mail = 0;             // inboxes with at least one non-empty entry
};

QuietTally tally(const std::vector<char>& quiet, const std::vector<char>& mail) {
  QuietTally t;
  for (std::size_t v = 0; v < quiet.size(); ++v) {
    t.false_negatives += quiet[v] != 0 && mail[v] != 0;
    t.quiet += quiet[v] != 0;
    t.mail += mail[v] != 0;
  }
  return t;
}

// Send schedules: which ports node v writes in round r.
enum class Traffic { kSilent, kSparse, kHalf, kDense };

bool sends(Traffic t, NodeId v, std::size_t port, NodeId n, int r) {
  switch (t) {
    case Traffic::kSilent:
      return false;
    case Traffic::kSparse:  // a few nodes, one port each
      return port == 0 && (v + r) % 61 == 0;
    case Traffic::kHalf:  // dense in the low shards, silent in the others
      return v < n / 2;
    case Traffic::kDense:
      return true;
  }
  return false;
}

// One round under schedule `t` that records every inbox's quiet() and a
// brute-force scan of its entries (read before writing: the single plane
// forbids the other order). Per-node records keep the sharded engine's
// writes node-confined.
QuietTally probe_round(SyncNetwork& net, Traffic t, int r) {
  const NodeId n = net.graph().num_nodes();
  std::vector<char> quiet(static_cast<std::size_t>(n), 0);
  std::vector<char> mail(static_cast<std::size_t>(n), 0);
  net.round_fast([&](NodeId v, const auto& in, auto&& out) {
    quiet[static_cast<std::size_t>(v)] = in.quiet();
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!in[i].empty()) mail[static_cast<std::size_t>(v)] = 1;
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (sends(t, v, i, n, r)) out[i].assign({v});
    }
  });
  return tally(quiet, mail);
}

QuietTally probe_drain(SyncNetwork& net) {
  const NodeId n = net.graph().num_nodes();
  std::vector<char> quiet(static_cast<std::size_t>(n), 0);
  std::vector<char> mail(static_cast<std::size_t>(n), 0);
  net.drain_fast([&](NodeId v, const auto& in) {
    quiet[static_cast<std::size_t>(v)] = in.quiet();
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!in[i].empty()) mail[static_cast<std::size_t>(v)] = 1;
    }
  });
  return tally(quiet, mail);
}

constexpr Traffic kSchedule[] = {
    Traffic::kSparse, Traffic::kSparse, Traffic::kDense,  Traffic::kSparse,
    Traffic::kHalf,   Traffic::kSilent, Traffic::kSparse, Traffic::kDense,
    Traffic::kDense,  Traffic::kSparse, Traffic::kHalf,   Traffic::kSparse,
    Traffic::kSparse, Traffic::kSilent, Traffic::kSilent, Traffic::kSparse};

std::string where(PlaneMode mode, int threads) {
  return std::string(mode == PlaneMode::kDouble ? "double" : "single") +
         " plane, " + std::to_string(threads) + " shard(s)";
}

// Runs kSchedule from round `first` on; every round must be free of false
// negatives, and a round reading a sparse delivery must find quiet inboxes
// (so the bit is live, not a constant false).
void expect_schedule_sound(SyncNetwork& net, const std::string& ctx,
                           int first = 0) {
  Traffic prev = Traffic::kSilent;
  int r = first;
  for (const Traffic t : kSchedule) {
    const QuietTally got = probe_round(net, t, r);
    EXPECT_EQ(got.false_negatives, 0) << ctx << ", round " << r;
    if (prev == Traffic::kSparse || prev == Traffic::kSilent) {
      EXPECT_GT(got.quiet, 0) << ctx << ", round " << r;
    }
    prev = t;
    ++r;
  }
}

TEST(QuietInbox, NeverFalseNegativeAcrossShardsAndModes) {
  Rng rng(5);
  const Graph regular = gen::random_regular(300, 6, rng);
  const Graph sparse = gen::gnp(200, 0.03, rng);  // ragged, some isolated
  const Graph star = gen::star(40);               // one hub hears everyone
  for (const Graph* g : {&regular, &sparse, &star}) {
    for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
      for (const int threads : {1, 2, 4}) {
        SyncNetwork net(*g, nullptr, "quiet", threads,
                        SlotPlan{.max_fields = 1, .mode = mode});
        expect_schedule_sound(net, where(mode, threads) + ", n=" +
                                       std::to_string(g->num_nodes()));
      }
    }
  }
}

TEST(QuietInbox, DenseDeliveryIsAllMail) {
  // A dense round skips stamping, so no inbox of its delivery reads quiet,
  // the silent ones included.
  const Graph g = gen::grid(10, 10);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "dense", threads);
    probe_round(net, Traffic::kDense, 0);
    EXPECT_EQ(probe_round(net, Traffic::kSilent, 1).quiet, 0) << threads;
    // The silent round's delivery is sparse (empty): every inbox is quiet.
    EXPECT_EQ(probe_round(net, Traffic::kSilent, 2).quiet, g.num_nodes())
        << threads;
  }
}

TEST(QuietInbox, DrainSeesTheLastDelivery) {
  Rng rng(6);
  const Graph g = gen::random_regular(240, 4, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "drain", threads);
    int r = 0;
    for (const Traffic t : kSchedule) {
      probe_round(net, t, r++);
      const QuietTally got = probe_drain(net);
      EXPECT_EQ(got.false_negatives, 0) << threads << " shard(s), round " << r;
      if (t == Traffic::kSparse) {
        EXPECT_GT(got.quiet, 0) << threads;
      }
    }
  }
}

TEST(QuietInbox, ThrowingProgramThenPoisonAndReset) {
  Rng rng(7);
  const Graph g = gen::random_regular(200, 6, rng);
  struct Boom {};
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2, 4}) {
      const std::string ctx = where(mode, threads);
      SyncNetwork net(g, nullptr, "boom", threads,
                      SlotPlan{.max_fields = 1, .mode = mode});
      probe_round(net, Traffic::kSparse, 0);
      // The last node throws after every other node wrote, so the shards
      // that finish first have already stamped their receivers.
      EXPECT_THROW(net.round_fast([&](NodeId v, const auto& in, auto&& out) {
                     for (std::size_t i = 0; i < in.size(); ++i) {
                       (void)in[i].empty();
                     }
                     if (v % 7 == 0) out[0].assign({v});
                     if (v == g.num_nodes() - 1) throw Boom{};
                   }),
                   Boom)
          << ctx;
      if (mode == PlaneMode::kDouble) {
        // The rollback kept round 0's delivery readable, and its tags.
        const QuietTally got = probe_round(net, Traffic::kSparse, 1);
        EXPECT_EQ(got.false_negatives, 0) << ctx;
        EXPECT_GT(got.mail, 0) << ctx;
        EXPECT_GT(got.quiet, 0) << ctx;
        expect_schedule_sound(net, ctx + ", after rollback", 2);
      } else {
        EXPECT_THROW(probe_round(net, Traffic::kSparse, 1), CheckError)
            << ctx << ": poisoned";
      }
      net.reset();
      const QuietTally fresh = probe_round(net, Traffic::kSparse, 0);
      EXPECT_EQ(fresh.mail, 0) << ctx;
      EXPECT_EQ(fresh.false_negatives, 0) << ctx;
      expect_schedule_sound(net, ctx + ", after reset", 1);
    }
  }
}

TEST(QuietInbox, RebindToALargerGraph) {
  Rng rng(8);
  const Graph small = gen::random_regular(60, 4, rng);
  const Graph large = gen::random_regular(500, 6, rng);
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2, 4}) {
      const std::string ctx = where(mode, threads);
      const SlotPlan plan{.max_fields = 1, .mode = mode};
      SyncNetwork net(small, NetworkTopology::plan(small, threads), nullptr,
                      "rebind", plan);
      expect_schedule_sound(net, ctx + ", small");
      net.rebind(large, NetworkTopology::plan(large, threads), nullptr,
                 "rebind", plan);
      expect_schedule_sound(net, ctx + ", large");
      net.rebind(small, NetworkTopology::plan(small, threads), nullptr,
                 "rebind", plan);
      expect_schedule_sound(net, ctx + ", small again");
    }
  }
}

TEST(QuietInbox, CancellationLeavesTheDeliveryAndItsTags) {
  Rng rng(9);
  const Graph g = gen::random_regular(180, 6, rng);
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2, 4}) {
      const std::string ctx = where(mode, threads);
      SyncNetwork net(g, nullptr, "cancel", threads,
                      SlotPlan{.max_fields = 1, .mode = mode});
      CancelToken token;
      token.set_round_budget(3);
      net.set_cancel(&token);
      int r = 0;
      EXPECT_THROW(
          for (;; ++r) probe_round(net, Traffic::kSparse, r), SolverAborted)
          << ctx;
      EXPECT_EQ(net.rounds_executed(), 3) << ctx;
      net.set_cancel(nullptr);
      const QuietTally got = probe_round(net, Traffic::kSparse, r);
      EXPECT_EQ(got.false_negatives, 0) << ctx;
      EXPECT_GT(got.mail, 0) << ctx;
      EXPECT_GT(got.quiet, 0) << ctx;
      expect_schedule_sound(net, ctx + ", after cancellation", r + 1);
    }
  }
}

TEST(QuietInbox, EightBitTagsAliasOnlyToFalsePositives) {
  // One message, then 300 silent rounds: the receiver's stale tag matches
  // the read epoch again 256 epochs later. That may only read "mail" for
  // an empty inbox (a false positive), never the other way round.
  const Graph g = gen::path(200);  // big enough for one message to be sparse
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2}) {
      const std::string ctx = where(mode, threads);
      SyncNetwork net(g, nullptr, "alias", threads,
                      SlotPlan{.max_fields = 1, .mode = mode});
      net.round_fast([](NodeId v, const auto&, auto&& out) {
        if (v == 2) out[0].assign({v});  // 2 -> 1 only
      });
      int aliased = 0;
      for (int r = 1; r <= 300; ++r) {
        const QuietTally got = probe_round(net, Traffic::kSilent, r);
        EXPECT_EQ(got.false_negatives, 0) << ctx;
        EXPECT_EQ(got.mail, r == 1 ? 1 : 0) << ctx;
        aliased += got.mail == 0 && got.quiet < g.num_nodes();
      }
      EXPECT_GT(aliased, 0) << ctx << ": the 8-bit alias was never reached";
      expect_schedule_sound(net, ctx + ", after 300 silent rounds", 301);
    }
  }
}

TEST(QuietInbox, RenormalizationKeepsLiveTags) {
  // Sparse deliveries in flight while the epoch counter renormalizes: the
  // live tags must come through as live, and quiet inboxes must stay quiet.
  Rng rng(10);
  const Graph g = gen::random_regular(160, 4, rng);
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2}) {
      const std::string ctx = where(mode, threads);
      SyncNetwork net(g, nullptr, "renorm", threads,
                      SlotPlan{.max_fields = 1, .mode = mode});
      net.seed_epoch_for_testing(SyncNetwork::kEpochRenormalizeAt - 3);
      int r = 0;
      for (; net.epoch() >= SyncNetwork::kEpochRenormalizeAt - 3; ++r) {
        const QuietTally got = probe_round(net, Traffic::kSparse, r);
        EXPECT_EQ(got.false_negatives, 0) << ctx << ", round " << r;
        if (r > 0) {
          EXPECT_GT(got.mail, 0) << ctx << ", round " << r;
        }
      }
      EXPECT_LT(net.epoch(), 8u) << ctx;
      EXPECT_GE(r, 3) << ctx;
      expect_schedule_sound(net, ctx + ", after renormalization", r);
    }
  }
}

}  // namespace
}  // namespace dec
