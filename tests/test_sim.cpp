// Simulator tests: ledger accounting, message bit accounting, SyncNetwork
// delivery semantics (synchrony, per-edge channels, audit), the flat slot
// plane (slab spill, peer pairing), and serial-vs-parallel equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "coloring/linial.hpp"
#include "graph/generators.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/slab.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

TEST(Ledger, ChargesAndBreakdown) {
  RoundLedger l;
  l.charge("a", 3);
  l.charge("b", 2);
  l.charge("a", 1);
  EXPECT_EQ(l.total(), 6);
  EXPECT_EQ(l.component("a"), 4);
  EXPECT_EQ(l.component("missing"), 0);
  EXPECT_THROW(l.charge("neg", -1), CheckError);
}

TEST(Ledger, LogStarCharge) {
  RoundLedger l;
  l.charge_log_star(65536);
  EXPECT_EQ(l.component("log*"), 4);
}

TEST(Ledger, MergeAndReset) {
  RoundLedger a, b;
  a.charge("x", 1);
  b.charge("x", 2);
  b.charge("y", 5);
  a.merge(b);
  EXPECT_EQ(a.total(), 8);
  EXPECT_EQ(a.component("x"), 3);
  a.reset();
  EXPECT_EQ(a.total(), 0);
}

TEST(Ledger, CounterHandleChargesAndSurvivesReset) {
  RoundLedger l;
  RoundLedger::Counter c = l.counter("net");
  c.charge(2);
  c.charge(3);
  EXPECT_EQ(l.component("net"), 5);
  EXPECT_EQ(l.total(), 5);
  EXPECT_THROW(c.charge(-1), CheckError);
  l.reset();
  c.charge(1);  // handle revalidates against the cleared map
  EXPECT_EQ(l.component("net"), 1);
  EXPECT_EQ(l.total(), 1);
}

TEST(Ledger, ReportMentionsComponents) {
  RoundLedger l;
  l.charge("token_dropping", 7);
  const std::string rep = l.report();
  EXPECT_NE(rep.find("token_dropping = 7"), std::string::npos);
}

TEST(Message, FieldBits) {
  EXPECT_EQ(field_bits(0), 2);  // 1 magnitude bit + sign
  EXPECT_EQ(field_bits(1), 2);
  EXPECT_EQ(field_bits(2), 3);
  EXPECT_EQ(field_bits(-1), 2);
  EXPECT_EQ(field_bits(255), 9);
}

TEST(Message, FieldBitsNegativeAndExtremes) {
  // Two's complement is asymmetric: -(2^k) fits in k+1 bits, 2^k needs k+2.
  EXPECT_EQ(field_bits(-2), 2);  // "10" in two's complement
  EXPECT_EQ(field_bits(-128), 8);
  EXPECT_EQ(field_bits(128), 9);
  EXPECT_EQ(field_bits(-129), 9);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::min()), 64);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::max()), 64);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::min() + 1), 64);
  // Symmetric pairs around zero: |v| and -(|v|+1) have equal width.
  for (const std::int64_t v : {1, 2, 3, 7, 8, 1000, 123456789}) {
    EXPECT_EQ(field_bits(v), field_bits(-v - 1)) << v;
  }
}

TEST(Message, MessageBitsAndAudit) {
  const std::int64_t m[] = {3, 500};
  CongestAudit audit;
  audit.observe(m);
  audit.observe({});  // empty = not sent
  EXPECT_EQ(audit.messages_sent(), 1);
  EXPECT_EQ(audit.max_bits(), field_bits(3) + field_bits(500));
  audit.reset();
  EXPECT_EQ(audit.max_bits(), 0);
}

TEST(Message, AuditMergeIsOrderIndependent) {
  CongestAudit a, b, merged_ab, merged_ba;
  const std::int64_t f1000[] = {1000}, f3[] = {3}, f7[] = {7};
  a.observe(f1000);
  b.observe(f3);
  b.observe(f7);
  merged_ab.merge(a);
  merged_ab.merge(b);
  merged_ba.merge(b);
  merged_ba.merge(a);
  EXPECT_EQ(merged_ab.max_bits(), merged_ba.max_bits());
  EXPECT_EQ(merged_ab.messages_sent(), merged_ba.messages_sent());
  EXPECT_EQ(merged_ab.messages_sent(), 3);
  EXPECT_EQ(merged_ab.max_bits(), field_bits(1000));
}

TEST(Network, DeliversAlongEdges) {
  const Graph g = gen::path(3);  // 0-1, 1-2
  SyncNetwork net(g);
  // Round 1: everyone sends its id on every incident edge.
  net.round_fast([](NodeId v, const auto& inbox, auto&& outbox) {
    EXPECT_TRUE(std::all_of(inbox.begin(), inbox.end(),
                            [](const auto& m) { return m.empty(); }));
    for (auto&& m : outbox) m.assign({v});
  });
  // Round 2: check each node received exactly its neighbors' ids.
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    const auto nb = g.neighbors(v);
    ASSERT_EQ(inbox.size(), nb.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ASSERT_FALSE(inbox[i].empty());
      EXPECT_EQ(inbox[i].at(0), nb[i].neighbor);
    }
  });
  EXPECT_EQ(net.rounds_executed(), 2);
}

TEST(Network, SynchronousSemantics) {
  // A message sent in round t must not be visible in round t, only in t+1.
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  bool saw_in_same_round = false;
  net.round_fast([&](NodeId v, const auto& inbox, auto&& outbox) {
    if (v == 0) outbox[0].assign({42});
    if (v == 1 && !inbox[0].empty()) saw_in_same_round = true;
  });
  EXPECT_FALSE(saw_in_same_round);
  bool saw_next_round = false;
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    if (v == 1 && !inbox[0].empty() && inbox[0].at(0) == 42) {
      saw_next_round = true;
    }
  });
  EXPECT_TRUE(saw_next_round);
}

TEST(Network, MessagesDoNotPersist) {
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    if (v == 0) out[0].assign({1});
  });
  net.round_fast([](NodeId, const auto&, auto&&) {});
  // The round-1 message must be gone by round 3.
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    if (v == 1) {
      EXPECT_TRUE(inbox[0].empty());
    }
  });
}

TEST(Network, SpilledMessagesDeliverIntact) {
  // Payloads wider than the inline buffer take the slab-arena path; they
  // must round-trip bit-exact and must not leak into later rounds.
  const Graph g = gen::star(4);
  const std::size_t wide = 12;
  SyncNetwork net(g, nullptr, "network", 1,
                  SlotPlan{.max_fields = static_cast<int>(wide)});
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    if (v == 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        auto&& m = out[i];
        for (std::size_t k = 0; k < wide; ++k) {
          m.push(static_cast<std::int64_t>(100 * (i + 1) + k));
        }
      }
    }
  });
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    if (v != 0) {
      ASSERT_EQ(inbox.size(), 1u);
      const auto m = inbox[0];
      ASSERT_EQ(m.size(), wide);
      for (std::size_t k = 0; k < wide; ++k) {
        EXPECT_EQ(m.at(k), static_cast<std::int64_t>(100 * v + k));
      }
    }
  });
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    if (v != 0) EXPECT_TRUE(inbox[0].empty());
  });
}

TEST(Network, ChargesLedger) {
  const Graph g = gen::cycle(4);
  RoundLedger l;
  SyncNetwork net(g, &l, "mycomp");
  net.round_fast([](NodeId, const auto&, auto&&) {});
  net.round_fast([](NodeId, const auto&, auto&&) {});
  EXPECT_EQ(l.component("mycomp"), 2);
}

TEST(Network, AuditTracksMaxBits) {
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    if (v == 0) out[0].assign({1023});
  });
  EXPECT_EQ(net.audit().max_bits(), field_bits(1023));
  EXPECT_EQ(net.audit().messages_sent(), 1);
}

TEST(Network, PerEdgeChannelsAreIndependent) {
  const Graph g = gen::star(3);  // center 0
  SyncNetwork net(g);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    if (v == 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].assign({static_cast<std::int64_t>(100 + i)});
      }
    }
  });
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    if (v != 0) {
      ASSERT_EQ(inbox.size(), 1u);
      ASSERT_FALSE(inbox[0].empty());
      // Leaf v is the (v-1)-th neighbor of the center (sorted by id).
      EXPECT_EQ(inbox[0].at(0), 100 + (v - 1));
    }
  });
}

// Every slot's peer maps back to it, a slot is never its own peer, and the
// two slots of a pair carry the same edge id with opposite owners.
void check_peer_pairing(const Graph& g) {
  SyncNetwork net(g);
  ASSERT_EQ(net.num_slots(), static_cast<std::size_t>(2 * g.num_edges()));
  std::vector<EdgeId> slot_edge(net.num_slots());
  std::vector<NodeId> slot_owner(net.num_slots());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      slot_edge[net.slot(v, i)] = nb[i].edge;
      slot_owner[net.slot(v, i)] = v;
    }
  }
  for (std::size_t s = 0; s < net.num_slots(); ++s) {
    const std::size_t p = net.peer_slot(s);
    ASSERT_LT(p, net.num_slots());
    EXPECT_NE(p, s);
    EXPECT_EQ(net.peer_slot(p), s);                // involution
    EXPECT_EQ(slot_edge[p], slot_edge[s]);         // one edge, two slots
    EXPECT_EQ(slot_owner[p],                       // peer owned by the
              g.other_endpoint(slot_edge[s],       // opposite endpoint
                               slot_owner[s]));
  }
}

TEST(Network, PeerSlotPairingRandom) {
  Rng rng(11);
  check_peer_pairing(gen::random_regular(64, 6, rng));
  check_peer_pairing(gen::gnp(50, 0.2, rng));
}

TEST(Network, PeerSlotPairingGrid) { check_peer_pairing(gen::grid(7, 9)); }

TEST(Network, PeerSlotPairingStar) { check_peer_pairing(gen::star(17)); }

// Run the same deterministic node program on the serial and parallel
// engines; states, audits, and round counts must match bit-for-bit.
void check_engine_equivalence(const Graph& g) {
  auto run = [&](int threads) {
    SyncNetwork net(g, nullptr, "net", threads, SlotPlan{.max_fields = 2});
    std::vector<std::int64_t> state(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      state[static_cast<std::size_t>(v)] = v;
    }
    for (int r = 0; r < 5; ++r) {
      std::vector<std::int64_t> next(state);
      net.round_fast([&](NodeId v, const auto& inbox, auto&& out) {
        std::int64_t acc = state[static_cast<std::size_t>(v)];
        for (const auto& m : inbox) {
          if (!m.empty()) acc += m.at(0) * 31 + m.size();
        }
        next[static_cast<std::size_t>(v)] = acc;
        // Odd nodes stay silent every other round to exercise stale slots.
        if (v % 2 == 0 || r % 2 == 0) {
          for (auto&& m : out) m.assign({acc, v});
        }
      });
      state = std::move(next);
    }
    return std::tuple(state, net.audit().max_bits(),
                      net.audit().messages_sent(), net.rounds_executed());
  };
  const auto serial = run(1);
  const auto par4 = run(4);
  EXPECT_EQ(serial, par4);
  const auto par3 = run(3);
  EXPECT_EQ(serial, par3);
}

TEST(ParallelNetwork, MatchesSerialOnRandomRegular) {
  Rng rng(21);
  check_engine_equivalence(gen::random_regular(200, 8, rng));
}

TEST(ParallelNetwork, MatchesSerialOnGrid) {
  check_engine_equivalence(gen::grid(12, 17));
}

TEST(ParallelNetwork, MatchesSerialOnStar) {
  // Star is the worst case for slot balancing: one node owns half the slots.
  check_engine_equivalence(gen::star(101));
}

TEST(ParallelNetwork, LinialColoringIsBitIdentical) {
  Rng rng(31);
  const Graph g = gen::random_regular(300, 10, rng);
  const LinialResult serial = linial_color(g);
  const LinialResult parallel = linial_color(g, nullptr, {}, 0, 4);
  EXPECT_EQ(serial.colors, parallel.colors);
  EXPECT_EQ(serial.palette, parallel.palette);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.max_message_bits, parallel.max_message_bits);
}

TEST(ParallelNetwork, PropagatesNodeProgramExceptions) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "net", 4);
  EXPECT_THROW(net.round_fast([](NodeId v, const auto&, auto&&) {
                 DEC_CHECK(v != 5, "boom from a pool worker");
               }),
               CheckError);
}

// A throwing round must roll back completely: no phantom audit entries, no
// stale slot payloads, and delivery still works on the same network.
void check_abort_recovery(int threads) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "net", threads);
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v + 100});
  });
  EXPECT_THROW(net.round_fast([](NodeId v, const auto&, auto&& out) {
                 for (auto&& m : out) m.assign({v + 200});
                 DEC_CHECK(v < 4, "boom mid-round");
               }),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 1);
  EXPECT_EQ(net.audit().messages_sent(), 16);  // only the successful round
  // The aborted round's writes are gone; the round-1 delivery is intact.
  net.round_fast([&](NodeId v, const auto& inbox, auto&&) {
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      ASSERT_FALSE(inbox[i].empty());
      EXPECT_EQ(inbox[i].at(0), g.neighbors(v)[i].neighbor + 100);
    }
  });
  net.round_fast([](NodeId, const auto& inbox, auto&&) {
    for (const auto& m : inbox) EXPECT_TRUE(m.empty());
  });
  EXPECT_EQ(net.audit().messages_sent(), 16);
}

TEST(Network, AbortedRoundRollsBackSerial) { check_abort_recovery(1); }

TEST(ParallelNetwork, AbortedRoundRollsBackParallel) {
  check_abort_recovery(4);
}

// Stronger than per-engine recovery: after an identical scripted history —
// including a round that throws mid-flight with wide (slab-spilled) partial
// writes — the serial and parallel engines must be in bit-identical states:
// same delivered payloads afterwards, same audit, same round count. The
// networks declare width 8, the script's widest message.
void run_abort_script(SyncNetwork& net, const Graph& g,
                      std::vector<std::int64_t>* delivered,
                      std::int64_t* audit_msgs, int* audit_bits) {
  const std::size_t wide = 8;
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v * 3 + 1});
  });
  EXPECT_THROW(net.round_fast([&](NodeId v, const auto&, auto&& out) {
                 for (auto&& m : out) {
                   for (std::size_t i = 0; i < wide; ++i) m.push(v + 1000);
                 }
                 DEC_CHECK(v < g.num_nodes() / 2, "boom mid-round");
               }),
               CheckError);
  net.round_fast([&](NodeId v, const auto& in, auto&& out) {
    std::int64_t acc = 0;
    for (const auto& m : in) {
      acc = acc * 31 + (m.empty() ? -1 : m.at(0));
    }
    if (v % 2 == 0) {
      for (auto&& m : out) m.assign({acc, v});
    }
  });
  // Collect into per-node slots (the network's own slot plane gives the
  // indexing): drain programs run sharded, so each node may only write its
  // own slice of the output.
  delivered->assign(net.num_slots(), 0);
  net.drain_fast([&](NodeId v, const auto& in) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      (*delivered)[net.slot(v, i)] = in[i].empty() ? -7 : in[i].at(0);
    }
  });
  *audit_msgs = net.audit().messages_sent();
  *audit_bits = net.audit().max_bits();
}

TEST(ParallelNetwork, AbortRollbackMatchesSerialEngine) {
  Rng rng(41);
  const Graph g = gen::random_regular(120, 6, rng);
  std::vector<std::int64_t> serial_d, parallel_d;
  std::int64_t serial_msgs = 0, parallel_msgs = 0;
  int serial_bits = 0, parallel_bits = 0;
  const SlotPlan plan{.max_fields = 8};
  SyncNetwork serial(g, nullptr, "network", 1, plan);
  run_abort_script(serial, g, &serial_d, &serial_msgs, &serial_bits);
  SyncNetwork parallel(g, nullptr, "network", resolve_num_threads(4), plan);
  run_abort_script(parallel, g, &parallel_d, &parallel_msgs, &parallel_bits);
  EXPECT_EQ(serial_d, parallel_d);
  EXPECT_EQ(serial_msgs, parallel_msgs);
  EXPECT_EQ(serial_bits, parallel_bits);
  EXPECT_EQ(serial.rounds_executed(), parallel.rounds_executed());
  EXPECT_EQ(serial.rounds_executed(), 2);  // the aborted round never counted
}

TEST(Network, DrainReadsLastDeliveryWithoutCharging) {
  const Graph g = gen::path(3);
  RoundLedger ledger;
  SyncNetwork net(g, &ledger, "comp");
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v + 50});
  });
  // The drain sees exactly what a following round's inbox would, repeatably,
  // and costs nothing.
  for (int pass = 0; pass < 2; ++pass) {
    int seen = 0;
    net.drain_fast([&](NodeId v, const auto& in) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_FALSE(in[i].empty());
        EXPECT_EQ(in[i].at(0), nb[i].neighbor + 50);
        ++seen;
      }
    });
    EXPECT_EQ(seen, 4);  // 2 edges, both directions
  }
  EXPECT_EQ(net.rounds_executed(), 1);
  EXPECT_EQ(ledger.component("comp"), 1);
}

TEST(Network, DrainBeforeAnyRoundSeesOnlyEmpty) {
  const Graph g = gen::cycle(5);
  SyncNetwork net(g);
  net.drain_fast([](NodeId, const auto& in) {
    for (const auto& m : in) EXPECT_TRUE(m.empty());
  });
  EXPECT_EQ(net.rounds_executed(), 0);
}

}  // namespace
}  // namespace dec
