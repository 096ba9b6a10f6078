// Golden-digest bit-identity at the solver level: every solver that runs on
// the 16 B narrow slot plane (Linial, defective precolor + refine, token
// dropping, balanced orientation with its embedded games) must reproduce
// recorded outputs, audited rounds, message widths/counts, and full ledger
// breakdowns — fresh and pooled, serial and 2/4-shard, across random/grid/
// star families with 20 seeds each.
//
// The reference is recorded data, not a second implementation kept alive
// for comparison: one FNV-1a 64-bit digest per (solver, graph family),
// folded over the family's 20 seeds. The digests were recorded at commit
// 83a9498 from runs on the since-deleted 64 B wide slot plane (SlotFormat::
// kWide), and the narrow runs of that commit produced the same values, so
// they pin the narrow plane to the wide one it replaced. Any divergence
// here is a substrate bug, not a tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/balanced_orientation.hpp"
#include "core/token_dropping.hpp"
#include "graph/bipartite.hpp"
#include "graph/generators.hpp"
#include "sim/ledger.hpp"
#include "sim/pool.hpp"
#include "util/rng.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

/// FNV-1a over a canonical little-endian byte stream of the run's
/// observable results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const auto& x : v) add(static_cast<std::int64_t>(x));
  }
  void add(const std::map<std::string, std::int64_t>& ledger) {
    add(static_cast<std::uint64_t>(ledger.size()));
    for (const auto& [name, rounds] : ledger) {
      add(name);
      add(rounds);
    }
  }
  template <class... Ts>
  void add(const std::tuple<Ts...>& t) {
    std::apply([this](const auto&... x) { (add(x), ...); }, t);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Graph family_graph(int family, int seed, Rng& rng) {
  switch (family) {
    case 0: return gen::gnp(40 + seed, 0.12, rng);
    case 1: return gen::grid(4 + seed % 4, 5 + seed % 5);
    default: return gen::star(20 + 2 * seed);
  }
}

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

std::vector<NodeId> heads_of(const Orientation& o) {
  std::vector<NodeId> heads(static_cast<std::size_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    heads[static_cast<std::size_t>(e)] = o.head(e);
  }
  return heads;
}

auto orientation_key(const BalancedOrientationResult& r,
                     const RoundLedger& l) {
  return std::tuple(heads_of(r.orientation), r.phases, r.rounds, r.flips,
                    r.leftover_edges, r.leftover_edge, r.max_excess,
                    r.max_message_bits, l.breakdown());
}

// Run configurations every seed goes through: fresh serial (no pool), then
// pooled with 1, 2 and 4 shards. Pools live across seeds, so later seeds
// run on recycled, rebound run states.
constexpr int kConfigs = 4;
constexpr int kThreads[kConfigs] = {1, 1, 2, 4};

struct Pools {
  NetworkPool p1{1}, p2{2}, p4{4};
  NetworkPool* at(int config) {
    switch (config) {
      case 0: return nullptr;
      case 1: return &p1;
      case 2: return &p2;
      default: return &p4;
    }
  }
};

/// Runs `run(config)` (returning the run's key tuple) for every config,
/// checks the configs agree with the fresh serial run, and folds each
/// config's key into its digest.
template <class Run>
void run_configs(Digest (&digests)[kConfigs], const Run& run,
                 const std::string& where) {
  const auto fresh = run(0);
  digests[0].add(fresh);
  for (int c = 1; c < kConfigs; ++c) {
    const auto key = run(c);
    EXPECT_EQ(fresh, key) << where << " config " << c;
    digests[c].add(key);
  }
}

void expect_digests(const Digest (&digests)[kConfigs], std::uint64_t golden,
                    const std::string& what) {
  for (int c = 0; c < kConfigs; ++c) {
    EXPECT_EQ(digests[c].value(), golden)
        << what << " config " << c << " (threads " << kThreads[c]
        << (c == 0 ? ", fresh" : ", pooled") << ")";
  }
}

// Recorded digests, indexed by graph family (random, grid, star); token
// dropping by game family (layered, random).
constexpr std::uint64_t kLinialGolden[3] = {
    0x1f0f3e7fad3e5b17ull, 0x8816a5ebbe5a5e3eull, 0x8a1eff76f25052ddull};
constexpr std::uint64_t kDefectiveGolden[3] = {
    0x0e8252fe6be44f4eull, 0x87793a2578d57e71ull, 0x522ae59a5851c1daull};
constexpr std::uint64_t kTokenGolden[2] = {0xda410770dc67fd67ull,
                                           0xfce3650b9e8d1004ull};
constexpr std::uint64_t kOrientationGolden[3] = {
    0xb7bed6feb235c823ull, 0xb25c16de6043c94eull, 0x1e0d7e753cd3535full};

TEST(NarrowEquivalence, Linial) {
  Pools pools;
  for (int family = 0; family < 3; ++family) {
    Digest digests[kConfigs];
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(4000 + 100 * family + static_cast<std::uint64_t>(seed));
      const Graph g = family_graph(family, seed, rng);
      run_configs(
          digests,
          [&](int c) {
            RoundLedger ledger;
            const LinialResult r = linial_color(g, &ledger, {}, 0,
                                                kThreads[c], pools.at(c));
            return linial_key(r, ledger);
          },
          "family " + std::to_string(family) + " seed " +
              std::to_string(seed));
    }
    expect_digests(digests, kLinialGolden[family],
                   "linial family " + std::to_string(family));
  }
}

TEST(NarrowEquivalence, DefectivePrecolorAndRefine) {
  Pools pools;
  for (int family = 0; family < 3; ++family) {
    Digest digests[kConfigs];
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(5000 + 100 * family + static_cast<std::uint64_t>(seed));
      const Graph g = family_graph(family, seed, rng);
      if (g.max_degree() < 2) continue;
      const LinialResult lin = linial_color(g);
      run_configs(
          digests,
          [&](int c) {
            RoundLedger ledger;
            const DefectiveResult r =
                defective_4_coloring(g, lin.colors, lin.palette, 0.5, &ledger,
                                     kThreads[c], pools.at(c));
            return defective_key(r, ledger);
          },
          "family " + std::to_string(family) + " seed " +
              std::to_string(seed));
    }
    expect_digests(digests, kDefectiveGolden[family],
                   "defective family " + std::to_string(family));
  }
}

TEST(NarrowEquivalence, TokenDropping) {
  Pools pools;
  Digest digests[2][kConfigs];
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(6000 + static_cast<std::uint64_t>(seed));
    const int family = seed % 2;
    const Digraph game = family == 0 ? layered_game(3, 8 + seed, 3, rng)
                                     : random_game(24 + seed, 0.1, rng);
    TokenDroppingParams p;
    p.k = 6;
    p.delta = 2;
    std::vector<int> init(static_cast<std::size_t>(game.num_nodes()));
    for (auto& t : init) t = static_cast<int>(rng.next_u64() % (p.k + 1));
    run_configs(
        digests[family],
        [&](int c) {
          RoundLedger ledger;
          const TokenDroppingResult r = run_token_dropping(
              game, init, p, &ledger, kThreads[c], pools.at(c));
          return token_key(r, ledger);
        },
        "seed " + std::to_string(seed));
  }
  for (int family = 0; family < 2; ++family) {
    expect_digests(digests[family], kTokenGolden[family],
                   "token dropping family " + std::to_string(family));
  }
}

TEST(NarrowEquivalence, BalancedOrientation) {
  Pools pools;
  for (int family = 0; family < 3; ++family) {
    Digest digests[kConfigs];
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(7000 + 100 * family + static_cast<std::uint64_t>(seed));
      Graph g = family == 0 ? gen::random_bipartite(
                                  18 + seed, 16 + (seed * 3) % 9, 0.15, rng)
                                  .graph
                            : family_graph(family, seed, rng);
      const auto parts = try_bipartition(g);
      if (!parts.has_value()) continue;
      std::vector<double> eta(static_cast<std::size_t>(g.num_edges()));
      for (auto& v : eta) v = 3.0 * (2.0 * rng.next_double() - 1.0);
      OrientationParams p;
      p.nu = seed % 2 == 0 ? 0.125 : 0.0625;
      run_configs(
          digests,
          [&](int c) {
            RoundLedger ledger;
            const BalancedOrientationResult r = balanced_orientation(
                g, *parts, eta, p, &ledger, kThreads[c], pools.at(c));
            return orientation_key(r, ledger);
          },
          "family " + std::to_string(family) + " seed " +
              std::to_string(seed));
    }
    expect_digests(digests, kOrientationGolden[family],
                   "orientation family " + std::to_string(family));
  }
}

}  // namespace
}  // namespace dec
