// Pool layout safety: the plane mode is STRUCTURAL — part of a run state's
// identity. A single-plane run state parked in the arena must never be
// adopted for a double-plane lease (or vice versa); the pool reconstructs
// instead. Pinned across tenant views (park on view destruction, adopt from
// another view) and under a multi-threaded lease/park/adopt stress that
// TSan checks for races on the mode-filtered scan. The direct park/adopt
// and single-view cases live in test_single_plane.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "util/rng.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

// Two rounds on a leased network (echo, then a round that checks the
// echo), verifying the lease carries the requested plane mode and delivers
// correctly on it. Drain-free, so it runs on either mode.
void echo_rounds(SyncNetwork& net, PlaneMode mode) {
  ASSERT_EQ(net.plane_mode(), mode);
  const Graph& g = net.graph();
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  net.round_fast([&](NodeId v, const auto& in, auto&&) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_FALSE(in[i].empty());
      ASSERT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
    }
  });
}

const SlotPlan kDoublePlan{.mode = PlaneMode::kDouble};
const SlotPlan kSinglePlan{.mode = PlaneMode::kSingle};

TEST(PoolFormat, CrossViewLeaseNeverAdoptsOtherPlaneMode) {
  // View 1 parks a single-plane state on destruction; view 2 asks for a
  // double plane. It must reconstruct (fresh double-plane state), then a
  // single-plane view 3 may adopt the parked single-plane one.
  SharedNetworkPool shared(1);
  const Graph g = gen::star(12);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "s", kSinglePlan);
    echo_rounds(*lease, PlaneMode::kSingle);
  }
  EXPECT_EQ(shared.parked_run_states(), 1u);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "d", kDoublePlan);
    echo_rounds(*lease, PlaneMode::kDouble);
  }
  // The single-plane state was not consumed by the double-plane lease; both
  // are parked.
  EXPECT_EQ(shared.parked_run_states(), 2u);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "s2", kSinglePlan);
    echo_rounds(*lease, PlaneMode::kSingle);
    EXPECT_EQ(view.run_states(), 1u);  // adopted, not constructed
  }
}

TEST(PoolFormat, ConcurrentMixedPlaneModeLeaseStress) {
  // Tenants on their own threads lease alternating plane modes over one
  // shared arena, so mode-filtered adopt scans race with parks. TSan watches
  // the arena; the asserts watch that no lease ever carries the wrong mode.
  SharedNetworkPool shared(1);
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t] {
      for (int i = 0; i < kIters; ++i) {
        NetworkPool view(shared);
        const Graph g = i % 2 == 0 ? gen::cycle(16 + t)
                                   : gen::grid(3 + t, 4 + i % 3);
        const PlaneMode mode =
            (i + t) % 2 == 0 ? PlaneMode::kSingle : PlaneMode::kDouble;
        auto lease =
            view.network(g, nullptr, "stress", SlotPlan{.mode = mode});
        echo_rounds(*lease, mode);
      }
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace
}  // namespace dec
