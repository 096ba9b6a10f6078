// Scheduler contract for SolverService (PR 8): deterministic pop order
// (priority class, then EDF within a class, then arrival order), the
// deadline-bounded blocking submit (a full queue never hangs a deadlined
// tenant), the shutdown sweep's deadline/reject distinction, per-request
// engine_threads overrides staying bit-identical to direct serial calls
// for all five solvers, and the coherent cache-counter snapshot. Order
// tests run with workers = 0, so the queue is a pure data structure and
// queued_order() is exact. CI runs this file under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/generators.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"
#include "shard_every_round.hpp"

namespace dec {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

SolverRequest small_congest(std::uint64_t seed, int n = 16) {
  Rng rng(seed);
  auto g = std::make_shared<const Graph>(gen::gnp(n, 0.2, rng));
  return make_congest_request(std::move(g), {1.0});
}

// ------------------------------------------------------- scheduling order

TEST(ServiceScheduler, PriorityClassesAreStrict) {
  // workers = 0: jobs are admitted but never popped, so queued_order() is
  // the scheduler's exact pop order.
  SolverService service({.workers = 0, .queue_capacity = 16});
  JobTicket low = service.submit(small_congest(1), {.priority = Priority::kLow});
  JobTicket normal =
      service.submit(small_congest(2), {.priority = Priority::kNormal});
  JobTicket high =
      service.submit(small_congest(3), {.priority = Priority::kHigh});
  const std::vector<JobId> order = service.queued_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], high.id);
  EXPECT_EQ(order[1], normal.id);
  EXPECT_EQ(order[2], low.id);
}

TEST(ServiceScheduler, EdfWithinClassDeadlinelessBehind) {
  SolverService service({.workers = 0, .queue_capacity = 16});
  // All normal priority. Deadlines far enough out that nothing expires
  // while the test runs; submitted deliberately out of deadline order.
  JobTicket no_dl_a = service.submit(small_congest(1));
  JobTicket late = service.submit(small_congest(2),
                                  {.deadline = std::chrono::seconds(600)});
  JobTicket no_dl_b = service.submit(small_congest(3));
  JobTicket soon = service.submit(small_congest(4),
                                  {.deadline = std::chrono::seconds(60)});
  JobTicket mid = service.submit(small_congest(5),
                                 {.deadline = std::chrono::seconds(300)});
  const std::vector<JobId> order = service.queued_order();
  ASSERT_EQ(order.size(), 5u);
  // EDF across the deadlined jobs, then the deadline-less two by arrival.
  EXPECT_EQ(order[0], soon.id);
  EXPECT_EQ(order[1], mid.id);
  EXPECT_EQ(order[2], late.id);
  EXPECT_EQ(order[3], no_dl_a.id);
  EXPECT_EQ(order[4], no_dl_b.id);
}

TEST(ServiceScheduler, ArrivalOrderBreaksTies) {
  SolverService service({.workers = 0, .queue_capacity = 16});
  // Same class, no deadlines: pure FIFO.
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(small_congest(10 + i)));
  }
  const std::vector<JobId> order = service.queued_order();
  ASSERT_EQ(order.size(), tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(order[i], tickets[i].id) << "slot " << i;
  }
}

TEST(ServiceScheduler, FullOrderingPriorityThenEdfThenFifo) {
  SolverService service({.workers = 0, .queue_capacity = 16});
  JobTicket l1 = service.submit(small_congest(1), {.priority = Priority::kLow});
  JobTicket h_late =
      service.submit(small_congest(2), {.deadline = std::chrono::seconds(600),
                                        .priority = Priority::kHigh});
  JobTicket n1 = service.submit(small_congest(3));
  JobTicket h_soon =
      service.submit(small_congest(4), {.deadline = std::chrono::seconds(60),
                                        .priority = Priority::kHigh});
  JobTicket h_none =
      service.submit(small_congest(5), {.priority = Priority::kHigh});
  JobTicket n2 = service.submit(small_congest(6));
  const std::vector<JobId> order = service.queued_order();
  const std::vector<JobId> expect = {h_soon.id, h_late.id, h_none.id,
                                     n1.id,     n2.id,     l1.id};
  EXPECT_EQ(order, expect);
}

TEST(ServiceScheduler, WorkersDrainInScheduledOrder) {
  // One worker, jobs enqueued while the queue is plugged by a head job:
  // completion timestamps must respect the scheduled order for the jobs
  // that were all queued together.
  Rng rng(77);
  auto big = std::make_shared<const Graph>(gen::gnp(150, 0.12, rng));
  SolverService service({.workers = 1, .queue_capacity = 16});
  JobTicket plug = service.submit(make_congest_request(big, {0.5}));
  JobTicket low = service.submit(small_congest(1), {.priority = Priority::kLow});
  JobTicket high =
      service.submit(small_congest(2), {.priority = Priority::kHigh});
  JobTicket normal = service.submit(small_congest(3));

  // The three queued jobs resolve in scheduled order; order is observable
  // through each result's queue_wait_ns (pickup is serialized on the one
  // worker, and wait is measured from submit entry at pickup).
  const SolverResult r_high = high.result.get();
  const SolverResult r_normal = normal.result.get();
  const SolverResult r_low = low.result.get();
  EXPECT_EQ(plug.result.get().status, SolverStatus::kOk);
  ASSERT_EQ(r_high.status, SolverStatus::kOk);
  ASSERT_EQ(r_normal.status, SolverStatus::kOk);
  ASSERT_EQ(r_low.status, SolverStatus::kOk);
  // high submitted after low, but picked up earlier: its wait is shorter
  // even though it arrived later.
  EXPECT_LT(r_high.queue_wait_ns, r_low.queue_wait_ns);
  EXPECT_LT(r_normal.queue_wait_ns, r_low.queue_wait_ns);
  service.drain();
}

// --------------------------------------------- deadline-bounded admission

TEST(ServiceScheduler, BlockedSubmitTimesOutAtItsDeadline) {
  // Satellite bugfix pin: a blocking submit against a full queue must not
  // wait past the job's own deadline — it resolves kDeadlineExceeded
  // instead of hanging (the old cv wait had no time bound).
  SolverService service({.workers = 0, .queue_capacity = 1});
  JobTicket head = service.submit(small_congest(1));
  ASSERT_TRUE(head.accepted);

  const auto start = steady_clock::now();
  JobTicket doomed =
      service.submit(small_congest(2), {.deadline = milliseconds(50)});
  const auto blocked_for = steady_clock::now() - start;
  EXPECT_FALSE(doomed.accepted);
  EXPECT_EQ(doomed.id, 0u);
  EXPECT_EQ(doomed.reject, RejectReason::kNone);  // expired, not rejected
  const SolverResult r = doomed.result.get();
  EXPECT_EQ(r.status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_GT(r.e2e_latency_ns, 0);
  // It waited for its deadline, not forever (generous upper bound: the
  // acceptance criterion is "within one watchdog period" of the 50 ms).
  EXPECT_GE(blocked_for, milliseconds(45));
  EXPECT_LT(blocked_for, std::chrono::seconds(5));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submit_timeouts, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.submitted, 1);  // only the head job was admitted
  EXPECT_EQ(stats.queued, 1u);    // nothing was enqueued by the timeout
}

TEST(ServiceScheduler, AlreadyExpiredDeadlineSubmitResolvesImmediately) {
  SolverService service({.workers = 0, .queue_capacity = 1});
  JobTicket head = service.submit(small_congest(1));
  ASSERT_TRUE(head.accepted);
  JobTicket doomed = service.submit(
      small_congest(2), {.deadline = std::chrono::microseconds(1)});
  EXPECT_FALSE(doomed.accepted);
  EXPECT_EQ(doomed.result.get().status, SolverStatus::kDeadlineExceeded);
}

TEST(ServiceScheduler, ShutdownSweepReportsExpiredJobsAsDeadlineExceeded) {
  // Satellite bugfix pin: a queued job already past its wall-clock
  // deadline when shutdown drains leftovers resolves kDeadlineExceeded,
  // not Rejected{kShuttingDown}. The watchdog period is cranked way up so
  // only the shutdown sweep itself can latch the deadline.
  SolverService service({.workers = 0,
                         .queue_capacity = 8,
                         .watchdog_period = std::chrono::seconds(3600)});
  JobTicket fresh = service.submit(small_congest(1));
  JobTicket expired =
      service.submit(small_congest(2), {.deadline = milliseconds(1)});
  ASSERT_TRUE(expired.accepted);
  std::this_thread::sleep_for(milliseconds(10));
  service.shutdown();
  EXPECT_EQ(expired.result.get().status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(fresh.result.get().reject, RejectReason::kShuttingDown);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.rejected, 1);
}

// ------------------------------------------- engine_threads bit-identity

auto congest_key(const CongestColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}

auto bipartite_key(const BipartiteColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels,
                    r.leaf_degree_bound, r.chi);
}

std::vector<NodeId> heads_of(const Orientation& o) {
  std::vector<NodeId> heads(static_cast<std::size_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    heads[static_cast<std::size_t>(e)] = o.head(e);
  }
  return heads;
}

auto orientation_key(const BalancedOrientationResult& r) {
  return std::tuple(heads_of(r.orientation), r.phases, r.rounds, r.flips,
                    r.leftover_edges, r.leftover_edge, r.max_excess,
                    r.max_message_bits);
}

auto d2ec_key(const Defective2ECResult& r) {
  return std::tuple(r.is_red, r.phases, r.rounds, r.beta_used, r.beta_emp,
                    r.max_message_bits);
}

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

void expect_same_result(const SolverResult& ref, const SolverResult& got,
                        int job_index) {
  ASSERT_EQ(ref.solver, got.solver) << "job " << job_index;
  ASSERT_EQ(ref.output.index(), got.output.index()) << "job " << job_index;
  if (const auto* r = std::get_if<CongestColoringResult>(&ref.output)) {
    EXPECT_EQ(congest_key(*r),
              congest_key(std::get<CongestColoringResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r =
                 std::get_if<BipartiteColoringResult>(&ref.output)) {
    EXPECT_EQ(bipartite_key(*r),
              bipartite_key(std::get<BipartiteColoringResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r =
                 std::get_if<BalancedOrientationResult>(&ref.output)) {
    EXPECT_EQ(orientation_key(*r),
              orientation_key(std::get<BalancedOrientationResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r = std::get_if<Defective2ECResult>(&ref.output)) {
    EXPECT_EQ(d2ec_key(*r),
              d2ec_key(std::get<Defective2ECResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r = std::get_if<TokenDroppingResult>(&ref.output)) {
    EXPECT_EQ(token_key(*r),
              token_key(std::get<TokenDroppingResult>(got.output)))
        << "job " << job_index;
  } else {
    FAIL() << "unhandled output variant, job " << job_index;
  }
  EXPECT_EQ(ref.ledger.breakdown(), got.ledger.breakdown())
      << "job " << job_index;
}

/// One small instance per solver (the five registered ids).
std::vector<SolverRequest> one_of_each_solver() {
  std::vector<SolverRequest> reqs;
  Rng rng(8800);
  reqs.push_back(small_congest(8801, 36));

  auto bg = std::make_shared<const BipartiteGraph>(
      gen::random_bipartite(16, 14, 0.18, rng));
  std::shared_ptr<const Graph> g(bg, &bg->graph);
  BipartiteColoringJob bj;
  bj.parts = bg->parts;
  reqs.push_back(make_bipartite_request(g, bj));

  Rng wrng(8802);
  std::vector<double> eta(static_cast<std::size_t>(g->num_edges()));
  for (auto& v : eta) v = 3.0 * (2.0 * wrng.next_double() - 1.0);
  BalancedOrientationJob oj;
  oj.parts = bg->parts;
  oj.eta = std::move(eta);
  oj.params.nu = 0.125;
  reqs.push_back(make_orientation_request(g, std::move(oj)));

  std::vector<double> lambda(static_cast<std::size_t>(g->num_edges()));
  for (auto& v : lambda) v = wrng.next_double();
  Defective2ECJob dj;
  dj.parts = bg->parts;
  dj.lambda = std::move(lambda);
  reqs.push_back(make_defective2ec_request(g, std::move(dj)));

  auto game = std::make_shared<const Digraph>(layered_game(3, 8, 3, rng));
  TokenDroppingJob tj;
  tj.params.k = 12;
  tj.params.delta = 1;
  tj.params.alpha.assign(static_cast<std::size_t>(game->num_nodes()), 2);
  tj.initial_tokens.assign(static_cast<std::size_t>(game->num_nodes()), 5);
  reqs.push_back(make_token_dropping_request(std::move(game), std::move(tj)));
  return reqs;
}

TEST(ServiceScheduler, EngineThreadsOverrideBitIdenticalAcrossSolvers) {
  // Per-request engine_threads: the same job run serial (service default),
  // 2-sharded, and 4-sharded must be bit-identical to the direct serial
  // call, for every registered solver. Overrides lease from their own
  // per-shard-count arena.
  const std::vector<SolverRequest> reqs = one_of_each_solver();
  std::vector<SolverResult> refs;
  refs.reserve(reqs.size());
  for (const SolverRequest& req : reqs) {
    refs.push_back(execute_request(req, 1, nullptr));
  }

  SolverService service({.workers = 2, .queue_capacity = 16});
  for (const int threads : {1, 2, 4}) {
    std::vector<JobTicket> tickets;
    for (const SolverRequest& req : reqs) {
      tickets.push_back(service.submit(req, {.engine_threads = threads}));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const SolverResult got = tickets[i].result.get();
      ASSERT_EQ(got.status, SolverStatus::kOk)
          << "threads " << threads << " job " << i;
      expect_same_result(refs[i], got, static_cast<int>(i));
    }
  }
  // Re-running the 2-shard batch hits the override arena's warm plans.
  std::vector<JobTicket> warm;
  for (const SolverRequest& req : reqs) {
    warm.push_back(service.submit(req, {.engine_threads = 2}));
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_same_result(refs[i], warm[i].result.get(), static_cast<int>(i));
  }
}

// ------------------------------------------------- coherent cache counters

TEST(ServiceScheduler, StatsCacheSnapshotIsCoherentUnderLoad) {
  // Satellite bugfix pin: cache_hit_rate must agree exactly with the
  // plans_built / plans_shared reported in the same snapshot, even while
  // lookups race with the reader (the counters are packed into one atomic
  // word). A poller hammers stats() while two workers churn jobs.
  SolverService service({.workers = 2, .queue_capacity = 32});
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceStats s = service.stats();
      const std::int64_t lookups = s.plans_built + s.plans_shared;
      const double expect =
          lookups > 0 ? static_cast<double>(s.plans_shared) /
                            static_cast<double>(lookups)
                      : 0.0;
      ASSERT_EQ(s.cache_hit_rate, expect);
      ASSERT_GE(s.plans_shared, 0);
      ASSERT_GE(s.plans_built, 0);
    }
  });
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 48; ++i) {
    tickets.push_back(service.submit(small_congest(9000 + i % 6, 20)));
  }
  for (JobTicket& t : tickets) {
    EXPECT_EQ(t.result.get().status, SolverStatus::kOk);
  }
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  const ServiceStats s = service.stats();
  EXPECT_GT(s.plans_shared, 0);  // six shapes over 48 jobs: sharing happened
}

}  // namespace
}  // namespace dec
