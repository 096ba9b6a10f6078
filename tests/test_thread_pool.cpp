// ThreadPool: the fork-join barrier every sharded round crosses. Pins the
// contract the round engine relies on — every index runs exactly once per
// run(), also when workers are late to claim theirs, index 0 on the
// calling thread, worker writes are visible when run() returns, the first
// exception is rethrown and the pool stays usable — plus the two lifetime
// properties of the spin-then-futex design: clean destruction in either
// waiting phase, and no CPU burned once idle.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/thread_pool.hpp"

namespace dec {
namespace {

// One cache line per index, so the counters do not false-share.
struct alignas(64) Slot {
  std::int64_t count = 0;
  std::thread::id thread;
};

class ThreadPoolWidth : public testing::TestWithParam<int> {};

TEST_P(ThreadPoolWidth, EveryIndexRunsExactlyOncePerRun) {
  // 10^5 back-to-back runs: a lost wakeup hangs, a double or skipped run
  // shows up as a count off by one. Width 8 exceeds the cores of most test
  // hosts, which exercises the no-spin (futex-only) path.
  const int n = GetParam();
  ThreadPool pool(n);
  ASSERT_EQ(pool.num_threads(), n);
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  const std::function<void(int)> job = [&](int i) {
    ++slots[static_cast<std::size_t>(i)].count;
  };
  constexpr std::int64_t kRuns = 100000;
  for (std::int64_t r = 1; r <= kRuns; ++r) {
    pool.run(job);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(slots[static_cast<std::size_t>(i)].count, r)
          << "index " << i << " after run " << r;
    }
  }
}

TEST_P(ThreadPoolWidth, IndexZeroRunsOnTheCallingThread) {
  const int n = GetParam();
  ThreadPool pool(n);
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  for (int r = 0; r < 100; ++r) {
    pool.run([&](int i) {
      slots[static_cast<std::size_t>(i)].thread = std::this_thread::get_id();
    });
    EXPECT_EQ(slots[0].thread, std::this_thread::get_id());
  }
}

TEST_P(ThreadPoolWidth, RunsFinishWhileWorkersSleep) {
  // Workers that slept past the spin bound are still waking when run()
  // publishes the job; the caller claims whatever they have not started,
  // and every index still runs exactly once.
  const int n = GetParam();
  ThreadPool pool(n);
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  for (std::int64_t r = 1; r <= 50; ++r) {
    std::this_thread::sleep_for(2 * ThreadPool::kSpinFor);
    pool.run([&](int i) { ++slots[static_cast<std::size_t>(i)].count; });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(slots[static_cast<std::size_t>(i)].count, r)
          << "index " << i << " after run " << r;
    }
  }
}

TEST_P(ThreadPoolWidth, PlainWritesAreVisibleAfterRun) {
  // Each index fills its own block with plain stores; the caller reads
  // every block right after run(). Wrong ordering reads stale values here
  // (and is a data race under TSan).
  const int n = GetParam();
  ThreadPool pool(n);
  constexpr std::size_t kBlock = 4096;
  std::vector<std::int64_t> data(kBlock * static_cast<std::size_t>(n), 0);
  for (std::int64_t r = 1; r <= 200; ++r) {
    pool.run([&](int i) {
      std::int64_t* block = data.data() + kBlock * static_cast<std::size_t>(i);
      for (std::size_t k = 0; k < kBlock; ++k) {
        block[k] = r * 1000 + i;
      }
    });
    for (int i = 0; i < n; ++i) {
      const std::int64_t* block =
          data.data() + kBlock * static_cast<std::size_t>(i);
      for (std::size_t k = 0; k < kBlock; ++k) {
        ASSERT_EQ(block[k], r * 1000 + i) << "index " << i << " run " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ThreadPoolWidth, testing::Values(1, 2, 4, 8));

// Throws from `thrower` only, then checks the next run is complete.
void expect_rethrown_then_reusable(ThreadPool& pool, int thrower) {
  std::vector<Slot> slots(static_cast<std::size_t>(pool.num_threads()));
  try {
    pool.run([&](int i) {
      ++slots[static_cast<std::size_t>(i)].count;
      if (i == thrower) throw std::runtime_error("index " + std::to_string(i));
    });
    ADD_FAILURE() << "run() swallowed the exception of index " << thrower;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index " + std::to_string(thrower));
  }
  // Every index still ran once: a throw does not cancel the others.
  for (const Slot& s : slots) EXPECT_EQ(s.count, 1);
  pool.run([&](int i) { ++slots[static_cast<std::size_t>(i)].count; });
  for (const Slot& s : slots) EXPECT_EQ(s.count, 2);
}

TEST(ThreadPool, CallerExceptionIsRethrownAndPoolStaysUsable) {
  ThreadPool pool(4);
  expect_rethrown_then_reusable(pool, 0);
  expect_rethrown_then_reusable(pool, 0);
}

TEST(ThreadPool, WorkerExceptionIsRethrownAndPoolStaysUsable) {
  ThreadPool pool(4);
  expect_rethrown_then_reusable(pool, 3);
  expect_rethrown_then_reusable(pool, 1);
}

TEST(ThreadPool, OneExceptionWhenEveryIndexThrows) {
  ThreadPool pool(4);
  for (int r = 0; r < 50; ++r) {
    EXPECT_THROW(pool.run([](int) { throw std::runtime_error("all"); }),
                 std::runtime_error);
  }
  int ran = 0;
  pool.run([&](int i) {
    if (i == 0) ran = 1;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, SingleThreadRunsInlineAndRethrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run([](int) { throw std::runtime_error("inline"); }),
               std::runtime_error);
  int ran = -1;
  pool.run([&](int i) { ran = i; });
  EXPECT_EQ(ran, 0);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_ANY_THROW(ThreadPool(0));
}

TEST(ThreadPool, DestructionIsCleanInEveryWaitingPhase) {
  const std::function<void(int)> nop = [](int) {};
  for (int n : {2, 4, 8}) {
    { ThreadPool never_ran(n); }
    {
      // Workers are still spinning on the epoch when the pool dies.
      ThreadPool pool(n);
      pool.run(nop);
    }
    {
      // Workers have slept past the spin bound and block in the futex.
      ThreadPool pool(n);
      pool.run(nop);
      std::this_thread::sleep_for(20 * ThreadPool::kSpinFor +
                                  std::chrono::milliseconds(5));
    }
  }
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

TEST(ThreadPool, IdlePoolBurnsNoCpuPastItsSpinBound) {
  // Parked pooled run states keep their pools alive between jobs, so a pool
  // that kept spinning would burn its cores for as long as the service is
  // up. Use the widest pool that still spins.
  const int n = resolve_num_threads(0);
  ThreadPool pool(n);
  pool.run([](int) {});
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burned = process_cpu_seconds() - before;
  EXPECT_LT(burned, 0.050) << n << " threads burned " << burned
                           << " s of CPU while idle for 0.2 s";
}

}  // namespace
}  // namespace dec
