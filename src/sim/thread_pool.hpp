// Reusable fork-join thread pool for the parallel round engine.
//
// A simulated solve is thousands of synchronous rounds of tens of
// microseconds each, and every sharded round crosses run() once. So the
// barrier, not the round body, decides whether sharding pays; the design
// keeps it well under a round:
//
// - The caller is worker 0. run(job) publishes the job, executes job(0) on
//   the calling thread, then helps with and waits for the other
//   num_threads - 1 indices, so only num_threads - 1 OS threads exist and
//   none of the calling thread's time goes to sleeping through the round.
// - Dispatch is an epoch counter. Each worker remembers the last epoch it
//   saw; run() bumps the epoch and the workers see it change. Completion is
//   an atomic countdown of the outstanding indices 1 .. num_threads - 1.
// - Indices are claimed, not assigned. Each index has a claim word holding
//   the epoch of its last claim; whoever moves it from the previous epoch
//   to the current one runs that index. A worker claims its own index
//   first, so a shard normally stays on one core, and then any index
//   nobody has started; the caller does the same after job(0). So a worker
//   that is slow to start (descheduled by another task on its core, or
//   still waking from the futex) costs the round one more shard on a
//   thread that is running, not the time until it is scheduled again.
// - Waiting is spin-then-futex on both sides: a waiter spins (with a CPU
//   pause) for at most kSpinFor, then blocks in C++20 std::atomic::wait,
//   which is a futex on Linux. Back-to-back rounds therefore hand off
//   without a syscall, while an idle pool sleeps and burns no CPU. There is
//   no mutex or condition variable on the per-round path.
// - Workers spin only when the pool has no more threads than the hardware
//   has (std::thread::hardware_concurrency). An oversubscribed pool sleeps
//   at once: a spinning waiter would steal the core the thread it is
//   waiting for needs.
//
// Spin bound. The serial work between two rounds of a solver (the
// begin/finish-round bookkeeping, the audit merge, the solver's own logic)
// must fit inside kSpinFor, or every round pays a futex wake. A probe of
// the congest_sharded benchmark workload's solve_s against the bound, on a
// 4-core 2.0 GHz Xeon VM: 0 µs (futex only) 0.26-0.29 s, 5 µs 0.21 s,
// 20 µs 0.18-0.29 s, 50 µs 0.17-0.20 s, 100 µs 0.19-0.20 s, 200 µs
// 0.18-0.19 s. 20 µs is the knee but not reliably past it; 50 µs sits on
// the plateau with margin, and caps what an idle pool burns after its last
// run at 50 µs per waiter.
//
// Memory ordering. Everything the caller wrote before run() happens-before
// every job(i) (release bump of the epoch, acquire load by the workers);
// everything job(i) wrote happens-before run() returns (release countdown
// of the pending count, acquire load by the caller). Plain, non-atomic
// per-shard results are therefore safe to read right after run().
//
// Errors. The first exception thrown by any index, the caller's own
// job(0) included, is rethrown on the calling thread once every index has
// finished; later ones are dropped. The pool stays usable after a throw
// (the library is exception-based, see util/check.hpp).
//
// The epoch is a 32-bit counter. A claim for epoch e succeeds only while
// the index's word holds e - 1, that is once per run() and never after the
// run has ended, so a worker that wakes late for a run others finished
// claims nothing and reads nothing of it. Every index is claimed in every
// run, so wrap-around is harmless.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace dec {

/// The library-wide "num_threads <= 0 means hardware concurrency"
/// convention (NetworkPool, SharedNetworkPool, solvers documenting 0).
/// Every site must resolve identically or the pool/solver shard-count
/// equality contract (ScopedNetwork) breaks — hence one helper.
inline int resolve_num_threads(int num_threads) {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
}

class ThreadPool {
 public:
  /// How long a waiter spins before it blocks (see the header comment).
  static constexpr std::chrono::microseconds kSpinFor{50};

  /// A pool of `num_threads` (>= 1) indices: the calling thread plus
  /// num_threads - 1 parked workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execute job(i) once for each i in [0, num_threads), job(0) on the
  /// calling thread and any other index on whichever pool thread claims it
  /// first; blocks until every invocation returns. `job` must be safe to
  /// call concurrently with distinct indices. Rethrows the first exception.
  /// Not reentrant, and not to be called from two threads at once.
  void run(const std::function<void(int)>& job);

  int num_threads() const { return num_threads_; }

 private:
  void worker(int index);
  /// Claim and run, in order from `first` and wrapping, every index in
  /// [1, num_threads) not yet claimed for `epoch`.
  void run_unclaimed(int first, std::uint32_t epoch);
  /// Run job(index), keeping its exception if it is the first one.
  void invoke(const std::function<void(int)>& job, int index);

  const int num_threads_;
  const bool spin_;  // false when oversubscribed: wait in the futex at once

  // Written by the caller before the epoch bump, read by workers after it.
  const std::function<void(int)>* job_ = nullptr;
  // Atomic because a worker that wakes late for a run the others finished
  // reads it with no claim ordering it after the destructor's write.
  std::atomic<bool> stop_{false};

  // Caller-written dispatch word and worker-written countdown, on their own
  // cache lines so workers polling the epoch do not slow the countdown.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  alignas(64) std::atomic<std::uint32_t> pending_{0};

  // Exception path only: the first index to throw claims the slot.
  alignas(64) std::atomic<bool> error_claimed_{false};
  std::exception_ptr first_error_;

  // Per index, the epoch of its last claim (index 0 is the caller's and
  // unused); one cache line each.
  struct alignas(64) Claim {
    std::atomic<std::uint32_t> epoch{0};
  };
  std::unique_ptr<Claim[]> claims_;

  // Last, so every member a worker touches exists before it starts.
  std::vector<std::thread> workers_;  // indices 1 .. num_threads - 1
};

}  // namespace dec
