#include "sim/thread_pool.hpp"

#include "util/check.hpp"

namespace dec {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `word` no longer holds `old` and return its new value
/// (acquire). Spins for up to ThreadPool::kSpinFor when `spin` is set, then
/// blocks in the futex.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old, bool spin) {
  std::uint32_t now = word.load(std::memory_order_acquire);
  if (spin && now == old) {
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + ThreadPool::kSpinFor;
    do {
      // Read the clock once per 64 pauses: a clock read costs more than a
      // pause, and the bound only needs to hold to within a microsecond.
      for (int i = 0; i < 64 && now == old; ++i) {
        cpu_relax();
        now = word.load(std::memory_order_acquire);
      }
    } while (now == old && Clock::now() < deadline);
  }
  while (now == old) {
    word.wait(old, std::memory_order_acquire);
    now = word.load(std::memory_order_acquire);
  }
  return now;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads),
      spin_(static_cast<unsigned>(num_threads) <=
            std::max(1u, std::thread::hardware_concurrency())) {
  DEC_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
  claims_ = std::make_unique<Claim[]>(static_cast<std::size_t>(num_threads));
  workers_.reserve(static_cast<std::size_t>(num_threads) - 1);
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::invoke(const std::function<void(int)>& job, int index) {
  try {
    job(index);
  } catch (...) {
    if (!error_claimed_.exchange(true, std::memory_order_relaxed)) {
      first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::run_unclaimed(int first, std::uint32_t epoch) {
  for (int k = 0; k < num_threads_; ++k) {
    const int index = (first + k) % num_threads_;
    if (index == 0) continue;
    auto& claim = claims_[static_cast<std::size_t>(index)].epoch;
    std::uint32_t last = epoch - 1;
    // Relaxed is enough: the claim only has to be unique, and job_ and the
    // run's inputs were published by the epoch bump this thread acquired.
    if (claim.load(std::memory_order_relaxed) != last ||
        !claim.compare_exchange_strong(last, epoch,
                                       std::memory_order_relaxed)) {
      continue;
    }
    // job_ is the current run's until its last index is counted down, and
    // this one has not been.
    invoke(*job_, index);
    // The last index out wakes the caller if it went to sleep.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(int)>& job) {
  const auto workers = static_cast<std::uint32_t>(workers_.size());
  std::uint32_t epoch = 0;
  if (workers > 0) {
    job_ = &job;
    pending_.store(workers, std::memory_order_relaxed);
    // The RMW is the release that publishes job_ and pending_; it is also a
    // full fence, which notify_all's "is anyone asleep?" check relies on.
    epoch = epoch_.fetch_add(1, std::memory_order_release) + 1;
    epoch_.notify_all();
  }
  invoke(job, 0);
  if (workers > 0) run_unclaimed(1, epoch);
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0;) {
    left = await_change(pending_, left, spin_);
  }
  job_ = nullptr;
  if (error_claimed_.load(std::memory_order_relaxed)) {
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    error_claimed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker(int index) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(epoch_, seen, spin_);
    if (stop_.load(std::memory_order_relaxed)) return;
    run_unclaimed(index, seen);
  }
}

}  // namespace dec
