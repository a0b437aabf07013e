// A small persistent thread pool for deterministic intra-rank work sharing.
//
// The EM engine's E- and M-steps are blocked (kEStepBlock items per block)
// and every block writes into its own disjoint partial buffers, so blocks
// can be claimed dynamically by any worker: the *results* depend only on
// the block structure, never on which thread ran which block or in what
// order.  The owner thread then folds the per-block partials in block-index
// order, which is what makes the fold a pure function of the block size —
// bit-identical across 1, 2, or N threads (DESIGN.md §5).
//
// The pool is deliberately minimal: one job at a time, submitted and joined
// by the owning thread; workers claim indices from a shared atomic counter.
// With threads == 1 no OS threads are spawned and run() degenerates to a
// plain loop — exactly the pre-pool behavior.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pac {

class ThreadPool {
 public:
  /// `threads` is the total worker count *including* the calling thread:
  /// a pool of T spawns T-1 OS threads.  T = 0 is clamped to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Run task(i) for every i in [0, count), work-shared across the pool;
  /// the calling thread participates and the call returns only when every
  /// index has finished.  An index that throws does not stop the others:
  /// every index runs, and after the join the exception of the
  /// lowest-indexed failing task is rethrown on the calling thread — the
  /// same error whatever thread ran it, so error reporting is as
  /// deterministic as the results.  Only the owning thread may call run().
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// run() that also passes the running thread's slot in [0, threads())
  /// as the task's second argument (0 = the calling thread).  No two
  /// concurrently running indices share a slot, so a caller can hand each
  /// slot its own scratch buffer.
  void run_slotted(
      std::size_t count,
      const std::function<void(std::size_t index, std::size_t slot)>& task);

  /// Resolve an EmConfig-style thread request: n >= 1 is taken as-is, 0
  /// reads the PAC_EM_THREADS environment variable (default 1).  The result
  /// is clamped to [1, kMaxThreads].
  static std::size_t resolve(int requested) noexcept;

  static constexpr std::size_t kMaxThreads = 256;

 private:
  using Task = std::function<void(std::size_t, std::size_t)>;

  void worker_loop(std::size_t slot);
  /// task(i, slot), keeping its exception if it is the lowest-indexed one
  /// so far.
  void run_index(const Task& task, std::size_t i, std::size_t slot) noexcept;

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a new job generation exists
  std::condition_variable done_cv_;  // owner: all workers left the job
  std::uint64_t generation_ = 0;     // bumped per submitted job
  std::size_t active_ = 0;           // workers still inside the current job
  bool stop_ = false;
  const Task* task_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};  // next unclaimed index
  std::exception_ptr error_;          // lowest-indexed failure of the job
  std::size_t error_index_ = 0;       // its index (guarded by mutex_)
};

}  // namespace pac
