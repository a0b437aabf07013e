#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace pac {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : std::min(threads, kMaxThreads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  run_slotted(count, [&task](std::size_t i, std::size_t) { task(i); });
}

void ThreadPool::run_slotted(std::size_t count, const Task& task) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) run_index(task, i, 0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      active_ = workers_.size();
      ++generation_;
    }
    work_cv_.notify_all();
    // The owner is a full participant: claim indices until none are left.
    for (std::size_t i = next_.fetch_add(1); i < count; i = next_.fetch_add(1))
      run_index(task, i, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    task_ = nullptr;
  }
  // Every index has finished and no worker touches the job any more.
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::run_index(const Task& task, std::size_t i,
                           std::size_t slot) noexcept {
  try {
    task(i, slot);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_ || i < error_index_) {
      error_ = std::current_exception();
      error_index_ = i;
    }
  }
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const Task* task = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
      count = count_;
    }
    for (std::size_t i = next_.fetch_add(1); i < count;
         i = next_.fetch_add(1))
      run_index(*task, i, slot);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = --active_ == 0;
    }
    if (last) done_cv_.notify_one();
  }
}

std::size_t ThreadPool::resolve(int requested) noexcept {
  if (requested >= 1)
    return std::min(static_cast<std::size_t>(requested), kMaxThreads);
  const char* env = std::getenv("PAC_EM_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1) return 1;
  return std::min(static_cast<std::size_t>(value), kMaxThreads);
}

}  // namespace pac
