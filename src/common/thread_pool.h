#ifndef CAFE_COMMON_THREAD_POOL_H_
#define CAFE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cafe {

/// Kept only because perfbench/ compiles against it; nothing in src/ uses it.
///
/// Persistent worker pool. Construction spawns num_threads - 1 workers; the
/// thread calling ParallelFor participates as the num_threads-th, so a pool
/// of 1 spawns nothing and runs inline. Workers park on a condition
/// variable between jobs. ParallelFor distributes task indices dynamically
/// (atomic counter); one job runs at a time, and ParallelFor is not
/// reentrant and must always be driven by the same thread.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    const size_t spawn = num_threads > 1 ? num_threads - 1 : 0;
    workers_.reserve(spawn);
    for (size_t i = 0; i < spawn; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(task) for every task in [0, num_tasks); returns after all
  /// tasks completed. The calling thread works too, so the pool is never
  /// idle while the caller spins.
  void ParallelFor(uint32_t num_tasks,
                   const std::function<void(uint32_t)>& fn) {
    if (num_tasks == 0) return;
    if (workers_.empty() || num_tasks == 1) {
      for (uint32_t t = 0; t < num_tasks; ++t) fn(t);
      return;
    }
    // The job lives on the heap behind a shared_ptr: a worker that wakes
    // late still holds a valid job, finds the task counter exhausted, and
    // goes back to sleep — it can never claim an index from a LATER job
    // with this job's function (the classic reused-counter race).
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->num_tasks = num_tasks;
    job->pending.store(num_tasks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_job_ = job;
      ++generation_;
    }
    wake_.notify_all();
    RunJob(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [&job]() {
        return job->pending.load(std::memory_order_acquire) == 0;
      });
      current_job_.reset();
    }
  }

 private:
  struct Job {
    const std::function<void(uint32_t)>* fn = nullptr;
    uint32_t num_tasks = 0;
    std::atomic<uint32_t> next{0};
    std::atomic<uint32_t> pending{0};
  };

  void RunJob(Job& job) {
    for (;;) {
      const uint32_t t = job.next.fetch_add(1, std::memory_order_relaxed);
      if (t >= job.num_tasks) return;
      (*job.fn)(t);
      if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task done: wake the caller. Notify under the mutex so the
        // caller cannot check the predicate and park between our decrement
        // and the notify.
        std::lock_guard<std::mutex> lock(mu_);
        done_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock,
                   [this, seen]() { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = current_job_;
      }
      if (job != nullptr) RunJob(*job);
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_job_;  // guarded by mu_
  uint64_t generation_ = 0;           // guarded by mu_
  bool stop_ = false;                 // guarded by mu_
};

}  // namespace cafe

#endif  // CAFE_COMMON_THREAD_POOL_H_
