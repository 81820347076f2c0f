// Fixed-size worker pool for CPU-bound fan-out (the eval::Sweep campaign
// runner, the serve batch and the engine's parallel component solver).
// Deliberately minimal: parallel_for is the only way to run work on it, and
// each call waits for its own iterations only, so several clients can share
// one pool without waiting on each other's work. Determinism is the
// caller's job — sweep jobs write results into pre-allocated slots keyed by
// job index, the engine stages per-component rates and commits them
// sequentially, so output never depends on completion order or thread
// count.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bwshare::util {

class ThreadPool;

/// Run fn(0), ..., fn(n-1) across the pool and wait for all of them.
///   * rethrows the first exception an iteration threw (later ones are
///     dropped); the pool stays usable;
///   * waits only for its own iterations — concurrent calls on one pool
///     neither delay nor are delayed by each other;
///   * throws bwshare::Error when called from one of the pool's own
///     workers, instead of deadlocking: a worker blocked here cannot run
///     the queued iterations it waits for.
void parallel_for(ThreadPool& pool, int n, const std::function<void(int)>& fn);

class ThreadPool {
 public:
  /// The most workers one pool may spawn.
  static constexpr int kMaxThreads = 4096;

  /// Spawn `num_threads` workers (at most kMaxThreads); 0 means
  /// hardware_threads().
  explicit ThreadPool(int num_threads = 0);
  /// Joins all workers. parallel_for never returns with its iterations
  /// still queued, so nothing is pending here.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// True when the calling thread is one of *this* pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  /// std::thread::hardware_concurrency() clamped to >= 1.
  [[nodiscard]] static int hardware_threads();

 private:
  friend void parallel_for(ThreadPool& pool, int n,
                           const std::function<void(int)>& fn);

  /// Enqueue a job that does not throw (parallel_for wraps each iteration).
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_work_;  // workers wait for jobs
  bool stop_ = false;
};

}  // namespace bwshare::util
