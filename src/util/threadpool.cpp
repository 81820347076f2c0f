#include "util/threadpool.hpp"

#include <exception>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::util {

namespace {
// Which pool (if any) owns the current thread. Set once per worker at
// spawn; lets on_worker_thread() answer without locking.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = hardware_threads();
  BWS_CHECK(num_threads <= kMaxThreads,
            strformat("ThreadPool: num_threads must be <= %d", kMaxThreads));
  workers_.reserve(static_cast<size_t>(num_threads));
  try {
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread creation failed (rlimit, OOM): join the workers that did
    // spawn, or their joinable destructors would std::terminate.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_work_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void parallel_for(ThreadPool& pool, int n,
                  const std::function<void(int)>& fn) {
  BWS_CHECK(!pool.on_worker_thread(),
            "parallel_for must not be called from a worker of the same "
            "pool: a worker blocked here cannot run the queued iterations "
            "it waits for (nested-submit deadlock)");
  if (n <= 0) return;
  // The batch lives on this stack frame; the last iteration notifies under
  // the lock, so the frame outlives every access to it. Each job captures
  // one pointer and an index, small enough for std::function to store
  // inline rather than on the heap.
  struct Batch {
    const std::function<void(int)>& fn;
    std::mutex mu;
    std::condition_variable done;
    int pending;                     // guarded by mu
    std::exception_ptr first_error;  // guarded by mu
  } batch{fn, {}, {}, n, nullptr};
  int queued = 0;
  std::exception_ptr enqueue_error;
  try {
    for (; queued < n; ++queued) {
      pool.enqueue([&batch, i = queued] {
        std::exception_ptr error;
        try {
          batch.fn(i);
        } catch (...) {
          error = std::current_exception();
        }
        const std::lock_guard<std::mutex> lock(batch.mu);
        if (error && !batch.first_error) batch.first_error = error;
        if (--batch.pending == 0) batch.done.notify_all();
      });
    }
  } catch (...) {
    // Queueing ran out of memory: the iterations already queued still
    // reference this frame, so wait for them before rethrowing.
    enqueue_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.pending -= n - queued;
  batch.done.wait(lock, [&batch] { return batch.pending == 0; });
  if (enqueue_error) std::rethrow_exception(enqueue_error);
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

}  // namespace bwshare::util
