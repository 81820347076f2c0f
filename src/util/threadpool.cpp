#include "util/threadpool.hpp"

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

void ThreadPool::submit(std::function<void()> job) {
  BWS_CHECK(job != nullptr, "ThreadPool::submit: empty job");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  BWS_CHECK(!on_worker_thread(),
            "ThreadPool::wait_idle must not be called from a pool worker "
            "(the waiting worker cannot run the jobs it waits for)");
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_) {
    const std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
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
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

TaskGroup::~TaskGroup() {
  // Drain without rethrow: destructors must not throw. Errors a caller
  // cares about are observed through an explicit wait(). A worker-thread
  // destructor with pending tasks would deadlock just like wait() — that is
  // a usage bug wait() would have flagged; nothing to do about it here
  // beyond draining, which is a no-op when pending_ == 0 (the common case
  // of wait() having already run).
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::run(std::function<void()> task) {
  BWS_CHECK(task != nullptr, "TaskGroup::run: empty task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_.submit([this, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  });
}

void TaskGroup::wait() {
  BWS_CHECK(!pool_.on_worker_thread(),
            "TaskGroup::wait must not be called from a pool worker: a "
            "worker blocked here cannot run the queued tasks it waits for "
            "(nested-submit deadlock)");
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    const std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void parallel_for(ThreadPool& pool, int n,
                  const std::function<void(int)>& fn) {
  TaskGroup group(pool);
  for (int i = 0; i < n; ++i) {
    group.run([&fn, i] { fn(i); });
  }
  group.wait();
}

}  // namespace bwshare::util
