#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace bwshare::util {
namespace {

TEST(ThreadPool, ZeroThreadsMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_threads(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, RejectsAbsurdThreadCounts) {
  // Checked before any thread spawns, so a typo'd --threads fails cleanly
  // instead of exhausting the process rlimit.
  EXPECT_THROW(ThreadPool{4097}, Error);
}

TEST(ThreadPool, ParallelForCoversEachIndexOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::vector<std::atomic<int>> hits(57);
  parallel_for(pool, 57, [&hits](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](int) { FAIL() << "must not run"; });
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.on_worker_thread());  // the test thread is no one's worker
  bool a_in_a = false;
  bool b_in_a = false;
  parallel_for(a, 1, [&](int) {
    a_in_a = a.on_worker_thread();
    b_in_a = b.on_worker_thread();
  });
  EXPECT_TRUE(a_in_a);
  EXPECT_FALSE(b_in_a);
}

TEST(ParallelFor, SingleThreadedPoolRunsIterationsInIndexOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 5, [&order](int i) { order.push_back(i); });
  // One worker: iterations run in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsFirstIterationException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 4,
                            [](int i) {
                              if (i == 2) throw Error("iteration failed");
                            }),
               Error);
}

TEST(ParallelFor, WaitsForEveryIterationBeforeRethrowing) {
  // The batch lives on the caller's stack: an early rethrow would leave the
  // surviving iterations touching a dead frame.
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(pool, 30,
                            [&finished](int i) {
                              if (i % 7 == 0) throw Error("some fail");
                              std::this_thread::yield();
                              finished.fetch_add(1);
                            }),
               Error);
  EXPECT_EQ(finished.load(), 30 - 5);  // i = 0, 7, 14, 21, 28 threw
}

TEST(ParallelFor, PoolIsReusableAfterAFailedCall) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 1, [&counter](int) { counter.fetch_add(1); });
  EXPECT_THROW(parallel_for(pool, 1, [](int) { throw Error("call two"); }),
               Error);
  parallel_for(pool, 1, [&counter](int) { counter.fetch_add(10); });
  EXPECT_EQ(counter.load(), 11);
}

TEST(ParallelFor, ConcurrentCallsWaitOnlyForTheirOwnIterations) {
  // Two callers share one pool: the fast call must return while the slow
  // call's iteration still occupies a worker.
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread slow([&] {
    parallel_for(pool, 1, [&](int) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> fast_done{0};
  parallel_for(pool, 1, [&fast_done](int) { fast_done.fetch_add(1); });
  EXPECT_EQ(fast_done.load(), 1);
  release.store(true);
  slow.join();
}

TEST(ParallelFor, ConcurrentCallersEachSeeOnlyTheirOwnWork) {
  ThreadPool pool(3);
  std::vector<std::thread> callers;
  std::vector<int> sums(4, 0);
  for (size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 25; ++round) {
        std::atomic<int> sum{0};
        parallel_for(pool, 8, [&sum](int i) { sum.fetch_add(i); });
        sums[c] += sum.load();
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const int s : sums) EXPECT_EQ(s, 25 * 28);
}

TEST(ParallelFor, CallFromAPoolWorkerThrowsInsteadOfDeadlocking) {
  // A worker blocked in parallel_for cannot run the iterations it waits
  // for; with a 1-thread pool this would deadlock forever, so it refuses.
  ThreadPool pool(1);
  std::atomic<bool> threw{false};
  std::atomic<bool> nested_ran{false};
  parallel_for(pool, 1, [&](int) {
    try {
      parallel_for(pool, 1, [&](int) { nested_ran.store(true); });
    } catch (const Error&) {
      threw.store(true);
    }
  });
  EXPECT_TRUE(threw.load());
  EXPECT_FALSE(nested_ran.load());  // refused before queueing anything
}

TEST(ParallelFor, CallFromAWorkerOfAnotherPoolIsAllowed) {
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> counter{0};
  parallel_for(outer, 2, [&](int) {
    parallel_for(inner, 3, [&counter](int) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 6);
}

}  // namespace
}  // namespace bwshare::util
