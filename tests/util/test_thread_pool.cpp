#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cn::util {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, SerialPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPool, DefaultResolvesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelForEdgeSizes) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
  // Fewer items than lanes.
  pool.parallel_for(2, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, SubmitRunsAllTasksBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, RepeatedParallelForReusesWorkers) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50LL * (99 * 100 / 2));
}

TEST(ThreadPool, UnevenTaskCostsStillComplete) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  pool.parallel_for(64, [&](std::size_t i) {
    volatile long long spin = 0;
    for (std::size_t k = 0; k < i * 1000; ++k) spin = spin + static_cast<long long>(k);
    sum.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, ExceptionFromTaskPropagatesToCaller) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t i) {
                            if (i == 37) throw std::runtime_error("boom 37");
                          }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ThreadPool, FirstExceptionWinsAndLaterIndicesAreSkipped) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  try {
    pool.parallel_for(10'000, [&](std::size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("every index throws");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "every index throws");
  }
  // Indices claimed after the first failure are abandoned, not run: with
  // every task throwing, only the handful in flight at failure time ran.
  EXPECT_LE(visited.load(), 64);
}

TEST(ThreadPool, CallerSideThrowDoesNotUnwindPastHelpers) {
  // Regression: fn(i) throwing on the CALLING thread must not unwind
  // parallel_for while workers still hold references to the stack-local
  // fn. The slow worker tasks below keep helpers busy across the throw;
  // the shared flag outliving the call is what ASan/TSan verify.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 0) throw std::logic_error("caller throws");
                          std::this_thread::sleep_for(std::chrono::milliseconds(1));
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
        std::logic_error);
  // Every non-throwing task either finished before the rethrow or was
  // skipped; none may still be running once parallel_for returned.
  const int after_return = completed.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(completed.load(), after_return) << "task outlived parallel_for";
}

TEST(ThreadPool, PoolIsReusableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("once"); }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for(1'000, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 1'000);
}

TEST(ThreadPool, DestructionDrainsSlowQueuedTasks) {
  // Destroying the pool the instant the queue is full must block until
  // every task ran — tasks reference `ran`, which lives outside the pool.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitFromWithinATaskIsDrained) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&] {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace cn::util
