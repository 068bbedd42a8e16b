// Tests for the work-stealing thread pool, async/dataflow_one launch and
// busy-time accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "amt/async.hpp"
#include "amt/thread_pool.hpp"

namespace amt = nlh::amt;

TEST(ThreadPool, ExecutesPostedTasks) {
  amt::thread_pool pool(2);
  std::atomic<int> count{0};
  amt::promise<void> done;
  constexpr int n = 100;
  for (int i = 0; i < n; ++i)
    pool.post([&] {
      if (count.fetch_add(1) + 1 == n) done.set_value();
    });
  done.get_future().get();
  EXPECT_EQ(count.load(), n);
  EXPECT_GE(pool.tasks_executed(), static_cast<std::uint64_t>(n));
}

TEST(ThreadPool, AsyncReturnsValue) {
  amt::thread_pool pool(1);
  auto f = amt::async(pool, [](int a, int b) { return a + b; }, 20, 22);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, AsyncVoid) {
  amt::thread_pool pool(1);
  std::atomic<bool> ran{false};
  auto f = amt::async(pool, [&] { ran = true; });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, AsyncPropagatesException) {
  amt::thread_pool pool(1);
  auto f = amt::async(pool, []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, PaperListingOneWithAsync) {
  // Listing 1 of the paper executed on the mini-AMT runtime.
  amt::thread_pool pool(2);
  auto add = [](int one, int second) { return one + second; };
  auto a_add_b = amt::async(pool, add, 1, 2);
  auto c_add_d = amt::async(pool, add, 3, 4);
  const int result = a_add_b.get() + c_add_d.get();
  EXPECT_EQ(result, 10);
}

TEST(ThreadPool, NestedSpawnsComplete) {
  amt::thread_pool pool(2);
  std::atomic<int> leaf_count{0};
  amt::promise<void> done;
  constexpr int width = 8;
  for (int i = 0; i < width; ++i) {
    pool.post([&] {
      // Tasks spawned from workers go to the local deque (tests stealing).
      for (int j = 0; j < width; ++j)
        pool.post([&] {
          if (leaf_count.fetch_add(1) + 1 == width * width) done.set_value();
        });
    });
  }
  done.get_future().get();
  EXPECT_EQ(leaf_count.load(), width * width);
}

TEST(ThreadPool, HelpingWaitSingleThreadNoDeadlock) {
  // A single-threaded pool where the waited-on future depends on a queued
  // task; pool.wait must help execute it rather than deadlock.
  amt::thread_pool pool(1);
  amt::promise<int> p;
  auto chain = amt::async(pool, [&pool, &p] {
    pool.post([&p] { p.set_value(5); });
  });
  chain.get();
  auto f = p.get_future();
  pool.wait(f);
  EXPECT_EQ(f.get(), 5);
}

TEST(ThreadPool, BusyTimeAccumulates) {
  amt::thread_pool pool(1);
  pool.reset_busy_time();
  auto f = amt::async(pool, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  f.get();
  EXPECT_GE(pool.busy_time_s(), 0.025);
  const double frac = pool.busy_fraction();
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0 + 1e-9);
}

TEST(ThreadPool, ResetBusyTimeZeroes) {
  amt::thread_pool pool(1);
  amt::async(pool, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }).get();
  EXPECT_GT(pool.busy_time_s(), 0.0);
  pool.reset_busy_time();
  EXPECT_DOUBLE_EQ(pool.busy_time_s(), 0.0);
}

TEST(ThreadPool, ManySmallTasksAcrossWorkers) {
  amt::thread_pool pool(4);
  std::atomic<long long> sum{0};
  std::vector<amt::future<void>> fs;
  fs.reserve(500);
  for (int i = 0; i < 500; ++i)
    fs.push_back(amt::async(pool, [&sum, i] { sum += i; }));
  for (const auto& f : fs) f.wait();
  EXPECT_EQ(sum.load(), 500LL * 499 / 2);
}

TEST(ThreadPool, DestructionDrainsCleanly) {
  std::atomic<int> executed{0};
  {
    amt::thread_pool pool(2);
    std::vector<amt::future<void>> fs;
    for (int i = 0; i < 50; ++i)
      fs.push_back(amt::async(pool, [&] { ++executed; }));
    for (const auto& f : fs) f.wait();
  }  // destructor joins workers
  EXPECT_EQ(executed.load(), 50);
}

TEST(ThreadPool, PostRacingAWorkerOnItsWayToSleepIsNotLost) {
  // One worker, one poster. Each task raises a flag the poster spins on,
  // and the poster then waits a little longer each round before it posts
  // again, so the posts sweep across the worker's path from its last empty
  // poll to its sleep. A post whose wake-up is lost there sits in the
  // queue until the worker's 1 ms timed wait runs out; a post that is not
  // lost runs within microseconds.
  amt::thread_pool pool(1);
  constexpr int rounds = 2000;
  int stalled = 0;
  std::atomic<bool> ran{false};
  for (int i = 0; i < rounds; ++i) {
    ran.store(false, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    pool.post([&ran] { ran.store(true, std::memory_order_release); });
    while (!ran.load(std::memory_order_acquire)) {
    }
    if (std::chrono::steady_clock::now() - t0 > std::chrono::microseconds(700))
      ++stalled;
    for (volatile int spin = 0; spin < i % 200; spin = spin + 1) {
    }
  }
  // Scheduler noise on a busy host stalls a few rounds; lost wake-ups
  // stall a large share of them.
  EXPECT_LT(stalled, rounds / 20) << stalled << " of " << rounds
                                   << " posts waited out the timed sleep";
}
