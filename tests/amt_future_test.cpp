// Tests for the futurization primitives: future/promise, then-continuations,
// exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "amt/future.hpp"

namespace amt = nlh::amt;

TEST(Future, ReadyAfterSetValue) {
  amt::promise<int> p;
  auto f = p.get_future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.is_ready());
  p.set_value(7);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 7);
}

TEST(Future, GetConsumes) {
  amt::promise<int> p;
  p.set_value(3);
  auto f = p.get_future();
  EXPECT_EQ(f.get(), 3);
  EXPECT_FALSE(f.valid());
}

TEST(Future, VoidSpecialization) {
  amt::promise<void> p;
  auto f = p.get_future();
  EXPECT_FALSE(f.is_ready());
  p.set_value();
  EXPECT_TRUE(f.is_ready());
  f.get();  // no throw
}

TEST(Future, MoveOnlyValue) {
  amt::promise<std::unique_ptr<int>> p;
  auto f = p.get_future();
  p.set_value(std::make_unique<int>(5));
  auto ptr = f.get();
  ASSERT_TRUE(ptr);
  EXPECT_EQ(*ptr, 5);
}

TEST(Future, ThenOnReadyRunsInline) {
  amt::promise<int> p;
  p.set_value(10);
  auto f = p.get_future();
  bool ran = false;
  auto g = f.then([&](amt::future<int> r) {
    ran = true;
    return r.get() * 2;
  });
  EXPECT_TRUE(ran);  // continuation ran inline during then()
  EXPECT_EQ(g.get(), 20);
}

TEST(Future, ThenBeforeReadyRunsOnSet) {
  amt::promise<int> p;
  auto f = p.get_future();
  std::atomic<int> result{0};
  auto g = f.then([&](amt::future<int> r) { result = r.get() + 1; });
  EXPECT_EQ(result.load(), 0);
  p.set_value(41);
  EXPECT_EQ(result.load(), 42);
  EXPECT_TRUE(g.is_ready());
}

TEST(Future, ThenChains) {
  amt::promise<int> p;
  auto f = p.get_future()
               .then([](amt::future<int> r) { return r.get() + 1; })
               .then([](amt::future<int> r) { return r.get() * 3; });
  p.set_value(1);
  EXPECT_EQ(f.get(), 6);
}

TEST(Future, ExceptionPropagatesThroughGet) {
  amt::promise<int> p;
  auto f = p.get_future();
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, ExceptionPropagatesThroughThen) {
  amt::promise<int> p;
  auto f = p.get_future().then([](amt::future<int> r) { return r.get(); });
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, ThrowingContinuationSetsException) {
  amt::promise<int> p;
  p.set_value(1);
  auto f = p.get_future().then(
      [](amt::future<int>) -> int { throw std::logic_error("inside"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(Future, CrossThreadFulfillment) {
  amt::promise<int> p;
  auto f = p.get_future();
  std::thread t([&] { p.set_value(99); });
  EXPECT_EQ(f.get(), 99);
  t.join();
}

TEST(Future, WaitBlocksUntilReady) {
  amt::promise<void> p;
  auto f = p.get_future();
  std::thread t([&] { p.set_value(); });
  f.wait();
  EXPECT_TRUE(f.is_ready());
  t.join();
}

TEST(Future, PaperListingOneExample) {
  // Listing 1 of the paper: a+b+c+d via two async adds. Reproduced with
  // promises standing in for async (the pool version lives in amt_pool_test).
  auto add = [](int x, int y) { return x + y; };
  amt::promise<int> p_ab, p_cd;
  p_ab.set_value(add(1, 2));
  p_cd.set_value(add(3, 4));
  auto a_add_b = p_ab.get_future();
  auto c_add_d = p_cd.get_future();
  EXPECT_EQ(a_add_b.get() + c_add_d.get(), 10);
}
