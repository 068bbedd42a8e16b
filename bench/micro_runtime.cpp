///
/// \file micro_runtime.cpp
/// \brief Microbenchmarks of the mini-AMT runtime: async launch/get
/// round-trip, then-continuation chaining, the single-dependency hop the
/// ghost exchange uses (dataflow_one) and task throughput.
///

#include <benchmark/benchmark.h>

#include "amt/async.hpp"
#include "amt/thread_pool.hpp"

namespace amt = nlh::amt;

static void BM_AsyncRoundTrip(benchmark::State& state) {
  amt::thread_pool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto f = amt::async(pool, [] { return 42; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsyncRoundTrip)->Arg(1)->Arg(2)->Arg(4);

static void BM_ReadyFutureThenChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    amt::promise<int> p;
    p.set_value(0);
    auto f = p.get_future();
    for (int i = 0; i < depth; ++i)
      f = f.then([](amt::future<int> r) { return r.get() + 1; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_ReadyFutureThenChain)->Arg(1)->Arg(8)->Arg(64);

/// The ghost-message hop: one dependency, one pool post.
static void BM_DataflowOne(benchmark::State& state) {
  amt::thread_pool pool(1);
  for (auto _ : state) {
    amt::promise<int> p;
    auto out = amt::dataflow_one(pool, p.get_future(),
                                 [](amt::future<int> r) { return r.get() + 1; });
    p.set_value(41);
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataflowOne);

static void BM_TaskThroughput(benchmark::State& state) {
  amt::thread_pool pool(static_cast<unsigned>(state.range(0)));
  const int batch = 256;
  for (auto _ : state) {
    std::vector<amt::future<void>> fs;
    fs.reserve(batch);
    for (int i = 0; i < batch; ++i)
      fs.push_back(amt::async(pool, [] { benchmark::ClobberMemory(); }));
    for (const auto& f : fs) f.wait();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskThroughput)->Arg(1)->Arg(2)->Arg(4);
