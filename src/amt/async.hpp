#pragma once
///
/// \file async.hpp
/// \brief `async`/`dataflow_one` — launch callables on a thread pool and get
/// a future, mirroring `hpx::async` / `hpx::dataflow`.
///

#include <tuple>
#include <type_traits>
#include <utility>

#include "amt/future.hpp"
#include "amt/thread_pool.hpp"

namespace nlh::amt {

/// Launch `fn(args...)` on `pool`; returns a future for its result.
/// Exceptions propagate through the future (rethrown from get()).
template <class F, class... Args>
auto async(thread_pool& pool, F&& fn, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
  promise<R> p;
  auto fut = p.get_future();
  pool.post([p = std::move(p), fn = std::forward<F>(fn),
             tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
    try {
      if constexpr (std::is_void_v<R>) {
        std::apply(fn, std::move(tup));
        p.set_value();
      } else {
        p.set_value(std::apply(fn, std::move(tup)));
      }
    } catch (...) {
      p.set_exception(std::current_exception());
    }
  });
  return fut;
}

/// Single-dependency dataflow: run `fn(ready)` on `pool` once `dep` is
/// ready. This is the hop the ghost exchange uses to move each message's
/// unpack off the delivering thread onto the owner's pool — one future,
/// one continuation.
template <class T, class F>
auto dataflow_one(thread_pool& pool, future<T> dep, F&& fn)
    -> future<std::invoke_result_t<std::decay_t<F>, future<T>>> {
  using R = std::invoke_result_t<std::decay_t<F>, future<T>>;
  promise<R> p;
  auto out = p.get_future();
  auto state = dep.state();
  NLH_ASSERT(state != nullptr);
  state->add_continuation(
      [&pool, state, p = std::move(p), fn = std::forward<F>(fn)]() mutable {
        pool.post([state = std::move(state), p = std::move(p),
                   fn = std::move(fn)]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn(future<T>(std::move(state)));
              p.set_value();
            } else {
              p.set_value(fn(future<T>(std::move(state))));
            }
          } catch (...) {
            p.set_exception(std::current_exception());
          }
        });
      });
  return out;
}

}  // namespace nlh::amt
