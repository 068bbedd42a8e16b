#pragma once
///
/// \file future.hpp
/// \brief Futurization primitives modeled on the HPX subset the paper uses:
/// `future`, `promise` and `then`-continuations.
///
/// Unlike `std::future`, attaching a continuation (`then`) never blocks: when
/// the state is already ready the continuation runs inline on the attaching
/// thread, otherwise it runs inline on the thread that fulfills the promise.
/// This is exactly the mechanism the distributed solver uses to chain
/// "ghost data arrived -> compute case-1 DPs" without idling a worker.
///

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "amt/unique_function.hpp"
#include "support/assert.hpp"

namespace nlh::amt {

template <class T>
class future;
template <class T>
class promise;

namespace detail {

template <class T>
struct value_box {
  std::optional<T> v;
  bool has() const { return v.has_value(); }
  T take() { return std::move(*v); }
};

template <>
struct value_box<void> {
  bool set = false;
  bool has() const { return set; }
  void take() {}
};

/// Reference-counted synchronization cell shared by promise/future pairs.
template <class T>
class shared_state {
 public:
  template <class... Args>
  void set_value(Args&&... args) {
    std::vector<unique_function<void()>> conts;
    {
      std::lock_guard lk(m_);
      NLH_ASSERT_MSG(!ready_, "shared_state: value set twice");
      if constexpr (std::is_void_v<T>)
        box_.set = true;
      else
        box_.v.emplace(std::forward<Args>(args)...);
      ready_ = true;
      conts.swap(continuations_);
    }
    cv_.notify_all();
    for (auto& c : conts) c();  // run outside the lock: continuations may attach more
  }

  void set_exception(std::exception_ptr e) {
    std::vector<unique_function<void()>> conts;
    {
      std::lock_guard lk(m_);
      NLH_ASSERT_MSG(!ready_, "shared_state: value set twice");
      err_ = std::move(e);
      ready_ = true;
      conts.swap(continuations_);
    }
    cv_.notify_all();
    for (auto& c : conts) c();
  }

  bool is_ready() const {
    std::lock_guard lk(m_);
    return ready_;
  }

  void wait() const {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return ready_; });
  }

  T get() {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return ready_; });
    if (err_) std::rethrow_exception(err_);
    return box_.take();
  }

  /// Attach `fn`; runs inline immediately when already ready.
  void add_continuation(unique_function<void()> fn) {
    {
      std::lock_guard lk(m_);
      if (!ready_) {
        continuations_.push_back(std::move(fn));
        return;
      }
    }
    fn();
  }

 private:
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  value_box<T> box_;
  std::exception_ptr err_;
  bool ready_ = false;
  std::vector<unique_function<void()>> continuations_;
};

}  // namespace detail

/// Write end of an asynchronous value (HPX/std semantics).
template <class T>
class promise {
 public:
  promise() : state_(std::make_shared<detail::shared_state<T>>()) {}

  future<T> get_future();

  template <class... Args>
  void set_value(Args&&... args) {
    // Pin the state for the whole fulfillment: a waiter woken inside
    // set_value may destroy this promise (and the future) immediately,
    // which must not tear the state down under the notifying thread.
    auto s = state_;
    s->set_value(std::forward<Args>(args)...);
  }
  void set_exception(std::exception_ptr e) {
    auto s = state_;
    s->set_exception(std::move(e));
  }

 private:
  template <class U>
  friend class future;
  std::shared_ptr<detail::shared_state<T>> state_;
};

/// Read end of an asynchronous value with continuation support.
template <class T>
class future {
 public:
  using value_type = T;

  future() = default;
  explicit future(std::shared_ptr<detail::shared_state<T>> s) : state_(std::move(s)) {}

  bool valid() const { return state_ != nullptr; }
  bool is_ready() const {
    NLH_ASSERT(valid());
    return state_->is_ready();
  }
  void wait() const {
    NLH_ASSERT(valid());
    state_->wait();
  }

  /// Blocking retrieval; consumes the future's value (HPX semantics).
  T get() {
    NLH_ASSERT(valid());
    auto s = std::move(state_);
    return s->get();
  }

  /// Attach a continuation receiving the ready future; returns the
  /// continuation's own future. Runs inline on the fulfilling thread.
  template <class F>
  auto then(F&& fn) -> future<std::invoke_result_t<F, future<T>>> {
    NLH_ASSERT(valid());
    using R = std::invoke_result_t<F, future<T>>;
    promise<R> p;
    auto result = p.get_future();
    auto state = std::move(state_);
    state->add_continuation(
        [state, p = std::move(p), fn = std::forward<F>(fn)]() mutable {
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
    return result;
  }

  std::shared_ptr<detail::shared_state<T>> state() const { return state_; }

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

template <class T>
future<T> promise<T>::get_future() {
  NLH_ASSERT(state_ != nullptr);
  return future<T>(state_);
}

}  // namespace nlh::amt
