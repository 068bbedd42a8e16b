#include "amt/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/tracer.hpp"
#include "support/assert.hpp"

namespace nlh::amt {

thread_local thread_pool* thread_pool::current_pool_ = nullptr;
thread_local unsigned thread_pool::current_index_ = 0;

thread_pool::thread_pool(unsigned num_threads, int locality) : locality_(locality) {
  NLH_ASSERT(num_threads >= 1);
  interval_start_ = std::chrono::steady_clock::now();
  queues_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) queues_.push_back(std::make_unique<worker_queue>());
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool() {
  stop_.store(true, std::memory_order_release);
  { std::lock_guard lk(sleep_m_); }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::post(unique_function<void()> task) {
  NLH_ASSERT(task);
  if (current_pool_ == this) {
    auto& wq = *queues_[current_index_];
    std::lock_guard lk(wq.m);
    wq.q.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::lock_guard lk(inject_m_);
    inject_.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  // A worker re-checks queued_ under sleep_m_ before it waits, so taking
  // sleep_m_ here orders this task either before that check or after the
  // worker is already waiting: the notify cannot be lost.
  { std::lock_guard lk(sleep_m_); }
  work_cv_.notify_one();
}

bool thread_pool::try_pop_local(unsigned index, unique_function<void()>& out) {
  auto& wq = *queues_[index];
  std::lock_guard lk(wq.m);
  if (wq.q.empty()) return false;
  out = std::move(wq.q.back());  // LIFO: newest first for cache locality
  wq.q.pop_back();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool thread_pool::try_steal(unsigned index, unique_function<void()>& out) {
  const auto n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    auto& victim = *queues_[(index + k) % n];
    std::lock_guard lk(victim.m);
    if (!victim.q.empty()) {
      out = std::move(victim.q.front());  // FIFO steal: oldest, largest subtrees
      victim.q.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool thread_pool::try_pop_inject(unique_function<void()>& out) {
  std::lock_guard lk(inject_m_);
  if (inject_.empty()) return false;
  out = std::move(inject_.front());
  inject_.pop_front();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool thread_pool::try_help_one() {
  unique_function<void()> task;
  const unsigned idx = (current_pool_ == this) ? current_index_ : 0;
  if (try_pop_inject(task) || try_pop_local(idx, task) || try_steal(idx, task)) {
    run_task(std::move(task));
    return true;
  }
  return false;
}

void thread_pool::run_task(unique_function<void()> task) {
  // Account at task *start* and track the in-flight stamp: a waiter woken
  // by a promise fulfilled inside `task` must already see this task in the
  // execution count and its elapsed time in busy_time_s().
  const auto t0 = std::chrono::steady_clock::now();
  const auto t0_ns = t0.time_since_epoch().count();
  std::uint64_t my_epoch;
  {
    std::lock_guard lk(active_m_);
    my_epoch = busy_epoch_;
    active_start_ns_.push_back(t0_ns);
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);

  {
    NLH_TRACE_SPAN("amt/task");
    task();
  }

  const auto t1 = std::chrono::steady_clock::now();
  {
    // Retire the stamp and bank the duration under one lock so concurrent
    // busy_time_s() readers see the task as either in flight or completed,
    // never neither. A task spanning a reset banks nothing — see the
    // reset_busy_time() contract.
    std::lock_guard lk(active_m_);
    if (my_epoch != busy_epoch_) return;
    const auto it =
        std::find(active_start_ns_.begin(), active_start_ns_.end(), t0_ns);
    if (it != active_start_ns_.end()) active_start_ns_.erase(it);
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
        std::memory_order_relaxed);
  }
}

void thread_pool::worker_loop(unsigned index) {
  current_pool_ = this;
  current_index_ = index;
  // Perfetto track label; once per thread, so unconditional is fine (a
  // worker that never records takes its ring with it when it exits).
  obs::tracer::instance().set_thread_name(
      (locality_ >= 0 ? "loc" + std::to_string(locality_) + "/worker-"
                      : "worker-") +
      std::to_string(index));
  unique_function<void()> task;
  while (true) {
    if (try_pop_local(index, task) || try_pop_inject(task) || try_steal(index, task)) {
      run_task(std::move(task));
      task = nullptr;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock lk(sleep_m_);
    // Re-check under the lock: a task posted after the empty poll above
    // either shows in queued_ here or its notify finds this worker waiting.
    if (queued_.load(std::memory_order_relaxed) == 0 &&
        !stop_.load(std::memory_order_acquire))
      work_cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
}

double thread_pool::busy_time_s() const {
  const auto now_ns = std::chrono::steady_clock::now().time_since_epoch().count();
  std::lock_guard lk(active_m_);
  double total = static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  for (const auto start_ns : active_start_ns_)
    if (now_ns > start_ns) total += static_cast<double>(now_ns - start_ns) * 1e-9;
  return total;
}

double thread_pool::busy_fraction() const {
  std::chrono::steady_clock::time_point start;
  {
    std::lock_guard lk(interval_m_);
    start = interval_start_;
  }
  const double interval =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (interval <= 0.0) return 0.0;
  return busy_time_s() / (interval * static_cast<double>(workers_.size()));
}

void thread_pool::reset_busy_time() {
  {
    std::lock_guard lk(active_m_);
    ++busy_epoch_;
    active_start_ns_.clear();
    busy_ns_.store(0, std::memory_order_relaxed);
  }
  std::lock_guard lk(interval_m_);
  interval_start_ = std::chrono::steady_clock::now();
}

}  // namespace nlh::amt
