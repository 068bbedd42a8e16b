#pragma once
///
/// \file scheduler.hpp
/// \brief Weighted-deficit scheduling of QoS-classed work onto the shared
/// `amt::thread_pool` (docs/service.md).
///
/// One bounded FIFO queue per `qos_class`; at most
/// `scheduler_options::max_concurrent` items execute simultaneously, each
/// occupying one pool worker for its duration. Slot assignment is deficit
/// round-robin: every class carries a credit balance capped at its
/// weight; a dispatch costs
/// one credit, and when no backlogged class has credit left a new round
/// tops every class back up to its weight — so under saturation class
/// service rates converge to the weight ratio (8:3:1 by default) while
/// any single backlogged class gets the whole pool when the others are
/// idle (work conserving).
///
/// Backpressure and load shedding are explicit, never implicit latency:
///   - a class queue at its `queue_cap` refuses the enqueue (the caller
///     fails the job fast),
///   - queued items whose class `deadline_seconds` has passed are shed at
///     dispatch time (their `shed` callback fires with reason "expired").
///
/// Items delayed by quota policing carry a `ready_at_s`; they keep their
/// queue position but are skipped until the service clock reaches it.
/// Items that share a non-empty `key` (one persistent tenant's session)
/// run one at a time by the same rule: while one is running, the others
/// keep their queue positions and are skipped.
/// Callbacks (`run`, `shed`) are always invoked outside the scheduler
/// lock, so they may re-enter `enqueue` (promise continuations do).
///

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "amt/thread_pool.hpp"
#include "amt/unique_function.hpp"
#include "obs/metrics.hpp"
#include "svc/qos.hpp"

namespace nlh::svc {

/// One schedulable unit. Exactly one of `run` / `shed` ever fires.
struct sched_item {
  qos_class cls = qos_class::batch;
  std::uint64_t seq = 0;     ///< submission order (FIFO baseline tiebreak)
  double enqueued_s = 0.0;   ///< service-clock enqueue time (deadline origin)
  double ready_at_s = 0.0;   ///< quota-imposed earliest start (0 = now)
  /// Non-empty: skipped while another item with the same key is running.
  std::string key;
  /// Executes the job on a pool worker; must not throw (the service wraps
  /// job failures into its result future before handing `run` over).
  amt::unique_function<void()> run;
  /// Fail-fast path ("expired"); runs on the caller of pump(), never
  /// concurrently with `run`.
  amt::unique_function<void(const std::string&)> shed;
};

struct scheduler_options {
  qos_config qos;
  /// Execution slots: items running simultaneously (each holds one pool
  /// worker). Keep <= the pool's worker count.
  int max_concurrent = 2;
};

/// Thread-safe; owns the queues and slot accounting, borrows the pool.
class class_scheduler {
 public:
  /// `clock` returns seconds on the service clock (monotonic; injectable
  /// for deterministic tests).
  class_scheduler(scheduler_options opt, amt::thread_pool& pool,
                  std::function<double()> clock);

  enum class enqueue_result {
    queued,      ///< accepted; will run or be shed by its deadline
    queue_full,  ///< class queue at queue_cap — caller sheds the job
  };

  /// Hand one item over; on `queued` the scheduler now owns the callbacks
  /// and fires exactly one of them eventually. On `queue_full` the caller
  /// keeps ownership (nothing was consumed).
  enqueue_result enqueue(sched_item item);

  /// Dispatch every eligible item into free slots and shed expired queued
  /// work. Called internally on enqueue and completion; the service's
  /// ticker also calls it periodically so quota `ready_at` times and
  /// deadlines fire without traffic.
  void pump();

  /// Block until every queue is empty, no item is running and no thread is
  /// still inside the scheduler finishing one: the scheduler may be
  /// destroyed as soon as this returns.
  void wait_idle();

  int queue_depth(qos_class c) const;
  int running() const;
  std::uint64_t served(qos_class c) const;
  std::uint64_t shed_expired() const;
  /// Credit top-up rounds so far (the deficit scheduler's progress pulse).
  std::uint64_t rounds() const;

  /// Append the `svc/sched/*` view (per-class depth gauges and served
  /// counters, shed counters, rounds).
  void metrics_into(obs::metrics_snapshot& snap) const;

 private:
  /// Shed callbacks must run outside mu_ (they resolve user promises whose
  /// continuations may re-enter enqueue); pump_locked collects them here.
  struct pending_shed {
    amt::unique_function<void(const std::string&)> shed;
    std::string reason;
  };

  /// Caller holds mu_. Fills `sheds` with expired items and posts ready
  /// items into free slots.
  void pump_locked(std::vector<pending_shed>& sheds);
  /// Caller holds mu_: first queued item of `c` with ready_at <= now and
  /// no running item of its key, or queue end.
  std::deque<sched_item>::iterator first_ready_locked(qos_class c, double now);
  /// pump() and the pool-task epilogue: free a slot (and `key`) when
  /// `item_done`, dispatch, run the resulting sheds, then broadcast under
  /// mu_.
  void settle(bool item_done, const std::string& key = {});

  scheduler_options opt_;
  amt::thread_pool& pool_;
  std::function<double()> clock_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::array<std::deque<sched_item>, qos_class_count> queues_;
  std::array<int, qos_class_count> credits_{};  ///< deficit balances
  int running_ = 0;
  std::set<std::string> running_keys_;  ///< keys of the running items
  /// Threads running shed callbacks outside mu_; the scheduler is not idle
  /// until they are back.
  int settling_ = 0;
  std::array<std::uint64_t, qos_class_count> served_{};
  std::uint64_t rounds_ = 0;
  obs::counter shed_expired_;
};

}  // namespace nlh::svc
