#pragma once
///
/// \file service.hpp
/// \brief `service_loop`: the long-running QoS-classed service front door
/// over `api::session` (docs/service.md).
///
/// `submit(tenant, class, job)` polices the tenant's quota
/// (admit / delay / shed — svc/quota.hpp), enqueues admitted work into the
/// class's bounded queue and returns an `amt::future<svc_result>`
/// immediately. A `class_scheduler` maps queued work onto the shared
/// `amt::thread_pool` by deficit round-robin over the class weights, sheds
/// expired interactive work, and a built-in ticker thread keeps
/// quota-delayed jobs and deadlines firing even when no submissions or
/// completions arrive. Every terminal outcome resolves the future: `ok`,
/// a captured per-job error, or a fast-failed shed with a distinct
/// `"shed (<reason>)"` error (reasons: quota, queue_full, expired).
///
/// Latency accounting is client-centric: the per-class step-latency
/// histogram measures each step from the *previous result the client saw*
/// — the first step from submission — so queueing delay lands in the
/// distribution exactly where a polling client would feel it. That is the
/// metric the `BENCH_service.json` gate compares QoS vs the no-QoS
/// baseline on (bench/ablation_service.cpp).
///
/// Persistent tenants: a job with a `session_key` runs on the session
/// kept alive under that key, continuing where the key's previous job
/// stopped. The scheduler runs one job per key at a time, and with
/// `service_options::hibernation` enabled the least-recently-used idle
/// tenants are parked in cold storage (docs/service.md,
/// docs/checkpoint.md). Key-less jobs build and destroy their own session.
///
/// Observability: `svc/<class>/...` submitted/completed/failed/shed
/// counters and queue-wait + step-latency histograms, `svc/quota/*` and
/// `svc/sched/*` views, jobs/sec, `svc/tenants`, the `svc/balance/*`
/// totals of auto-rebalanced jobs and the `ckpt/*` hibernation view — all
/// through `metrics_snapshot()`; lifecycle `NLH_TRACE_*` spans/instants
/// ride the process tracer.
///

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "amt/future.hpp"
#include "amt/thread_pool.hpp"
#include "api/session.hpp"
#include "ckpt/hibernation.hpp"
#include "obs/metrics.hpp"
#include "svc/qos.hpp"
#include "svc/quota.hpp"
#include "svc/scheduler.hpp"

namespace nlh::svc {

/// One unit of service work: a full session description plus a step
/// budget.
struct svc_job {
  api::session_options options;
  int num_steps = 0;  ///< steps to advance; 0 = options.num_steps
  std::string label;  ///< echoed into the result; empty = "svc-<sequence>"
  /// Empty (the default): the job builds its own session and destroys it
  /// at completion. Non-empty names a persistent tenant: the service keeps
  /// one session per key alive across jobs (later jobs continue where
  /// earlier ones stopped; their `options` are ignored after the first)
  /// and runs same-key jobs strictly one at a time.
  std::string session_key;
  /// Optional hook run on the worker after the steps (before the result
  /// resolves) with the job's live session — e.g. to gather the field.
  /// An exception it throws fails the job like a stepping error.
  std::function<void(api::session&)> on_complete;
};

/// Terminal outcome of one submission.
struct svc_result {
  std::string label;
  std::string tenant;
  qos_class cls = qos_class::batch;
  bool ok = false;
  /// True when the job never ran: the error starts with "shed (<reason>)".
  bool shed = false;
  std::string error;
  /// Admission -> execution-start wait (seconds); 0 for shed jobs.
  double queue_wait_seconds = 0.0;
  api::runtime_metrics metrics;  ///< meaningful only when ok
};

struct service_options {
  qos_config qos;
  /// The limits every tenant is policed by.
  tenant_quota default_quota;
  /// Workers of the shared pool; each running job occupies one for its
  /// whole duration.
  unsigned pool_threads = 4;
  /// Execution slots; 0 = pool_threads. Must not exceed pool_threads.
  int max_concurrent = 0;
  /// When enabled, at most `hibernation.resident_cap` persistent tenants
  /// stay in memory; the least-recently-used idle ones are compressed to
  /// cold storage and restored when their next job starts. Key-less jobs
  /// never touch it.
  ckpt::hibernation_options hibernation;
};

/// Validate `opt`, one actionable message per offence; empty = valid.
std::vector<std::string> validate(const service_options& opt);

/// Per-class slice of service_stats.
struct class_stats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished OK
  std::uint64_t failed = 0;     ///< ran but threw
  std::uint64_t shed = 0;       ///< never ran (all shed reasons)
  obs::histogram_summary queue_wait;
  obs::histogram_summary step_latency;
};

struct service_stats {
  std::array<class_stats, qos_class_count> per_class;
  std::uint64_t quota_delayed = 0;
  std::uint64_t quota_shed = 0;
  double wall_seconds = 0.0;      ///< first submit -> last completion (so far)
  double jobs_per_second = 0.0;   ///< completed (all classes) / wall
  const class_stats& of(qos_class c) const {
    return per_class[static_cast<std::size_t>(c)];
  }
};

class service_loop {
 public:
  /// Throws std::invalid_argument when validate(opt) reports problems.
  explicit service_loop(service_options opt = {});
  /// Finishes every accepted job, then joins the ticker and pool.
  ~service_loop();

  service_loop(const service_loop&) = delete;
  service_loop& operator=(const service_loop&) = delete;

  /// Police, enqueue, return the result future immediately. Job-level
  /// problems (invalid options, stepping errors, sheds) resolve into
  /// svc_result, never throw here.
  amt::future<svc_result> submit(std::string tenant, qos_class cls,
                                 svc_job job);

  /// Block until every accepted job has reached a terminal state.
  void wait_idle();

  /// Seconds on the service clock (steady, 0 at construction) — the time
  /// base of every svc histogram and quota decision.
  double now_s() const;

  service_stats stats() const;

  /// The full `svc/*` view (per-class counters + histograms, quota,
  /// scheduler, jobs/sec, tenants, balance) plus the `ckpt/*` view.
  obs::metrics_snapshot metrics_snapshot() const;
  /// Write metrics_snapshot() as JSON to `path` (obs/metrics_export.hpp).
  void dump_metrics(const std::string& path) const;

  const service_options& options() const { return opt_; }
  amt::thread_pool& pool() { return pool_; }
  class_scheduler& scheduler() { return sched_; }
  /// The tenant hibernation manager; null unless
  /// service_options::hibernation.enabled.
  const ckpt::hibernation_manager* hibernation() const { return hib_.get(); }
  /// Persistent tenants alive (resident + hibernated).
  std::size_t tenant_count() const;

 private:
  /// Shared between the run and shed closures of one submission (exactly
  /// one of them fires).
  struct job_ctx {
    amt::promise<svc_result> done;
    std::string tenant;
    std::string label;
    qos_class cls = qos_class::batch;
    std::uint64_t seq = 0;
    double submitted_s = 0.0;
    svc_job job;
  };

  /// Pool-worker body: build (or reactivate) the session, run the steps,
  /// record per-class latency, resolve the promise.
  void execute(const std::shared_ptr<job_ctx>& ctx);
  /// Run the job's steps and hook on `s`; `before` is the session's
  /// metrics at the start (zero for a fresh session), so the balance
  /// totals count this job's share only.
  api::runtime_metrics run_job(const job_ctx& ctx, api::session& s,
                               const api::runtime_metrics& before);
  /// execute() for a persistent tenant: reuse or build the keyed session,
  /// activate/park it around run_job().
  api::runtime_metrics run_tenant_job(const job_ctx& ctx);
  /// Fail-fast terminal path; `release_quota` is false only for the
  /// policing shed (in-flight was never taken).
  void fail_shed(const std::shared_ptr<job_ctx>& ctx, const std::string& reason,
                 const std::string& detail, bool release_quota);
  /// Stamp the wall clock's "last completion" edge.
  void note_terminal();

  service_options opt_;
  std::chrono::steady_clock::time_point epoch_;
  quota_ledger quota_;

  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  bool clock_started_ = false;
  double first_submit_s_ = 0.0;
  double last_done_s_ = 0.0;
  std::array<obs::counter, qos_class_count> submitted_;
  std::array<obs::counter, qos_class_count> completed_;
  std::array<obs::counter, qos_class_count> failed_;
  std::array<obs::counter, qos_class_count> shed_;
  std::array<obs::histogram, qos_class_count> queue_wait_hist_;
  std::array<obs::histogram, qos_class_count> step_latency_hist_;
  /// Totals over jobs run with auto_rebalance.enabled; exported once the
  /// first such job has finished.
  obs::counter balance_epochs_;
  obs::counter balance_moves_;
  obs::histogram balance_imbalance_before_;

  /// Persistent tenant sessions by key; the map is guarded by mu_, a
  /// session is used outside it by the one job of its key that runs.
  std::map<std::string, std::unique_ptr<api::session>> tenants_;
  std::unique_ptr<ckpt::hibernation_manager> hib_;

  /// Ticker: pumps the scheduler every millisecond so ready_at times and
  /// deadlines fire without traffic. Joined in ~service_loop before any
  /// member dies.
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
  bool tick_stop_ = false;
  std::thread ticker_;

  /// sched_ before pool_ on purpose: pool tasks call back into sched_, so
  /// the pool must be destroyed (workers joined) first — i.e. declared
  /// last. The scheduler's constructor only *stores* the pool reference,
  /// so binding it to the not-yet-constructed pool_ below is safe.
  class_scheduler sched_;
  amt::thread_pool pool_;  ///< last member: joins before the state above dies
};

}  // namespace nlh::svc
