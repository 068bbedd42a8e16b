///
/// \file batch.cpp
/// \brief batch_runner implementation: admission queue (FIFO / priority),
/// concurrency-capped execution on the shared pool, per-job result
/// promises and aggregate metrics.
///

#include "api/batch.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics_export.hpp"
#include "obs/tracer.hpp"
#include "support/stopwatch.hpp"

namespace nlh::api {

std::vector<std::string> validate(const batch_options& opt) {
  std::vector<std::string> errs;
  if (opt.pool_threads < 1)
    errs.push_back("batch_options.pool_threads: the shared pool needs at least "
                   "1 worker (got " +
                   std::to_string(opt.pool_threads) + ")");
  if (opt.max_concurrent_jobs < 1)
    errs.push_back("batch_options.max_concurrent_jobs: must be at least 1 (got " +
                   std::to_string(opt.max_concurrent_jobs) + ")");
  if (opt.pool_threads >= 1 && opt.max_concurrent_jobs >= 1 &&
      static_cast<unsigned>(opt.max_concurrent_jobs) > opt.pool_threads)
    errs.push_back(
        "batch_options.max_concurrent_jobs: cap " +
        std::to_string(opt.max_concurrent_jobs) + " exceeds pool_threads " +
        std::to_string(opt.pool_threads) +
        "; every running job occupies one worker, so excess slots can never fill");
  if (opt.hibernation.enabled) {
    if (const auto herr = opt.hibernation.validate(); !herr.empty())
      errs.push_back("batch_options." + herr);
  }
  return errs;
}

namespace {

batch_options validated(batch_options opt) {
  const auto errs = validate(opt);
  if (!errs.empty()) {
    std::ostringstream msg;
    msg << "invalid batch_options (" << errs.size() << " problem"
        << (errs.size() > 1 ? "s" : "") << "):";
    for (const auto& e : errs) msg << "\n  - " << e;
    throw std::invalid_argument(msg.str());
  }
  return opt;
}

}  // namespace

batch_runner::batch_runner(batch_options opt)
    : opt_(validated(opt)), pool_(opt_.pool_threads) {
  if (opt_.hibernation.enabled)
    hib_ = std::make_unique<ckpt::hibernation_manager>(opt_.hibernation);
}

batch_runner::~batch_runner() { wait_all(); }

amt::future<batch_job_result> batch_runner::submit(batch_job job) {
  queued_job qj;
  qj.job = std::move(job);
  auto fut = qj.done.get_future();
  bool refused = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    qj.seq = next_seq_++;
    qj.submitted = std::chrono::steady_clock::now();
    if (qj.job.label.empty()) qj.job.label = "job-" + std::to_string(qj.seq);
    if (!clock_started_) {
      clock_started_ = true;
      first_submit_ = qj.submitted;
    }
    ++agg_.jobs_submitted;
    NLH_TRACE_INSTANT("api/job_submit", qj.seq);
    if (draining_) {
      // Admission is closed for good: fail fast below (outside mu_ — the
      // future's continuations run inline on set_value).
      ++agg_.jobs_abandoned;
      refused = true;
    } else {
      queue_.push_back(std::move(qj));
      pump_locked();
    }
  }
  if (refused) {
    batch_job_result res;
    res.label = qj.job.label;
    res.error = "abandoned: batch_runner is draining; admission is closed";
    qj.done.set_value(std::move(res));
  }
  return fut;
}

std::vector<amt::future<batch_job_result>> batch_runner::submit_all(
    std::vector<batch_job> jobs) {
  std::vector<amt::future<batch_job_result>> futs;
  futs.reserve(jobs.size());
  for (auto& j : jobs) futs.push_back(submit(std::move(j)));
  return futs;
}

void batch_runner::pump_locked() {
  // A job whose persistent tenant is mid-job must wait: same-key jobs run
  // strictly serially (this is also what keeps the hibernation callbacks
  // race-free). Key-less jobs are always eligible.
  const auto eligible = [&](const queued_job& q) {
    if (q.job.session_key.empty()) return true;
    const auto t = tenants_.find(q.job.session_key);
    return t == tenants_.end() || !t->second.busy;
  };
  while (running_ < opt_.max_concurrent_jobs && !queue_.empty()) {
    // FIFO admits the oldest eligible; priority admits the highest
    // priority, oldest among equals. The queue is small (pending jobs),
    // so a linear scan beats maintaining a heap.
    auto it = queue_.end();
    for (auto j = queue_.begin(); j != queue_.end(); ++j) {
      if (!eligible(*j)) continue;
      if (it == queue_.end()) {
        it = j;
        if (opt_.admission == admission_policy::fifo) break;
        continue;
      }
      if (j->job.priority > it->job.priority ||
          (j->job.priority == it->job.priority && j->seq < it->seq))
        it = j;
    }
    if (it == queue_.end()) break;  // every pending job's tenant is mid-job
    // Mark the tenant busy at admission (creating its slot on first use)
    // so a later pump pass cannot double-book the key.
    if (!it->job.session_key.empty()) tenants_[it->job.session_key].busy = true;
    queued_job qj = std::move(*it);
    queue_.erase(it);
    ++running_;
    NLH_TRACE_INSTANT("api/job_admit", qj.seq);
    // unique_function is move-only-friendly, so the job rides the task.
    pool_.post([this, qj = std::move(qj)]() mutable { execute(std::move(qj)); });
  }
}

void batch_runner::execute(queued_job qj) {
  batch_job_result res;
  // The job span closes before the promise resolves, so a caller that
  // snapshots the tracer right after the last future fires sees every job.
  {
    NLH_TRACE_SPAN_ARG("api/job", qj.seq);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - qj.submitted)
                              .count();
    queue_wait_hist_.record(waited);
    {
      // Per-admission-class split: insertion under mu_, recording outside
      // (node addresses are stable; the histogram is thread-safe).
      const std::string& cls = qj.job.admission_class.empty()
                                   ? std::string("default")
                                   : qj.job.admission_class;
      obs::histogram* h = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu_);
        h = &queue_wait_by_class_[cls];
      }
      h->record(waited);
    }
    support::stopwatch job_sw;
    res.label = qj.job.label;
    long long steps_done = 0;
    std::uint64_t ghost_delta = 0;
    try {
      if (qj.job.session_key.empty()) {
        // Ephemeral job: the session lives and dies with it.
        session s(qj.job.options);
        auto& h = s.solver();
        const int steps =
            qj.job.num_steps > 0 ? qj.job.num_steps : qj.job.options.num_steps;
        h.run(steps);
        if (qj.job.on_complete) qj.job.on_complete(s);
        res.metrics = h.metrics();
        res.ok = true;
        steps_done = res.metrics.steps;
        ghost_delta = res.metrics.ghost_bytes;
      } else {
        execute_tenant(qj, res, steps_done, ghost_delta);
      }
    } catch (const std::exception& e) {
      res.error = e.what();
    } catch (...) {
      res.error = "unknown exception";
    }

    job_duration_hist_.record(job_sw.elapsed_s());
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
      if (!qj.job.session_key.empty())
        tenants_[qj.job.session_key].busy = false;
      if (res.ok) {
        ++agg_.jobs_completed;
        agg_.total_steps += steps_done;
        agg_.ghost_bytes += ghost_delta;
        job_step_latency_.emplace_back(res.label, res.metrics.step_latency);
        if (qj.job.options.auto_rebalance.enabled)
          job_rebalance_.push_back({res.label, res.metrics.rebalance_epochs,
                                    res.metrics.rebalance_moves,
                                    res.metrics.rebalance_imbalance_before,
                                    res.metrics.rebalance_imbalance_after});
      } else {
        ++agg_.jobs_failed;
      }
      agg_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - first_submit_)
                              .count();
      pump_locked();
      // Broadcast under mu_: wait_all()/drain() can return, and the runner
      // be destroyed, only after this thread has let go of mu_ for good.
      idle_cv_.notify_all();
    }
  }
  // Fulfill outside mu_: user continuations attached to the future run
  // inline here and must be free to call back into the runner.
  qj.done.set_value(std::move(res));
}

void batch_runner::execute_tenant(queued_job& qj, batch_job_result& res,
                                  long long& steps_done,
                                  std::uint64_t& ghost_delta) {
  const std::string& key = qj.job.session_key;
  tenant* t = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    t = &tenants_[key];  // busy since admission, so the slot is ours alone
  }
  if (!t->sess) {
    // First job of this key builds the session. The batch manager owns
    // hibernation for tenants, so the session's own single-entry manager
    // stays off; the batch-level codec choice rides along for the frame
    // encoding of export_and_release().
    session_options o = qj.job.options;
    o.hibernation.enabled = false;
    if (hib_) o.hibernation.codec = opt_.hibernation.codec;
    t->sess = std::make_unique<session>(std::move(o));
  }
  auto& h = t->sess->solver();
  if (hib_ && !t->registered) {
    ckpt::hibernation_manager::callbacks cb;
    auto* hp = &h;
    cb.snapshot_and_release = [hp](net::byte_buffer reuse) {
      return hp->export_and_release(std::move(reuse));
    };
    cb.restore = [hp](const net::byte_buffer& b) { hp->import_state(b); };
    hib_->add_session(key, std::move(cb));
    t->registered = true;
  }
  if (hib_) hib_->activate(key);
  // Park on every exit (run/on_complete may throw); execute() owns the
  // error reporting.
  struct parked {
    ckpt::hibernation_manager* m;
    const std::string& k;
    ~parked() {
      if (m) m->park(k);
    }
  } guard{hib_.get(), key};
  const runtime_metrics before = h.metrics();
  const int steps =
      qj.job.num_steps > 0 ? qj.job.num_steps : qj.job.options.num_steps;
  h.run(steps);
  if (qj.job.on_complete) qj.job.on_complete(*t->sess);
  res.metrics = h.metrics();
  res.ok = true;
  steps_done = res.metrics.steps - before.steps;
  ghost_delta = res.metrics.ghost_bytes - before.ghost_bytes;
}

std::size_t batch_runner::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

void batch_runner::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
}

batch_drain_report batch_runner::drain(double timeout_seconds) {
  batch_drain_report rep;
  std::vector<queued_job> abandoned;
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  abandoned.swap(queue_);  // nothing queued is ever admitted again
  rep.abandoned = static_cast<int>(abandoned.size());
  agg_.jobs_abandoned += rep.abandoned;
  const int was_running = running_;
  lk.unlock();
  // Fail the abandoned jobs fast, outside mu_ (continuations run inline).
  for (auto& qj : abandoned) {
    batch_job_result res;
    res.label = qj.job.label;
    res.error = "abandoned: batch_runner drained before admission";
    NLH_TRACE_INSTANT("api/job_abandon", qj.seq);
    qj.done.set_value(std::move(res));
  }
  lk.lock();
  if (timeout_seconds < 0.0) {
    idle_cv_.wait(lk, [&] { return running_ == 0; });
  } else {
    idle_cv_.wait_for(lk, std::chrono::duration<double>(timeout_seconds),
                      [&] { return running_ == 0; });
  }
  rep.still_running = running_;
  rep.in_flight_completed = was_running - rep.still_running;
  return rep;
}

batch_metrics batch_runner::aggregate() const {
  std::lock_guard<std::mutex> lk(mu_);
  batch_metrics m = agg_;
  // A still-running batch reads "so far": agg_.wall_seconds is only
  // stamped at job completions, so extend it to now while work remains.
  if (clock_started_ && (running_ > 0 || !queue_.empty()))
    m.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - first_submit_)
                         .count();
  if (m.wall_seconds > 0.0)
    m.jobs_per_second = static_cast<double>(m.jobs_completed) / m.wall_seconds;
  m.queue_wait = queue_wait_hist_.summary();
  m.job_duration = job_duration_hist_.summary();
  return m;
}

obs::metrics_snapshot batch_runner::metrics_snapshot() const {
  const auto m = aggregate();
  obs::metrics_snapshot snap;
  snap.add_counter("api/batch/jobs_submitted",
                   static_cast<std::uint64_t>(m.jobs_submitted));
  snap.add_counter("api/batch/jobs_completed",
                   static_cast<std::uint64_t>(m.jobs_completed));
  snap.add_counter("api/batch/jobs_failed",
                   static_cast<std::uint64_t>(m.jobs_failed));
  snap.add_counter("api/batch/jobs_abandoned",
                   static_cast<std::uint64_t>(m.jobs_abandoned));
  snap.add_counter("api/batch/total_steps",
                   static_cast<std::uint64_t>(m.total_steps));
  snap.add_counter("api/batch/ghost_bytes", m.ghost_bytes);
  snap.add_gauge("api/batch/wall_seconds", m.wall_seconds);
  snap.add_gauge("api/batch/jobs_per_second", m.jobs_per_second);
  snap.add_histogram("api/batch/queue_wait_seconds", m.queue_wait);
  snap.add_histogram("api/batch/job_duration_seconds", m.job_duration);
  {
    // Per-admission-class queue-wait split (batch_job::admission_class).
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [cls, h] : queue_wait_by_class_)
      snap.add_histogram("api/batch/queue_wait_seconds/" + cls, h.summary());
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [label, s] : job_step_latency_)
      snap.add_histogram("api/job/" + label + "/step_latency_seconds", s);
    for (const auto& jr : job_rebalance_) {
      const std::string base = "api/job/" + jr.label + "/balance/";
      snap.add_counter(base + "epochs", jr.epochs);
      snap.add_counter(base + "moves", jr.moves);
      snap.add_gauge(base + "imbalance_before", jr.imbalance_before);
      snap.add_gauge(base + "imbalance_after", jr.imbalance_after);
    }
  }
  if (hib_) hib_->metrics_into(snap);  // ckpt/* tenant-hibernation view
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap.add_gauge("api/batch/tenants", static_cast<double>(tenants_.size()));
  }
  // Live AGAS counter paths (pool busy times, comm traffic) ride along so
  // one exported file carries the whole process view.
  obs::bridge_counter_registry(snap);
  return snap;
}

void batch_runner::dump_metrics(const std::string& path) const {
  obs::write_metrics_json(path, metrics_snapshot());
}

}  // namespace nlh::api
