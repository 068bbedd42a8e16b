///
/// \file service.cpp
/// \brief service_loop implementation: policing -> classed enqueue ->
/// deficit dispatch -> session execution, with per-class latency
/// accounting and the svc/* metrics view.
///

#include "svc/service.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics_export.hpp"
#include "obs/tracer.hpp"

namespace nlh::svc {

namespace {

int resolved_slots(const service_options& o) {
  return o.max_concurrent == 0 ? static_cast<int>(o.pool_threads)
                               : o.max_concurrent;
}

}  // namespace

std::vector<std::string> validate(const service_options& opt) {
  std::vector<std::string> errs;
  if (opt.pool_threads < 1)
    errs.push_back("service_options.pool_threads: the shared pool needs at "
                   "least 1 worker (got " +
                   std::to_string(opt.pool_threads) + ")");
  if (opt.max_concurrent < 0)
    errs.push_back("service_options.max_concurrent: must be >= 0 (0 = "
                   "pool_threads; got " +
                   std::to_string(opt.max_concurrent) + ")");
  if (opt.pool_threads >= 1 && opt.max_concurrent >= 1 &&
      static_cast<unsigned>(opt.max_concurrent) > opt.pool_threads)
    errs.push_back(
        "service_options.max_concurrent: " + std::to_string(opt.max_concurrent) +
        " slots exceed pool_threads " + std::to_string(opt.pool_threads) +
        "; every running job occupies one worker, so excess slots can never fill");
  for (auto e : opt.qos.validate())
    errs.push_back("service_options." + std::move(e));
  for (auto e : opt.default_quota.validate())
    errs.push_back("service_options.default_quota: " + std::move(e));
  if (opt.hibernation.enabled)
    if (auto e = opt.hibernation.validate(); !e.empty())
      errs.push_back("service_options." + std::move(e));
  return errs;
}

namespace {

service_options validated(service_options opt) {
  const auto errs = validate(opt);
  if (!errs.empty()) {
    std::ostringstream msg;
    msg << "invalid service_options (" << errs.size() << " problem"
        << (errs.size() > 1 ? "s" : "") << "):";
    for (const auto& e : errs) msg << "\n  - " << e;
    throw std::invalid_argument(msg.str());
  }
  return opt;
}

}  // namespace

service_loop::service_loop(service_options opt)
    : opt_(validated(std::move(opt))),
      epoch_(std::chrono::steady_clock::now()),
      quota_(opt_.default_quota),
      sched_(scheduler_options{opt_.qos, resolved_slots(opt_)}, pool_,
             [this] { return now_s(); }),
      pool_(opt_.pool_threads) {
  if (opt_.hibernation.enabled)
    hib_ = std::make_unique<ckpt::hibernation_manager>(opt_.hibernation);
  ticker_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(tick_mu_);
    while (!tick_stop_) {
      tick_cv_.wait_for(lk, std::chrono::milliseconds(1));
      if (tick_stop_) break;
      lk.unlock();
      sched_.pump();
      lk.lock();
    }
  });
}

service_loop::~service_loop() {
  // Honor every accepted future first, then stop the ticker; pool_
  // (declared last) joins its workers while sched_ and the histograms the
  // tasks touch are still alive.
  wait_idle();
  {
    std::lock_guard<std::mutex> lk(tick_mu_);
    tick_stop_ = true;
  }
  tick_cv_.notify_all();
  ticker_.join();
}

double service_loop::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

amt::future<svc_result> service_loop::submit(std::string tenant, qos_class cls,
                                             svc_job job) {
  auto ctx = std::make_shared<job_ctx>();
  ctx->tenant = std::move(tenant);
  ctx->cls = cls;
  ctx->job = std::move(job);
  auto fut = ctx->done.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctx->seq = next_seq_++;
    ctx->submitted_s = now_s();
    if (!clock_started_) {
      clock_started_ = true;
      first_submit_s_ = ctx->submitted_s;
    }
  }
  if (ctx->job.label.empty()) ctx->job.label = "svc-" + std::to_string(ctx->seq);
  ctx->label = ctx->job.label;
  submitted_[static_cast<int>(cls)].add();
  NLH_TRACE_INSTANT("svc/submit", ctx->seq);

  // Police before queueing: a shed here never cost a queue slot. admit and
  // delay both commit the tenant's in-flight count (released on any
  // terminal outcome).
  const auto dec = quota_.police(ctx->tenant, ctx->submitted_s);
  if (dec.action == policing_decision::shed) {
    fail_shed(ctx, "quota",
              "tenant '" + ctx->tenant + "' is at its max_in_flight cap",
              /*release_quota=*/false);
    return fut;
  }

  sched_item item;
  item.cls = cls;
  item.seq = ctx->seq;
  item.enqueued_s = ctx->submitted_s;
  item.ready_at_s =
      dec.action == policing_decision::delay ? dec.ready_at : 0.0;
  item.key = ctx->job.session_key;
  item.run = [this, ctx] { execute(ctx); };
  item.shed = [this, ctx](const std::string& reason) {
    fail_shed(ctx, reason, "class deadline passed before a slot freed",
              /*release_quota=*/true);
  };
  if (sched_.enqueue(std::move(item)) ==
      class_scheduler::enqueue_result::queue_full)
    fail_shed(ctx, "queue_full",
              "class '" + std::string(to_string(cls)) +
                  "' queue at its cap of " +
                  std::to_string(opt_.qos.policy(cls).queue_cap),
              /*release_quota=*/true);
  return fut;
}

void service_loop::execute(const std::shared_ptr<job_ctx>& ctx) {
  svc_result res;
  res.label = ctx->label;
  res.tenant = ctx->tenant;
  res.cls = ctx->cls;
  const int c = static_cast<int>(ctx->cls);
  {
    NLH_TRACE_SPAN_ARG("svc/job", ctx->seq);
    const double start = now_s();
    res.queue_wait_seconds = start - ctx->submitted_s;
    queue_wait_hist_[c].record(res.queue_wait_seconds);
    try {
      if (ctx->job.session_key.empty()) {
        api::session s(ctx->job.options);
        res.metrics = run_job(*ctx, s, {});
      } else {
        res.metrics = run_tenant_job(*ctx);
      }
      res.ok = true;
    } catch (const std::exception& e) {
      res.error = e.what();
    } catch (...) {
      res.error = "unknown exception";
    }
    quota_.release(ctx->tenant);
    if (res.ok)
      completed_[c].add();
    else
      failed_[c].add();
    note_terminal();
  }
  // Fulfill outside the span: continuations run inline here and may call
  // back into the service.
  ctx->done.set_value(std::move(res));
}

api::runtime_metrics service_loop::run_job(const job_ctx& ctx, api::session& s,
                                           const api::runtime_metrics& before) {
  auto& h = s.solver();
  const int c = static_cast<int>(ctx.cls);
  // Client-centric step latency: each step is measured from the previous
  // result the client saw — the first from submission — so queueing delay
  // shows up in the distribution (docs/service.md).
  h.set_observer(
      [this, c, last = ctx.submitted_s](const api::step_event&) mutable {
        const double t = now_s();
        step_latency_hist_[c].record(t - last);
        last = t;
      });
  const int steps =
      ctx.job.num_steps > 0 ? ctx.job.num_steps : ctx.job.options.num_steps;
  h.run(steps);
  h.set_observer({});
  if (ctx.job.on_complete) ctx.job.on_complete(s);
  auto m = h.metrics();
  if (s.options().auto_rebalance.enabled) {
    balance_epochs_.add(m.rebalance_epochs - before.rebalance_epochs);
    balance_moves_.add(m.rebalance_moves - before.rebalance_moves);
    balance_imbalance_before_.record(m.rebalance_imbalance_before);
  }
  return m;
}

api::runtime_metrics service_loop::run_tenant_job(const job_ctx& ctx) {
  const std::string& key = ctx.job.session_key;
  std::unique_ptr<api::session>* slot = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    slot = &tenants_[key];  // no other job of this key runs: the slot is ours
  }
  if (!*slot) {
    auto s = std::make_unique<api::session>(ctx.job.options);
    auto& h = s->solver();  // built now: the callbacks below hold it
    if (hib_) {
      ckpt::hibernation_manager::callbacks cb;
      cb.snapshot_and_release = [&h](net::byte_buffer reuse) {
        return h.export_and_release(std::move(reuse));
      };
      cb.restore = [&h](const net::byte_buffer& b) { h.import_state(b); };
      hib_->add_session(key, std::move(cb));
    }
    *slot = std::move(s);
  }
  api::session& s = **slot;
  if (hib_) hib_->activate(key);
  // Park on every exit: run_job() may throw.
  struct parked {
    ckpt::hibernation_manager* m;
    const std::string& k;
    ~parked() {
      if (m) m->park(k);
    }
  } guard{hib_.get(), key};
  return run_job(ctx, s, s.solver().metrics());
}

std::size_t service_loop::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

void service_loop::fail_shed(const std::shared_ptr<job_ctx>& ctx,
                             const std::string& reason,
                             const std::string& detail, bool release_quota) {
  if (release_quota) quota_.release(ctx->tenant);
  shed_[static_cast<int>(ctx->cls)].add();
  NLH_TRACE_INSTANT("svc/shed", ctx->seq);
  note_terminal();
  svc_result res;
  res.label = ctx->label;
  res.tenant = ctx->tenant;
  res.cls = ctx->cls;
  res.shed = true;
  res.error = "shed (" + reason + "): " + detail;
  ctx->done.set_value(std::move(res));
}

void service_loop::note_terminal() {
  std::lock_guard<std::mutex> lk(mu_);
  last_done_s_ = now_s();
}

void service_loop::wait_idle() { sched_.wait_idle(); }

service_stats service_loop::stats() const {
  service_stats st;
  std::uint64_t total_completed = 0;
  for (int c = 0; c < qos_class_count; ++c) {
    auto& cs = st.per_class[static_cast<std::size_t>(c)];
    cs.submitted = submitted_[c].value();
    cs.completed = completed_[c].value();
    cs.failed = failed_[c].value();
    cs.shed = shed_[c].value();
    cs.queue_wait = queue_wait_hist_[c].summary();
    cs.step_latency = step_latency_hist_[c].summary();
    total_completed += cs.completed;
  }
  st.quota_delayed = quota_.delayed();
  st.quota_shed = quota_.shed();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (clock_started_) {
      // A busy service reads "so far"; an idle one reads the settled span.
      bool busy = sched_.running() > 0;
      for (int c = 0; c < qos_class_count && !busy; ++c)
        busy = sched_.queue_depth(static_cast<qos_class>(c)) > 0;
      const double end =
          busy ? now_s() : std::max(last_done_s_, first_submit_s_);
      st.wall_seconds = end - first_submit_s_;
    }
  }
  if (st.wall_seconds > 0.0)
    st.jobs_per_second =
        static_cast<double>(total_completed) / st.wall_seconds;
  return st;
}

obs::metrics_snapshot service_loop::metrics_snapshot() const {
  const auto st = stats();
  obs::metrics_snapshot snap;
  for (int c = 0; c < qos_class_count; ++c) {
    const auto& cs = st.per_class[static_cast<std::size_t>(c)];
    const std::string base =
        std::string("svc/") + to_string(static_cast<qos_class>(c)) + "/";
    snap.add_counter(base + "submitted", cs.submitted);
    snap.add_counter(base + "completed", cs.completed);
    snap.add_counter(base + "failed", cs.failed);
    snap.add_counter(base + "shed", cs.shed);
    snap.add_histogram(base + "queue_wait_seconds", cs.queue_wait);
    snap.add_histogram(base + "step_latency_seconds", cs.step_latency);
  }
  snap.add_gauge("svc/wall_seconds", st.wall_seconds);
  snap.add_gauge("svc/jobs_per_second", st.jobs_per_second);
  snap.add_gauge("svc/tenants", static_cast<double>(tenant_count()));
  // Present once an auto-rebalanced job has finished, so a soak can tell
  // the live balancer ran from the names alone.
  if (const auto imb = balance_imbalance_before_.summary(); imb.count > 0) {
    snap.add_counter("svc/balance/epochs", balance_epochs_.value());
    snap.add_counter("svc/balance/moves", balance_moves_.value());
    snap.add_histogram("svc/balance/imbalance_before", imb);
  }
  quota_.metrics_into(snap);
  sched_.metrics_into(snap);
  if (hib_) hib_->metrics_into(snap);
  return snap;
}

void service_loop::dump_metrics(const std::string& path) const {
  obs::write_metrics_json(path, metrics_snapshot());
}

}  // namespace nlh::svc
