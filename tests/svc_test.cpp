// Tests for the src/svc/ QoS front-end (docs/service.md): class
// parsing/validation, the quota ledger's admit/delay/shed decisions under a
// test-controlled clock, deficit-round-robin dispatch order and deadline
// shedding in class_scheduler, and the service_loop end-to-end contracts —
// interactive work is never starved behind a soak backlog, shed jobs fail
// fast with a distinct "shed (<reason>)" error, a tenant over its rate but
// under its in-flight cap is delayed rather than shed, wait_idle() returns
// only once every job is terminal, persistent tenants (one job per session
// key at a time),
// concurrent mixed-backend jobs keeping serial == distributed bitwise, and
// the deterministic traffic generator feeding it all.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "amt/thread_pool.hpp"
#include "svc/qos.hpp"
#include "svc/quota.hpp"
#include "svc/scheduler.hpp"
#include "svc/service.hpp"
#include "svc/traffic_gen.hpp"

namespace svc = nlh::svc;

namespace {

bool mentions(const std::vector<std::string>& errs, const std::string& needle) {
  return std::any_of(errs.begin(), errs.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

svc::svc_job small_job(int steps = 2, int n = 16) {
  svc::svc_job j;
  j.options.scenario = "manufactured";
  j.options.n = n;
  j.options.epsilon_factor = 2;
  j.options.num_steps = steps;
  j.num_steps = steps;
  return j;
}

}  // namespace

// ------------------------------------------------------------------ qos ---

TEST(Qos, NamesRoundTrip) {
  for (int c = 0; c < svc::qos_class_count; ++c) {
    const auto cls = static_cast<svc::qos_class>(c);
    const auto parsed = svc::parse_qos_class(svc::to_string(cls));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(svc::parse_qos_class("premium").has_value());
  EXPECT_FALSE(svc::parse_qos_class("").has_value());
}

TEST(Qos, ValidateCatchesEveryBadKnob) {
  svc::qos_config q;
  q.interactive.weight = 0;
  q.batch.queue_cap = 0;
  q.soak.deadline_seconds = -1.0;
  const auto errs = q.validate();
  EXPECT_TRUE(mentions(errs, "weight"));
  EXPECT_TRUE(mentions(errs, "queue_cap"));
  EXPECT_TRUE(mentions(errs, "deadline"));
  EXPECT_TRUE(svc::qos_config{}.validate().empty());
}

// ---------------------------------------------------------------- quota ---

TEST(Quota, AdmitsUpToBurstThenDelaysAtRateSpacedTimes) {
  svc::tenant_quota q;
  q.rate_per_second = 10.0;
  q.burst = 2.0;
  q.max_in_flight = 8;
  svc::quota_ledger ledger(q);

  // Fresh bucket starts full: two admits back-to-back.
  EXPECT_EQ(ledger.police("t", 0.0).action, svc::policing_decision::admit);
  EXPECT_EQ(ledger.police("t", 0.0).action, svc::policing_decision::admit);
  // Bucket empty: successive delays reserve rate-spaced future tokens.
  const auto d1 = ledger.police("t", 0.0);
  const auto d2 = ledger.police("t", 0.0);
  EXPECT_EQ(d1.action, svc::policing_decision::delay);
  EXPECT_EQ(d2.action, svc::policing_decision::delay);
  EXPECT_NEAR(d1.ready_at, 0.1, 1e-9);
  EXPECT_NEAR(d2.ready_at, 0.2, 1e-9);
  EXPECT_EQ(ledger.in_flight("t"), 4);
  EXPECT_EQ(ledger.admitted(), 2u);
  EXPECT_EQ(ledger.delayed(), 2u);

  // A second's refill pays the debt back and refills to burst.
  for (int i = 0; i < 4; ++i) ledger.release("t");
  EXPECT_EQ(ledger.in_flight("t"), 0);
  EXPECT_EQ(ledger.police("t", 1.0).action, svc::policing_decision::admit);
}

TEST(Quota, ShedsAtInFlightCapAndRecoversOnRelease) {
  svc::tenant_quota q;
  q.rate_per_second = 1e6;
  q.burst = 100.0;
  q.max_in_flight = 2;
  svc::quota_ledger ledger(q);

  EXPECT_EQ(ledger.police("greedy", 0.0).action, svc::policing_decision::admit);
  EXPECT_EQ(ledger.police("greedy", 0.0).action, svc::policing_decision::admit);
  // At the cap: refused outright, and the refusal takes no in-flight slot.
  EXPECT_EQ(ledger.police("greedy", 0.0).action, svc::policing_decision::shed);
  EXPECT_EQ(ledger.in_flight("greedy"), 2);
  ledger.release("greedy");
  EXPECT_EQ(ledger.police("greedy", 0.0).action, svc::policing_decision::admit);
  EXPECT_EQ(ledger.shed(), 1u);
}

TEST(Quota, TenantsAreIndependent) {
  svc::tenant_quota q;
  q.rate_per_second = 10.0;
  q.burst = 1.0;
  q.max_in_flight = 8;
  svc::quota_ledger ledger(q);
  EXPECT_EQ(ledger.police("a", 0.0).action, svc::policing_decision::admit);
  EXPECT_EQ(ledger.police("a", 0.0).action, svc::policing_decision::delay);
  // Tenant b's bucket is untouched by a's debt.
  EXPECT_EQ(ledger.police("b", 0.0).action, svc::policing_decision::admit);
  EXPECT_EQ(ledger.tenant_count(), 2u);
}

TEST(Quota, ValidateCatchesBadLimits) {
  svc::tenant_quota q;
  q.rate_per_second = 0.0;
  q.burst = 0.0;
  q.max_in_flight = 0;
  const auto errs = q.validate();
  EXPECT_TRUE(mentions(errs, "rate_per_second"));
  EXPECT_TRUE(mentions(errs, "burst"));
  EXPECT_TRUE(mentions(errs, "max_in_flight"));
}

// ------------------------------------------------------------ scheduler ---

namespace {

/// One-slot scheduler over a one-thread pool with a manual clock and a
/// gate item blocking the slot, so a backlog can be enqueued and the
/// subsequent dispatch order observed deterministically.
struct sched_fixture {
  std::atomic<double> clock{0.0};
  std::atomic<bool> gate_open{false};
  nlh::amt::thread_pool pool{1};
  svc::class_scheduler sched;
  std::mutex order_mu;
  std::vector<svc::qos_class> order;

  explicit sched_fixture(svc::qos_config qos = {})
      : sched(svc::scheduler_options{std::move(qos), 1}, pool,
              [this] { return clock.load(); }) {}

  void enqueue_gate() {
    svc::sched_item gate;
    gate.cls = svc::qos_class::soak;
    gate.seq = 0;
    gate.run = [this] {
      while (!gate_open.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
    };
    gate.shed = [](const std::string&) {};
    ASSERT_EQ(sched.enqueue(std::move(gate)),
              svc::class_scheduler::enqueue_result::queued);
  }

  void enqueue_recording(svc::qos_class cls, std::uint64_t seq) {
    svc::sched_item item;
    item.cls = cls;
    item.seq = seq;
    item.run = [this, cls] {
      std::lock_guard<std::mutex> lk(order_mu);
      order.push_back(cls);
    };
    item.shed = [](const std::string&) {};
    ASSERT_EQ(sched.enqueue(std::move(item)),
              svc::class_scheduler::enqueue_result::queued);
  }
};

}  // namespace

TEST(Scheduler, DeficitRoundRobinServesClassesByWeight) {
  sched_fixture f;  // default weights 8:3:1, single slot
  f.enqueue_gate();
  std::uint64_t seq = 1;
  // Submission order deliberately inverts the priority order.
  for (int i = 0; i < 2; ++i) f.enqueue_recording(svc::qos_class::soak, seq++);
  for (int i = 0; i < 4; ++i) f.enqueue_recording(svc::qos_class::batch, seq++);
  for (int i = 0; i < 8; ++i)
    f.enqueue_recording(svc::qos_class::interactive, seq++);
  f.gate_open = true;
  f.sched.wait_idle();

  // Credits after the gate's dispatch: interactive 8, batch 3, soak 0.
  // Largest-balance-first dispatch runs interactive until its credit drops
  // to batch's (ties break by weight), then alternates the two down to
  // zero, then a top-up round serves the leftovers — the exact deficit
  // algebra, hand-simulated:
  //   i8..i3 (6x i), b3, i2, b2, i1, b1, [round] b, s, [round] s.
  using c = svc::qos_class;
  const std::vector<svc::qos_class> expect = {
      c::interactive, c::interactive, c::interactive, c::interactive,
      c::interactive, c::interactive, c::batch,       c::interactive,
      c::batch,       c::interactive, c::batch,       c::batch,
      c::soak,        c::soak};
  std::lock_guard<std::mutex> lk(f.order_mu);
  EXPECT_EQ(f.order, expect);
  EXPECT_EQ(f.sched.served(svc::qos_class::interactive), 8u);
  EXPECT_EQ(f.sched.served(svc::qos_class::batch), 4u);
  EXPECT_EQ(f.sched.served(svc::qos_class::soak), 3u);  // gate included
  EXPECT_GE(f.sched.rounds(), 2u);
}

TEST(Scheduler, FifoBaselineIgnoresClassEntirely) {
  svc::qos_config qos;
  qos.enabled = false;
  sched_fixture f(qos);
  f.enqueue_gate();
  std::uint64_t seq = 1;
  std::vector<svc::qos_class> submitted;
  const svc::qos_class pattern[] = {svc::qos_class::soak,
                                    svc::qos_class::interactive,
                                    svc::qos_class::batch};
  for (int i = 0; i < 9; ++i) {
    submitted.push_back(pattern[i % 3]);
    f.enqueue_recording(pattern[i % 3], seq++);
  }
  f.gate_open = true;
  f.sched.wait_idle();
  std::lock_guard<std::mutex> lk(f.order_mu);
  EXPECT_EQ(f.order, submitted);  // pure submission order
}

TEST(Scheduler, ExpiredInteractiveWorkIsShedNotRunLate) {
  svc::qos_config qos;
  qos.interactive.deadline_seconds = 0.5;
  sched_fixture f(qos);
  f.enqueue_gate();

  std::vector<std::string> shed_reasons;
  std::mutex shed_mu;
  for (int i = 0; i < 2; ++i) {
    svc::sched_item item;
    item.cls = svc::qos_class::interactive;
    item.seq = 10 + static_cast<std::uint64_t>(i);
    item.enqueued_s = f.clock.load();
    item.run = [] { FAIL() << "expired item must never run"; };
    item.shed = [&shed_mu, &shed_reasons](const std::string& reason) {
      std::lock_guard<std::mutex> lk(shed_mu);
      shed_reasons.push_back(reason);
    };
    ASSERT_EQ(f.sched.enqueue(std::move(item)),
              svc::class_scheduler::enqueue_result::queued);
  }
  // The deadline passes while the slot is blocked; the sweep at the next
  // pump sheds both without ever occupying the slot. Shed callbacks fire
  // outside the scheduler lock, so poll for them rather than racing
  // wait_idle against them.
  f.clock = 3.0;
  f.gate_open = true;
  f.sched.wait_idle();
  for (int i = 0; i < 2000; ++i) {
    f.sched.pump();
    {
      std::lock_guard<std::mutex> lk(shed_mu);
      if (shed_reasons.size() == 2u) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lk(shed_mu);
  ASSERT_EQ(shed_reasons.size(), 2u);
  EXPECT_EQ(shed_reasons[0], "expired");
  EXPECT_EQ(f.sched.shed_expired(), 2u);
}

TEST(Scheduler, QuotaDelayedItemsWaitForTheirReadyTime) {
  sched_fixture f;
  svc::sched_item item;
  item.cls = svc::qos_class::batch;
  item.seq = 1;
  item.ready_at_s = 100.0;  // far in the scheduler's future
  std::atomic<bool> ran{false};
  item.run = [&ran] { ran = true; };
  item.shed = [](const std::string&) {};
  ASSERT_EQ(f.sched.enqueue(std::move(item)),
            svc::class_scheduler::enqueue_result::queued);
  f.sched.pump();
  EXPECT_EQ(f.sched.queue_depth(svc::qos_class::batch), 1);
  EXPECT_FALSE(ran.load());
  f.clock = 100.5;
  f.sched.pump();
  f.sched.wait_idle();
  // wait_idle returns when the queue is empty; the pool task may still be
  // in flight for an instant.
  for (int i = 0; i < 1000 && !ran.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ran.load());
}

TEST(Scheduler, QueueCapRefusesTheOverflow) {
  svc::qos_config qos;
  qos.soak.queue_cap = 2;
  sched_fixture f(qos);
  f.enqueue_gate();  // occupies the slot; everything below stays queued

  int queued = 0, refused = 0;
  for (int i = 0; i < 4; ++i) {
    svc::sched_item item;
    item.cls = svc::qos_class::soak;
    item.seq = 1 + static_cast<std::uint64_t>(i);
    item.run = [] {};
    item.shed = [](const std::string&) {};
    const auto r = f.sched.enqueue(std::move(item));
    if (r == svc::class_scheduler::enqueue_result::queued)
      ++queued;
    else if (r == svc::class_scheduler::enqueue_result::queue_full)
      ++refused;
  }
  EXPECT_EQ(queued, 2);
  EXPECT_EQ(refused, 2);

  f.gate_open = true;
  f.sched.wait_idle();
}

// -------------------------------------------------------------- service ---

TEST(Service, ValidatesOptionsWithActionableMessages) {
  svc::service_options bad;
  bad.pool_threads = 0;
  bad.max_concurrent = -1;
  bad.qos.interactive.weight = 0;
  bad.default_quota.burst = 0.0;
  const auto errs = svc::validate(bad);
  EXPECT_TRUE(mentions(errs, "pool_threads"));
  EXPECT_TRUE(mentions(errs, "max_concurrent"));
  EXPECT_TRUE(mentions(errs, "weight"));
  EXPECT_TRUE(mentions(errs, "burst"));
  EXPECT_THROW(svc::service_loop{bad}, std::invalid_argument);
}

TEST(Service, RunsJobsAndExportsTheSvcMetricsView) {
  svc::service_options opt;
  opt.pool_threads = 2;
  svc::service_loop loop(opt);
  std::vector<nlh::amt::future<svc::svc_result>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(loop.submit("tenant-a", svc::qos_class::interactive,
                               small_job()));
  futs.push_back(loop.submit("tenant-b", svc::qos_class::batch, small_job(3)));
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.shed);
    EXPECT_GT(r.metrics.steps, 0);
  }

  const auto st = loop.stats();
  EXPECT_EQ(st.of(svc::qos_class::interactive).completed, 3u);
  EXPECT_EQ(st.of(svc::qos_class::batch).completed, 1u);
  EXPECT_GT(st.of(svc::qos_class::interactive).step_latency.count, 0u);
  EXPECT_GT(st.jobs_per_second, 0.0);

  const auto snap = loop.metrics_snapshot();
  std::set<std::string> names;
  for (const auto& [n, v] : snap.counters) names.insert(n);
  for (const auto& [n, v] : snap.gauges) names.insert(n);
  for (const auto& [n, v] : snap.histograms) names.insert(n);
  for (const char* required :
       {"svc/interactive/submitted", "svc/interactive/completed",
        "svc/interactive/step_latency_seconds",
        "svc/interactive/queue_wait_seconds", "svc/batch/completed",
        "svc/soak/shed", "svc/quota/admitted", "svc/quota/delayed",
        "svc/quota/shed", "svc/quota/tenants", "svc/sched/served/interactive",
        "svc/sched/queue_depth/batch", "svc/sched/rounds", "svc/wall_seconds",
        "svc/jobs_per_second"})
    EXPECT_TRUE(names.count(required)) << "missing " << required;
}

TEST(Service, InvalidJobOptionsResolveTheFutureNotThrow) {
  svc::service_loop loop([] {
    svc::service_options o;
    o.pool_threads = 1;
    return o;
  }());
  svc::svc_job bad = small_job();
  bad.options.n = -4;
  const auto r = loop.submit("t", svc::qos_class::batch, bad).get();
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.shed);  // it ran and failed, it was not refused
  EXPECT_FALSE(r.error.empty());
}

TEST(Service, InteractiveIsNeverStarvedBehindASoakBacklog) {
  svc::service_options opt;
  opt.pool_threads = 2;
  // Wide-open quotas: this test isolates the scheduler.
  opt.default_quota.rate_per_second = 1e6;
  opt.default_quota.burst = 1e6;
  opt.default_quota.max_in_flight = 1 << 20;
  svc::service_loop loop(opt);

  std::vector<nlh::amt::future<svc::svc_result>> soak, interactive;
  for (int i = 0; i < 40; ++i)
    soak.push_back(loop.submit("bulk", svc::qos_class::soak, small_job(4)));
  // Submitted last, behind the entire backlog.
  for (int i = 0; i < 8; ++i)
    interactive.push_back(
        loop.submit("user", svc::qos_class::interactive, small_job(2)));

  for (auto& f : interactive) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.error;  // never shed, never starved
  }
  for (auto& f : soak) f.get();

  const auto st = loop.stats();
  EXPECT_EQ(st.of(svc::qos_class::interactive).completed, 8u);
  EXPECT_EQ(st.of(svc::qos_class::interactive).shed, 0u);
  // Weight 8 vs 1: the interactive jobs jumped the 40-deep soak queue, so
  // their average wait must sit well below the soak average.
  EXPECT_LT(st.of(svc::qos_class::interactive).queue_wait.mean,
            st.of(svc::qos_class::soak).queue_wait.mean);
}

TEST(Service, TenantAtInFlightCapIsShedFastWithADistinctError) {
  svc::service_options opt;
  opt.pool_threads = 1;
  svc::tenant_quota tight;
  tight.rate_per_second = 1e6;
  tight.burst = 100.0;
  tight.max_in_flight = 1;
  opt.default_quota = tight;
  svc::service_loop loop(opt);

  auto f1 = loop.submit("greedy", svc::qos_class::batch, small_job(30, 32));
  auto f2 = loop.submit("greedy", svc::qos_class::batch, small_job());
  const auto r2 = f2.get();  // resolves immediately: refused, never queued
  EXPECT_TRUE(r2.shed);
  EXPECT_EQ(r2.error.rfind("shed (quota)", 0), 0u) << r2.error;
  EXPECT_NE(r2.error.find("greedy"), std::string::npos) << r2.error;
  EXPECT_TRUE(f1.get().ok);
  EXPECT_EQ(loop.stats().quota_shed, 1u);
}

TEST(Service, OverRateTenantUnderCapIsDelayedNotShed) {
  svc::service_options opt;
  opt.pool_threads = 2;
  svc::tenant_quota paced;
  paced.rate_per_second = 50.0;  // 20 ms between tokens once the burst is spent
  paced.burst = 1.0;
  paced.max_in_flight = 100;
  opt.default_quota = paced;
  svc::service_loop loop(opt);

  std::vector<nlh::amt::future<svc::svc_result>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(loop.submit("pacer", svc::qos_class::batch, small_job()));
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.error;  // smoothed, not punished
    EXPECT_FALSE(r.shed);
  }
  const auto st = loop.stats();
  EXPECT_EQ(st.quota_shed, 0u);
  EXPECT_GE(st.quota_delayed, 3u);  // everything past the 1-token burst
}

// A tenant over its rate has its jobs quota-delayed: they sit queued until
// their ready time, and only the ticker's pump can start them. wait_idle()
// must still return only once every job is terminal, so the loop can be
// destroyed right after it (ThreadSanitizer reports a waiter that returns
// while a worker's epilogue is still inside the scheduler).
TEST(Service, WaitIdleReturnsOnlyOnceQuotaDelayedJobsAreTerminal) {
  for (int round = 0; round < 200; ++round) {
    svc::service_options opt;
    opt.pool_threads = 1;
    opt.default_quota.rate_per_second = 200.0;  // 5 ms between tokens
    opt.default_quota.burst = 1.0;
    opt.default_quota.max_in_flight = 100;
    auto loop = std::make_unique<svc::service_loop>(opt);
    std::vector<nlh::amt::future<svc::svc_result>> futs;
    for (int i = 0; i < 3; ++i)
      futs.push_back(loop->submit("pacer", svc::qos_class::batch,
                                  small_job(1)));
    loop->wait_idle();
    for (const auto& f : futs) ASSERT_TRUE(f.is_ready()) << "round " << round;
    const auto delayed = loop->stats().quota_delayed;
    loop.reset();
    // Past the 1-token burst; a submitter stalled for a whole token
    // interval could see one more admitted.
    EXPECT_GE(delayed, 1u) << "round " << round;
    for (auto& f : futs) {
      const auto r = f.get();
      EXPECT_TRUE(r.ok) << r.error;
    }
  }
}

// ------------------------------------------------------ jobs and tenants --

namespace {

/// Max |a - b| over the interior of an n x n field.
double interior_diff(const nlh::nonlocal::grid2d& g, const std::vector<double>& a,
                     const std::vector<double>& b) {
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(a[g.flat(i, j)] - b[g.flat(i, j)]));
  return m;
}

}  // namespace

// Jobs mixing scenarios, kernel backends and execution modes run
// concurrently over the shared pool, and every serial/distributed pair of
// one (scenario, backend) cell still agrees bitwise.
TEST(Service, ConcurrentMixedBackendJobsKeepTheBitwiseGuarantee) {
  svc::service_options opt;
  opt.pool_threads = 4;
  opt.max_concurrent = 4;
  svc::service_loop loop(opt);

  const std::vector<std::string> scenarios = {"manufactured", "gaussian_pulse"};
  const std::vector<std::string> backends = {"scalar", "row_run"};
  std::mutex mu;
  std::map<std::string, std::vector<double>> fields;
  std::vector<nlh::amt::future<svc::svc_result>> futs;
  for (const auto& scn : scenarios)
    for (const auto& backend : backends)
      for (const auto mode : {nlh::api::execution_mode::serial,
                              nlh::api::execution_mode::distributed}) {
        svc::svc_job j = small_job(3);
        j.options.scenario = scn;
        j.options.kernel_backend = backend;
        j.options.mode = mode;
        j.options.sd_grid = 2;
        j.options.threads_per_locality = 2;
        const std::string key =
            scn + "/" + backend +
            (mode == nlh::api::execution_mode::serial ? "/serial" : "/dist");
        j.label = key;
        j.on_complete = [&mu, &fields, key](nlh::api::session& s) {
          auto f = s.solver().field();
          std::lock_guard<std::mutex> lk(mu);
          fields[key] = std::move(f);
        };
        futs.push_back(loop.submit(key, svc::qos_class::batch, std::move(j)));
      }
  ASSERT_GE(futs.size(), 8u);
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_EQ(r.metrics.steps, 3);
  }

  const nlh::nonlocal::grid2d grid(16, 2.0 / 16.0);
  for (const auto& scn : scenarios)
    for (const auto& backend : backends)
      EXPECT_EQ(interior_diff(grid, fields.at(scn + "/" + backend + "/serial"),
                              fields.at(scn + "/" + backend + "/dist")),
                0.0)
          << scn << "/" << backend << " pair diverged inside the service";
  EXPECT_EQ(loop.stats().of(svc::qos_class::batch).completed, 8u);
}

TEST(Service, NumStepsOverridesSessionOptions) {
  svc::service_loop loop;
  svc::svc_job j = small_job();
  j.options.num_steps = 3;
  j.num_steps = 5;
  EXPECT_EQ(loop.submit("t", svc::qos_class::batch, j).get().metrics.steps, 5);
  j.num_steps = 0;  // falls back to options.num_steps
  EXPECT_EQ(loop.submit("t", svc::qos_class::batch, j).get().metrics.steps, 3);
}

// Destroying the service with jobs still queued finishes them, and every
// handed-out future has resolved by the time the destructor returns.
TEST(Service, DestructorFinishesEveryAcceptedJob) {
  std::vector<nlh::amt::future<svc::svc_result>> futs;
  {
    svc::service_options opt;
    opt.pool_threads = 1;
    svc::service_loop loop(opt);
    for (int k = 0; k < 4; ++k)
      futs.push_back(loop.submit("t", svc::qos_class::batch, small_job()));
  }
  for (auto& f : futs) {
    ASSERT_TRUE(f.is_ready());
    EXPECT_TRUE(f.get().ok);
  }
}

TEST(Service, AFailingJobFailsAlone) {
  svc::service_loop loop;
  svc::svc_job bad = small_job();
  bad.options.mode = nlh::api::execution_mode::distributed;
  bad.options.sd_grid = 2;
  bad.options.n = 15;  // not divisible by sd_grid
  auto fb = loop.submit("t", svc::qos_class::batch, bad);
  auto fg = loop.submit("t", svc::qos_class::batch, small_job(3));

  const auto rb = fb.get();
  EXPECT_FALSE(rb.ok);
  EXPECT_FALSE(rb.shed);
  EXPECT_NE(rb.error.find("session_options.sd_grid"), std::string::npos)
      << rb.error;
  const auto rg = fg.get();
  EXPECT_TRUE(rg.ok) << rg.error;
  EXPECT_EQ(rg.metrics.steps, 3);
  const auto st = loop.stats();
  EXPECT_EQ(st.of(svc::qos_class::batch).completed, 1u);
  EXPECT_EQ(st.of(svc::qos_class::batch).failed, 1u);
}

// The key rule: with two slots and A1 (key a, held open in its hook), A2
// (key a) and B1 (key b) queued in that order, B1 takes the free slot while
// A1 holds the other, A2 stays queued although a slot is free, and A2
// starts only after A1 has returned — on the session A1 left behind.
TEST(Service, SameKeyJobsRunOneAtATimeWithoutBlockingOtherKeys) {
  svc::service_options opt;
  opt.pool_threads = 2;
  opt.max_concurrent = 2;
  opt.qos.enabled = false;  // one FIFO: submission order is queue order
  svc::service_loop loop(opt);

  std::promise<void> holding, release;
  auto released = release.get_future().share();
  std::atomic<bool> a1_returned{false}, a2_saw_a1_returned{false};

  svc::svc_job a1 = small_job();
  a1.session_key = "a";
  a1.on_complete = [&holding, released, &a1_returned](nlh::api::session&) {
    holding.set_value();
    released.wait();
    a1_returned = true;
  };
  svc::svc_job a2 = small_job();
  a2.session_key = "a";
  a2.on_complete = [&a1_returned, &a2_saw_a1_returned](nlh::api::session&) {
    a2_saw_a1_returned = a1_returned.load();
  };
  svc::svc_job b1 = small_job();
  b1.session_key = "b";

  auto fa1 = loop.submit("t", svc::qos_class::batch, a1);
  holding.get_future().wait();  // A1 holds its slot from here on
  auto fa2 = loop.submit("t", svc::qos_class::batch, a2);
  auto fb1 = loop.submit("t", svc::qos_class::batch, b1);

  const auto wait_until = [](const auto& done) {
    for (int i = 0; i < 30000 && !done(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return done();
  };
  const bool b1_done = wait_until([&] { return fb1.is_ready(); });
  // B1's slot frees after its future resolves; A2 must still be queued.
  const bool one_running =
      wait_until([&] { return loop.scheduler().running() == 1; });
  const int a2_queued = loop.scheduler().queue_depth(svc::qos_class::batch);
  const bool a2_done_early = fa2.is_ready();
  release.set_value();

  EXPECT_TRUE(b1_done) << "B1 did not run while A1 held its slot";
  EXPECT_TRUE(one_running);
  EXPECT_EQ(a2_queued, 1);
  EXPECT_FALSE(a2_done_early) << "A2 ran while A1 (same key) was running";
  EXPECT_TRUE(fa1.get().ok);
  const auto r2 = fa2.get();
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(a2_saw_a1_returned.load());
  EXPECT_EQ(r2.metrics.steps, 4);  // A2 continued A1's session
  EXPECT_TRUE(fb1.get().ok);
  EXPECT_EQ(loop.tenant_count(), 2u);
}

// -------------------------------------------------------------- traffic ---

TEST(Traffic, TraceIsAPureFunctionOfItsSeed) {
  svc::traffic_options opt;
  opt.seed = 7;
  opt.arrivals = 500;
  const auto a = svc::generate_traffic(opt);
  const auto b = svc::generate_traffic(opt);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(svc::trace_checksum(a), svc::trace_checksum(b));

  opt.seed = 8;
  EXPECT_NE(svc::trace_checksum(a),
            svc::trace_checksum(svc::generate_traffic(opt)));
}

TEST(Traffic, ArrivalTimesIncreaseAndMixMatchesTheFractions) {
  svc::traffic_options opt;
  opt.seed = 42;
  opt.arrivals = 2000;
  opt.interactive_fraction = 0.5;
  opt.batch_fraction = 0.3;
  opt.tenants = 5;
  const auto trace = svc::generate_traffic(opt);
  ASSERT_EQ(trace.size(), 2000u);

  int per_class[svc::qos_class_count] = {};
  std::set<std::string> tenants;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(trace[i].t, trace[i - 1].t);
    }
    ++per_class[static_cast<int>(trace[i].cls)];
    tenants.insert(trace[i].tenant);
    EXPECT_EQ(trace[i].id, i);
  }
  EXPECT_EQ(tenants.size(), 5u);
  const double fi = per_class[0] / 2000.0, fb = per_class[1] / 2000.0;
  EXPECT_NEAR(fi, 0.5, 0.05);
  EXPECT_NEAR(fb, 0.3, 0.05);
  // Per-class step budgets rode along.
  for (const auto& a : trace) {
    const int expect = a.cls == svc::qos_class::interactive ? opt.steps_interactive
                       : a.cls == svc::qos_class::batch     ? opt.steps_batch
                                                            : opt.steps_soak;
    EXPECT_EQ(a.job.num_steps, expect);
  }
}

TEST(Traffic, ValidateRejectsAnEmptyOrNonsenseLoad) {
  svc::traffic_options opt;
  opt.arrivals = 0;
  opt.duration_seconds = 0.0;
  EXPECT_FALSE(opt.validate().empty());
  EXPECT_THROW(svc::generate_traffic(opt), std::invalid_argument);
  opt.arrivals = 10;
  opt.burst_factor = 0.5;
  EXPECT_TRUE(mentions(opt.validate(), "burst_factor"));
}

TEST(Traffic, ReplayDrivesTheServiceToATerminalStateForEveryArrival) {
  svc::traffic_options topt;
  topt.seed = 3;
  topt.arrivals = 60;
  topt.n = 16;
  const auto trace = svc::generate_traffic(topt);

  svc::service_options sopt;
  sopt.pool_threads = 2;
  svc::service_loop loop(sopt);
  auto futs = svc::replay(loop, trace, /*time_scale=*/0.0);
  ASSERT_EQ(futs.size(), trace.size());
  int terminal = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    EXPECT_EQ(r.label, trace[i].job.label);
    EXPECT_TRUE(r.ok || r.shed || !r.error.empty());
    ++terminal;
  }
  EXPECT_EQ(terminal, 60);
  const auto st = loop.stats();
  std::uint64_t accounted = 0;
  for (int c = 0; c < svc::qos_class_count; ++c) {
    const auto& cs = st.per_class[static_cast<std::size_t>(c)];
    accounted += cs.completed + cs.failed + cs.shed;
    EXPECT_EQ(cs.submitted, cs.completed + cs.failed + cs.shed);
  }
  EXPECT_EQ(accounted, 60u);
}

TEST(Scheduler, CanBeDestroyedRightAfterWaitIdle) {
  // A worker finishes an item in a pool-task epilogue that still uses the
  // scheduler: it frees the slot, dispatches, sheds expired work through
  // callbacks and wakes the waiters. wait_idle() must not return before
  // that epilogue is done, or the owner destroys the
  // scheduler under it (ThreadSanitizer reports the race, AddressSanitizer
  // the use after free). Every round destroys its scheduler right away;
  // odd rounds also expire queued interactive work so the epilogue sheds.
  nlh::amt::thread_pool pool(2);
  for (int round = 0; round < 300; ++round) {
    std::atomic<double> clock{0.0};
    auto sched = std::make_unique<svc::class_scheduler>(
        svc::scheduler_options{svc::qos_config{}, 1}, pool,
        [&clock] { return clock.load(); });
    std::atomic<int> ran{0}, shed{0};
    const bool expire = round % 2 == 1;
    for (int i = 0; i < 4; ++i) {
      svc::sched_item item;
      item.cls = i == 0 ? svc::qos_class::batch : svc::qos_class::interactive;
      item.seq = static_cast<std::uint64_t>(i);
      item.run = [&clock, &ran, expire] {
        // Past the interactive deadline: the items still queued expire.
        if (expire) clock.store(10.0);
        ran.fetch_add(1);
      };
      item.shed = [&shed](const std::string&) { shed.fetch_add(1); };
      ASSERT_EQ(sched->enqueue(std::move(item)),
                svc::class_scheduler::enqueue_result::queued);
    }
    sched->wait_idle();
    sched.reset();
    EXPECT_EQ(ran.load() + shed.load(), 4) << "round " << round;
  }
}
