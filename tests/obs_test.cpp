// Tests for the observability subsystem (src/obs/): span recording and
// nesting, cross-thread rings and thread names, ring wraparound accounting,
// histogram quantile estimation, Chrome-trace / metrics JSON export
// round-trips, the runtime enable/disable gates, and a fully traced mixed
// batch through the service (the latter rides the TSAN CI job: every
// tracer/metrics path exercised concurrently with real solver work).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"

namespace obs = nlh::obs;
namespace api = nlh::api;
namespace svc = nlh::svc;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Events from `snap` named `name`.
std::vector<obs::trace_event> named(const std::vector<obs::trace_event>& snap,
                                    const std::string& name) {
  std::vector<obs::trace_event> out;
  for (const auto& e : snap)
    if (e.name && name == e.name) out.push_back(e);
  return out;
}

api::session_options small_options(const std::string& scenario) {
  api::session_options opt;
  opt.scenario = scenario;
  opt.n = 16;
  opt.epsilon_factor = 2;
  opt.num_steps = 3;
  opt.sd_grid = 2;
  opt.nodes = 2;
  return opt;
}

}  // namespace

/// Every test starts and ends with tracing off and the rings empty, so the
/// process-wide tracer singleton never leaks events across tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::tracer::instance().clear();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::tracer::instance().clear();
    obs::configure(obs::config{});  // restore the default ring capacity
  }
};

// ------------------------------------------------------------- recording --

TEST_F(ObsTest, SpanRecordsCompleteEventWithDuration) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN_ARG("test/outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto snap = obs::tracer::instance().snapshot();
  const auto outer = named(snap, "test/outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0].phase, 'X');
  EXPECT_EQ(outer[0].arg, 7u);
  EXPECT_GE(outer[0].dur_ns, 2'000'000);  // slept 2 ms inside the span
  EXPECT_GT(outer[0].tid, 0u);
}

TEST_F(ObsTest, NestedSpansCoverEachOtherAndSortByStart) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN("test/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      NLH_TRACE_SPAN("test/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto snap = obs::tracer::instance().snapshot();
  const auto outer = named(snap, "test/outer");
  const auto inner = named(snap, "test/inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // Proper nesting: the outer interval strictly contains the inner one.
  EXPECT_LT(outer[0].ts_ns, inner[0].ts_ns);
  EXPECT_GT(outer[0].ts_ns + outer[0].dur_ns, inner[0].ts_ns + inner[0].dur_ns);
  // snapshot() merges sorted by start time: outer first.
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].ts_ns, snap[i].ts_ns);
}

TEST_F(ObsTest, InstantCarriesItsArg) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_INSTANT("test/tick", 42);
  const auto snap = obs::tracer::instance().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, 'i');
  EXPECT_EQ(snap[0].arg, 42u);
}

TEST_F(ObsTest, ThreadsGetDistinctRingsAndNames) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_INSTANT("test/main", 0);
  obs::tracer::instance().set_thread_name("main-thread");
  std::thread t([] {
    obs::tracer::instance().set_thread_name("helper");
    NLH_TRACE_INSTANT("test/helper", 0);
  });
  t.join();  // the helper ring must survive the thread's exit
  const auto snap = obs::tracer::instance().snapshot();
  const auto a = named(snap, "test/main");
  const auto b = named(snap, "test/helper");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0].tid, b[0].tid);
  const auto names = obs::tracer::instance().thread_names();
  bool saw_main = false, saw_helper = false;
  for (const auto& [tid, name] : names) {
    if (tid == a[0].tid && name == "main-thread") saw_main = true;
    if (tid == b[0].tid && name == "helper") saw_helper = true;
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_helper);
}

TEST_F(ObsTest, RingWrapsKeepingNewestAndCountsDropped) {
  // configure() only affects rings created afterwards, so record from a
  // fresh thread — the main thread's ring already exists at full capacity.
  // 16 is the documented capacity floor (tracer.cpp clamps smaller values).
  obs::configure(obs::config{/*ring_capacity=*/16});
  obs::set_tracing_enabled(true);
  std::thread t([] {
    for (std::uint64_t i = 0; i < 40; ++i) NLH_TRACE_INSTANT("test/wrap", i);
  });
  t.join();
  const auto events = named(obs::tracer::instance().snapshot(), "test/wrap");
  ASSERT_EQ(events.size(), 16u);  // newest 16 of 40 survive
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, 24 + i);  // args 24..39, oldest first
  EXPECT_EQ(obs::tracer::instance().dropped(), 24u);
}

TEST_F(ObsTest, NamedThreadsWithTracingOffAllocateNoEventStorage) {
  // Pool workers name their rings whether or not tracing is on; a ring must
  // not allocate its events until one is recorded.
  auto& tr = obs::tracer::instance();
  const auto before = tr.event_storage_bytes();
  std::vector<std::thread> threads;
  for (int k = 0; k < 64; ++k)
    threads.emplace_back([k] {
      obs::tracer::instance().set_thread_name("idle-" + std::to_string(k));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tr.event_storage_bytes(), before);
  EXPECT_TRUE(tr.snapshot().empty());
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(ObsTest, SessionsWithTracingOffLeaveNoRingsBehind) {
  // Every pool worker names its ring; a ring that never recorded an event
  // must leave with its thread, or each distributed session would leave
  // one ring per worker registered for the rest of the process.
  auto& tr = obs::tracer::instance();
  const auto before = tr.thread_names().size();
  for (int k = 0; k < 8; ++k) {
    auto opt = small_options("manufactured");
    opt.mode = api::execution_mode::distributed;
    api::session s(opt);
    s.solver().run(2);
  }
  EXPECT_EQ(tr.thread_names().size(), before);
}

TEST_F(ObsTest, RingKeepsCapacityItRegisteredWith) {
  // A ring registered (here: by naming its thread) at capacity 16 keeps it
  // when configure() changes the capacity before its first event.
  obs::configure(obs::config{/*ring_capacity=*/16});
  std::atomic<int> stage{0};
  std::thread t([&] {
    obs::tracer::instance().set_thread_name("registered-at-16");
    stage = 1;
    while (stage.load() != 2) std::this_thread::yield();
    for (std::uint64_t i = 0; i < 40; ++i) NLH_TRACE_INSTANT("test/cap", i);
  });
  while (stage.load() != 1) std::this_thread::yield();
  obs::configure(obs::config{/*ring_capacity=*/64});
  obs::set_tracing_enabled(true);
  stage = 2;
  t.join();
  const auto events = named(obs::tracer::instance().snapshot(), "test/cap");
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().arg, 24u);
  EXPECT_EQ(obs::tracer::instance().dropped(), 24u);
}

// ----------------------------------------------------------------- gating --

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    NLH_TRACE_SPAN("test/ghost");
    NLH_TRACE_INSTANT("test/ghost_i", 1);
  }
  EXPECT_TRUE(obs::tracer::instance().snapshot().empty());
  EXPECT_EQ(obs::tracer::instance().dropped(), 0u);
}

TEST_F(ObsTest, SpanOpenedWhileEnabledStillClosesAfterDisable) {
  // Documented semantics (obs/config.hpp): flipping the switch mid-span is
  // safe and the span still records its one complete event.
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN("test/straddle");
    obs::set_tracing_enabled(false);
  }
  const auto snap = obs::tracer::instance().snapshot();
  ASSERT_EQ(named(snap, "test/straddle").size(), 1u);
}

TEST_F(ObsTest, ClearDropsEventsButKeepsRings) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_INSTANT("test/a", 0);
  obs::tracer::instance().clear();
  EXPECT_TRUE(obs::tracer::instance().snapshot().empty());
  NLH_TRACE_INSTANT("test/b", 0);
  EXPECT_EQ(obs::tracer::instance().snapshot().size(), 1u);
}

// ------------------------------------------------------------- histograms --

TEST_F(ObsTest, HistogramExactStatsAndQuantileBounds) {
  obs::histogram h(obs::histogram_options{1.0, 1e4, 8});
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  const auto s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);  // count/sum/min/max/mean are exact
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  // Quantiles are bucketed estimates: relative error is bounded by the
  // bucket ratio, 10^(1/8) ~ 1.334 at 8 buckets/decade.
  const double ratio = std::pow(10.0, 1.0 / 8.0);
  EXPECT_GE(s.p50, 500.0 / ratio);
  EXPECT_LE(s.p50, 500.0 * ratio);
  EXPECT_GE(s.p90, 900.0 / ratio);
  EXPECT_LE(s.p90, 900.0 * ratio);
  EXPECT_GE(s.p99, 990.0 / ratio);
  EXPECT_LE(s.p99, 990.0 * ratio);
  // quantile() is monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST_F(ObsTest, HistogramUnderflowOverflowAndEmpty) {
  obs::histogram h(obs::histogram_options{1e-3, 1e3, 4});
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.summary().p99, 0.0);  // empty -> all zeros
  h.record(1e-9);  // underflow bucket
  h.record(1e9);   // overflow bucket
  const auto s = h.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 1e-9);  // min/max track the raw values
  EXPECT_DOUBLE_EQ(s.max, 1e9);
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
}

TEST_F(ObsTest, HistogramConcurrentRecordSumsAllEvents) {
  obs::histogram h;
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&h] {
      for (int j = 0; j < 1000; ++j) h.record(1e-4);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.summary().count, 4000u);
}

// ----------------------------------------------------------------- export --

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN_ARG("test/export_span", 11);
    NLH_TRACE_INSTANT("test/export_tick", 5);
  }
  obs::tracer::instance().set_thread_name("exporter");
  obs::set_tracing_enabled(false);

  const auto events = obs::tracer::instance().snapshot();
  const auto names = obs::tracer::instance().thread_names();
  const std::string json = obs::chrome_trace_json(events, names);
  // Chrome Trace Event object format, loadable in ui.perfetto.dev.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"exporter\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, events, names));
  EXPECT_EQ(slurp(path), json);  // chrome_trace_json is newline-terminated
  std::remove(path.c_str());
}

TEST_F(ObsTest, WriteChromeTraceFailsOnBadPath) {
  EXPECT_FALSE(obs::write_chrome_trace("/nonexistent-dir/trace.json"));
}

TEST_F(ObsTest, MetricsJsonRoundTrip) {
  obs::metrics_snapshot snap;
  snap.add_counter("test/events", 12);
  snap.add_gauge("test/level", 0.5);
  obs::histogram h;
  for (int i = 0; i < 10; ++i) h.record(0.001 * (i + 1));
  snap.add_histogram("test/lat_seconds", h.summary());

  const std::string json = obs::metrics_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test/events\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"test/lat_seconds\""), std::string::npos);
  for (const char* field : {"\"count\"", "\"sum\"", "\"mean\"", "\"p50\"",
                            "\"p90\"", "\"p99\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;

  const std::string path = ::testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(obs::write_metrics_json(path, snap));
  EXPECT_EQ(slurp(path), json + "\n");  // the writer newline-terminates
  std::remove(path.c_str());
}

TEST_F(ObsTest, SnapshotMergeAppliesPrefix) {
  obs::metrics_snapshot a, b;
  b.add_counter("events", 2);
  b.add_gauge("level", 1.0);
  a.merge(b, "job/");
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].first, "job/events");
  ASSERT_EQ(a.gauges.size(), 1u);
  EXPECT_EQ(a.gauges[0].first, "job/level");
}

// ------------------------------------------- end to end: session + batch --

TEST_F(ObsTest, SessionMetricsCarryDistributedFlagAndStepLatency) {
  auto opt = small_options("manufactured");
  opt.mode = api::execution_mode::serial;
  api::session serial(opt);
  serial.solver().run(3);
  const auto ms = serial.solver().metrics();
  EXPECT_FALSE(ms.is_distributed);
  EXPECT_EQ(ms.step_latency.count, 3u);  // one sample per step
  EXPECT_GT(ms.step_latency.p50, 0.0);

  opt.mode = api::execution_mode::distributed;
  api::session dist(opt);
  dist.solver().run(3);
  const auto md = dist.solver().metrics();
  EXPECT_TRUE(md.is_distributed);
  EXPECT_EQ(md.step_latency.count, 3u);

  // The full snapshot carries the uniform schema: the dist/* instruments
  // appear only for the distributed session.
  const auto serial_snap = serial.solver().metrics_snapshot();
  const auto dist_snap = dist.solver().metrics_snapshot();
  auto has_counter = [](const obs::metrics_snapshot& s, const std::string& n) {
    for (const auto& [name, v] : s.counters)
      if (name == n) return true;
    return false;
  };
  EXPECT_FALSE(has_counter(serial_snap, "dist/ghost/messages"));
  EXPECT_TRUE(has_counter(dist_snap, "dist/ghost/messages"));
  EXPECT_TRUE(has_counter(serial_snap, "api/session/steps"));
  EXPECT_TRUE(has_counter(dist_snap, "api/session/steps"));
}

TEST_F(ObsTest, TracedMixedServiceBatchProducesTimelineAndMetrics) {
  // The TSAN rider: serial and distributed jobs step concurrently with
  // tracing on, hammering the per-thread rings, the shared histograms and
  // the service accounting at once.
  obs::set_tracing_enabled(true);

  svc::service_options sopt;
  sopt.pool_threads = 2;
  svc::service_loop loop(sopt);

  std::vector<nlh::amt::future<svc::svc_result>> futures;
  for (const char* scenario : {"manufactured", "gaussian_pulse"})
    for (const auto mode :
         {api::execution_mode::serial, api::execution_mode::distributed}) {
      svc::svc_job job;
      job.options = small_options(scenario);
      job.options.mode = mode;
      const bool serial = mode == api::execution_mode::serial;
      job.label = std::string(scenario) + (serial ? "/serial" : "/dist");
      futures.push_back(loop.submit(
          "t", serial ? svc::qos_class::interactive : svc::qos_class::batch,
          std::move(job)));
    }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  loop.wait_idle();
  obs::set_tracing_enabled(false);

  // Timeline: every layer shows up — job lifecycle, per-step spans, the
  // distributed phases, pool task execution and message traffic.
  const auto snap = obs::tracer::instance().snapshot();
  EXPECT_EQ(named(snap, "svc/job").size(), 4u);
  EXPECT_EQ(named(snap, "svc/submit").size(), 4u);
  EXPECT_EQ(named(snap, "svc/dispatch").size(), 4u);
  EXPECT_EQ(named(snap, "api/step").size(), 12u);  // 4 jobs x 3 steps
  EXPECT_EQ(named(snap, "dist/step").size(), 6u);  // 2 dist jobs x 3 steps
  EXPECT_FALSE(named(snap, "amt/task").empty());
  EXPECT_FALSE(named(snap, "net/send").empty());
  EXPECT_EQ(named(snap, "net/send").size(), named(snap, "net/deliver").size());

  // Metrics: per-class queue-wait and step-latency histograms.
  const auto metrics = loop.metrics_snapshot();
  std::uint64_t interactive_waits = 0, batch_waits = 0, batch_steps = 0;
  for (const auto& [name, s] : metrics.histograms) {
    if (name == "svc/interactive/queue_wait_seconds") interactive_waits = s.count;
    if (name == "svc/batch/queue_wait_seconds") batch_waits = s.count;
    if (name == "svc/batch/step_latency_seconds") batch_steps = s.count;
  }
  EXPECT_EQ(interactive_waits, 2u);
  EXPECT_EQ(batch_waits, 2u);
  EXPECT_EQ(batch_steps, 6u);

  // And the whole thing exports.
  const std::string path = ::testing::TempDir() + "obs_service_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  EXPECT_NE(slurp(path).find("svc/job"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- name set --

TEST_F(ObsTest, MetricNameSetIsPinned) {
  // Every counter, gauge and histogram name a 2-locality distributed
  // session (auto-rebalance, one checkpoint round trip) and a hibernating
  // service export, in one sorted list: a rename or a lost instrument shows
  // up as a diff here. The e2ebench reads its kernel/*, dist/* and
  // balance/* names from this set.
  std::set<std::string> names;
  const auto collect = [&names](const obs::metrics_snapshot& s) {
    for (const auto& c : s.counters) names.insert(c.first);
    for (const auto& g : s.gauges) names.insert(g.first);
    for (const auto& h : s.histograms) names.insert(h.first);
  };
  {
    auto opt = small_options("manufactured");
    opt.mode = api::execution_mode::distributed;
    opt.sd_grid = 4;
    opt.auto_rebalance.enabled = true;
    opt.auto_rebalance.interval = 2;
    opt.auto_rebalance.trigger = 0.0;
    opt.auto_rebalance.cooldown = 0;
    api::session s(opt);
    auto& h = s.solver();
    h.run(4);
    collect(h.metrics_snapshot());
    const auto blob = h.export_and_release();
    h.import_state(blob.bytes);
    h.run(3);  // no check after the last step: its plan stays compiled
    collect(h.metrics_snapshot());
  }
  {
    svc::service_options sopt;
    sopt.pool_threads = 2;
    sopt.hibernation.enabled = true;
    sopt.hibernation.resident_cap = 1;
    svc::service_loop loop(sopt);
    for (const char* key : {"a", "b", "a"}) {
      svc::svc_job job;
      job.options = small_options("manufactured");
      job.options.mode = api::execution_mode::distributed;
      job.options.auto_rebalance.enabled = true;
      job.session_key = key;
      const auto r = loop.submit("t", svc::qos_class::batch, job).get();
      ASSERT_TRUE(r.ok) << r.error;
    }
    collect(loop.metrics_snapshot());
  }
  const std::vector<std::string> expected = {
      "amt/pool#0/busy_fraction", "amt/pool#0/tasks", "amt/pool#1/busy_fraction",
      "amt/pool#1/tasks", "api/session/comm_wait_seconds", "api/session/dt",
      "api/session/ghost_bytes", "api/session/is_distributed",
      "api/session/overlap_early_tasks", "api/session/step_latency_seconds",
      "api/session/steps", "api/session/wall_seconds", "balance/checks",
      "balance/epochs", "balance/imbalance_after", "balance/imbalance_before",
      "balance/moves", "ckpt/bytes_encoded", "ckpt/bytes_on_disk", "ckpt/bytes_raw",
      "ckpt/compression_ratio", "ckpt/hibernate_seconds", "ckpt/hibernated",
      "ckpt/hibernates", "ckpt/resident", "ckpt/restore_seconds", "ckpt/restores",
      "ckpt/sessions", "dist/ghost/bytes",
      "dist/ghost/message_bytes", "dist/ghost/messages",
      "dist/overlap/interior_early", "dist/overlap/strips_early",
      "dist/plan/boundary_sds", "dist/plan/compiles", "dist/plan/local_fills",
      "dist/plan/messages", "dist/plan/ready_strips", "dist/plan/strips",
      "dist/step/current", "dist/step/drain_wait_seconds", "dist/step/wait_seconds",
      "kernel/applies", "kernel/block_rows", "kernel/blocks", "kernel/col_tile",
      "kernel/dps", "kernel/mdps", "svc/balance/epochs",
      "svc/balance/imbalance_before", "svc/balance/moves", "svc/batch/completed",
      "svc/batch/failed", "svc/batch/queue_wait_seconds", "svc/batch/shed",
      "svc/batch/step_latency_seconds", "svc/batch/submitted",
      "svc/interactive/completed", "svc/interactive/failed",
      "svc/interactive/queue_wait_seconds", "svc/interactive/shed",
      "svc/interactive/step_latency_seconds", "svc/interactive/submitted",
      "svc/jobs_per_second", "svc/quota/admitted", "svc/quota/delay_seconds",
      "svc/quota/delayed", "svc/quota/shed", "svc/quota/tenants",
      "svc/sched/queue_depth/batch", "svc/sched/queue_depth/interactive",
      "svc/sched/queue_depth/soak", "svc/sched/rounds", "svc/sched/running",
      "svc/sched/served/batch", "svc/sched/served/interactive",
      "svc/sched/served/soak", "svc/sched/shed_expired",
      "svc/soak/completed", "svc/soak/failed", "svc/soak/queue_wait_seconds",
      "svc/soak/shed", "svc/soak/step_latency_seconds", "svc/soak/submitted",
      "svc/tenants", "svc/wall_seconds",
  };
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.end()), expected);
}
