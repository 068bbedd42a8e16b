#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "amt/async.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "dist/sim_dist.hpp"
#include "fold.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/stencil.hpp"
#include "obs/config.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"
#include "svc/traffic_gen.hpp"

namespace nlh::e2e {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Heap bytes in use (glibc arenas plus mmapped chunks), in KiB.
double heap_in_use_kb() {
  const auto mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1024.0;
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;
/// Consecutive closed-loop steps that make one client "job" (job_* metrics).
constexpr int kStepsPerJob = 10;
/// Each run measures this many episodes, each on a fresh session or
/// service (new threads, new ownership), and reports the median over them.
/// Run-level state otherwise decides a run: thread placement against the
/// pools' 1 ms idle wait, a slow ownership regime the live rebalancer
/// settles into, or a burst of CPU steal from other tenants of the host.
constexpr int kEpisodes = 4;
/// Timed step after which a solve reads its peak RSS. Memory grows with
/// every step (the mailbox keeps a map node per message tag), so a reading
/// at a fixed amount of work keeps a faster build from looking hungrier;
/// the growth itself is the bench.heap_growth_kb_per_step metric.
constexpr std::size_t kRssStep = 100;

// --------------------------------------------------------------- scenarios --

/// The paper's manufactured problem with a seeded smooth perturbation of the
/// initial condition, so each seed is a different input with identical
/// work: the source term and its cost are the manufactured ones.
class seeded_manufactured final : public api::scenario {
 public:
  explicit seeded_manufactured(std::uint64_t seed) {
    support::rng r(seed);
    amp_ = r.uniform(0.05, 0.15);
    kx_ = r.uniform_int(1, 4);
    ky_ = r.uniform_int(1, 4);
    phase_ = r.uniform(0.0, 2.0 * M_PI);
  }
  std::string name() const override { return "manufactured_seeded"; }
  double initial(double x1, double x2) const override {
    return base_.initial(x1, x2) +
           amp_ * std::sin(kx_ * M_PI * x1) * std::sin(ky_ * M_PI * x2 + phase_);
  }
  void fill_aux(const api::scenario_context& ctx, double t, const nonlocal::dp_rect& rect,
                std::vector<double>& aux) const override {
    base_.fill_aux(ctx, t, rect, aux);
  }
  void source_into(const api::scenario_context& ctx, double t,
                   const std::vector<double>& aux, const nonlocal::dp_rect& rect,
                   std::vector<double>& out) const override {
    base_.source_into(ctx, t, aux, rect, out);
  }

 private:
  api::manufactured_scenario base_;
  double amp_ = 0.0;
  int kx_ = 1;
  int ky_ = 1;
  double phase_ = 0.0;
};

/// A heat source that is expensive to evaluate inside a fixed disc and
/// free outside it. The disc lies in the left third of the domain, which
/// the 3-way block partition gives to locality 0, so the static partition
/// starts out imbalanced and Algorithm 1 has work to do. The disc is the
/// same for every seed (the work per step is then seed-independent); the
/// seed places the initial temperature pulse.
class hotspot_scenario final : public api::scenario {
 public:
  explicit hotspot_scenario(std::uint64_t seed) {
    support::rng r(seed);
    px_ = r.uniform(0.3, 0.7);
    py_ = r.uniform(0.3, 0.7);
  }
  std::string name() const override { return "hotspot"; }
  double initial(double x1, double x2) const override {
    const double dx = x1 - px_, dy = x2 - py_;
    return std::exp(-(dx * dx + dy * dy) / 0.02);
  }
  void source_into(const api::scenario_context& ctx, double t,
                   const std::vector<double>& /*aux*/, const nonlocal::dp_rect& rect,
                   std::vector<double>& out) const override {
    const auto& g = *ctx.grid;
    for (int i = rect.row_begin; i < rect.row_end; ++i)
      for (int j = rect.col_begin; j < rect.col_end; ++j) {
        const double x = g.x(j), y = g.y(i);
        const double dx = x - cx_, dy = y - cy_;
        double b = 0.0;
        if (dx * dx + dy * dy < kRadius * kRadius) {
          // A truncated Fourier series: deterministic, unvectorizable work.
          for (int k = 1; k <= kTerms; ++k)
            b += std::sin(k * (x + t)) * std::cos(k * y) / (k * k);
        }
        out[g.flat(i, j)] = b;
      }
  }
 private:
  static constexpr double cx_ = 1.0 / 6.0, cy_ = 0.5, kRadius = 0.15;
  static constexpr int kTerms = 24;
  double px_ = 0.0, py_ = 0.0;
};

// ---------------------------------------------------------------- helpers --

const obs::histogram_summary* find_hist(const obs::metrics_snapshot& s,
                                        const std::string& name) {
  for (const auto& [n, h] : s.histograms)
    if (n == name) return &h;
  return nullptr;
}

double counter_or_gauge(const obs::metrics_snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return static_cast<double>(v);
  for (const auto& [n, v] : s.gauges)
    if (n == name) return v;
  return 0.0;
}

/// Kernel hot-loop seconds so far, recovered from the exported dps and
/// mdps (= dps / seconds / 1e6) observables.
double kernel_seconds(const obs::metrics_snapshot& s) {
  const double mdps = counter_or_gauge(s, "kernel/mdps");
  return mdps > 0.0 ? counter_or_gauge(s, "kernel/dps") / (mdps * 1e6) : 0.0;
}

std::vector<double> to_ms(const std::vector<double>& s) {
  std::vector<double> out(s.size());
  std::transform(s.begin(), s.end(), out.begin(), [](double v) { return v * 1e3; });
  return out;
}

/// Sum of each run of `group` consecutive latencies (a closed-loop client
/// job of `group` steps); a trailing partial group is dropped.
std::vector<double> job_latencies(const std::vector<double>& steps, int group) {
  std::vector<double> jobs;
  for (std::size_t i = 0; i + static_cast<std::size_t>(group) <= steps.size();
       i += static_cast<std::size_t>(group)) {
    double sum = 0.0;
    for (int k = 0; k < group; ++k) sum += steps[i + static_cast<std::size_t>(k)];
    jobs.push_back(sum);
  }
  return jobs;
}

/// Per-episode end-to-end figures of one run.
struct episode_stats {
  std::vector<double> mdps, step_p50, step_p95, job_p50, job_p90;

  void add(double seg_mdps, const std::vector<double>& step_ms,
           const std::vector<double>& job_ms) {
    mdps.push_back(seg_mdps);
    step_p50.push_back(quantile(step_ms, 0.50));
    step_p95.push_back(quantile(step_ms, 0.95));
    job_p50.push_back(quantile(job_ms, 0.50));
    job_p90.push_back(quantile(job_ms, 0.90));
  }
  /// The end-to-end metrics: medians over the episodes.
  std::vector<metric> report(double setup_s, double rss_mb) const {
    return {
        {"setup_s", setup_s, "s"},
        {"mdps", median(mdps), "MDP/s"},
        {"step_p50_ms", median(step_p50), "ms"},
        {"step_p95_ms", median(step_p95), "ms"},
        {"job_p50_ms", median(job_p50), "ms"},
        {"job_p90_ms", median(job_p90), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
};

/// Million DP updates per second of `apply_nonlocal_operator` over one
/// sd_size x sd_size rectangle of the workload's grid, with `backend`.
double probe_kernel_mdps(int n, int eps_factor, int sd_size,
                         nonlocal::kernel_backend backend) {
  nonlocal::grid2d grid(n, static_cast<double>(eps_factor) / n);
  nonlocal::influence J;
  nonlocal::stencil st(grid, J);
  nonlocal::stencil_plan plan(st);
  plan.set_backend(backend);
  auto u = grid.make_field();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) u[grid.flat(i, j)] = std::sin(grid.x(j) * 7.0 + grid.y(i));
  auto out = grid.make_field();
  const nonlocal::dp_rect rect{0, sd_size, 0, sd_size};
  nonlocal::apply_nonlocal_operator(grid, plan, 1.0, u, out, rect);  // warm-up
  long reps = 0;
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    for (int r = 0; r < 16; ++r) nonlocal::apply_nonlocal_operator(grid, plan, 1.0, u, out, rect);
    reps += 16;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.05);
  return static_cast<double>(reps) * sd_size * sd_size / elapsed / 1e6;
}

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

// ----------------------------------------------------------- layer report --

/// Every per-layer metric, in report order, with its unit. A workload that
/// does not exercise a layer reports 0 for it (e.g. balance.* without a
/// rebalancer, svc.* on the solves).
const std::vector<std::pair<std::string, std::string>>& per_layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> schema{
      {"kernel.mdps", "MDP/s"},
      {"kernel.ms_per_step", "ms"},
      {"kernel.applies_per_step", "count"},
      {"kernel.probe_mdps", "MDP/s"},
      {"dist.drain_wait_ms_per_step", "ms"},
      {"dist.early_task_frac", "fraction"},
      {"dist.interior_ms", "ms"},
      {"dist.strip_ms", "ms"},
      {"dist.pack_send_ms", "ms"},
      {"dist.unpack_ms", "ms"},
      {"dist.aux_ms", "ms"},
      {"dist.step_self_ms", "ms"},
      {"dist.plan_compiles", "count"},
      {"dist.parallel_eff", "fraction"},
      {"net.messages_per_step", "count"},
      {"net.bytes_per_step", "B"},
      {"net.msg_bytes_p50", "B"},
      {"amt.tasks_per_step", "count"},
      {"amt.task_overhead_us", "us"},
      {"amt.busy_frac_max", "fraction"},
      {"amt.busy_frac_min", "fraction"},
      {"balance.epochs", "count"},
      {"balance.moves", "count"},
      {"balance.imbalance_after", "SD"},
      {"balance.epoch_ms", "ms"},
      {"partition.edge_cut", "DP"},
      {"partition.balance", "ratio"},
      {"api.session_build_ms", "ms"},
      {"api.solver_build_ms", "ms"},
      {"api.step_self_us", "us"},
      {"svc.queue_wait_p50_ms", "ms"},
      {"svc.queue_wait_p90_ms", "ms"},
      {"svc.exec_p50_ms", "ms"},
      {"svc.job_self_ms", "ms"},
      {"svc.shed", "count"},
      {"svc.failed", "count"},
      {"bench.gen_late_p99_ms", "ms"},
      {"serial.mdps", "MDP/s"},
      {"obs.trace_overhead_frac", "fraction"},
      {"obs.dropped", "count"},
      {"bench.unattributed_frac", "fraction"},
      {"sim.step_model_ratio", "ratio"},
      {"bench.heap_growth_kb_per_step", "KiB"},
      {"fail_frac", "fraction"},
  };
  return schema;
}

std::vector<metric> layer_metrics(const std::map<std::string, double>& values) {
  std::vector<metric> out;
  for (const auto& [name, unit] : per_layer_schema()) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

/// Tracer ring size for threads that record from now on. Rings are
/// allocated per thread at its first event (or thread name) and live until
/// exit.
void configure_tracer(std::size_t ring_capacity) {
  obs::config c;
  c.ring_capacity = ring_capacity;
  obs::configure(c);
}

/// Export the newest 200k of `events` as a Perfetto trace in cfg.out_dir.
void write_trace(const run_config& cfg, const std::vector<obs::trace_event>& events,
                 std::vector<std::string>& report) {
  if (cfg.out_dir.empty()) return;
  constexpr std::size_t kMaxEvents = 200000;
  const std::size_t first = events.size() > kMaxEvents ? events.size() - kMaxEvents : 0;
  const std::vector<obs::trace_event> tail(events.begin() + static_cast<std::ptrdiff_t>(first),
                                           events.end());
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".perfetto.json";
  if (obs::write_chrome_trace(path, tail, obs::tracer::instance().thread_names()))
    report.push_back("perfetto trace (" + std::to_string(tail.size()) + " events): " + path);
}

/// Self-time table of one folded window: rows per span name, split into
/// the client thread and every other thread, in ms per `per` unit.
void layer_table(const fold_result& fr, std::uint32_t client_tid, double per,
                 const std::string& per_name, std::vector<std::string>& report) {
  struct row {
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, row> client, other;
  for (const auto& s : fr.spans) {
    auto& r = (s.tid == client_tid ? client : other)[s.name];
    r.self_ms += static_cast<double>(s.self_ns) / 1e6;
    ++r.count;
  }
  auto emit = [&](const char* title, const std::map<std::string, row>& rows) {
    report.push_back(std::string(title));
    std::vector<std::pair<std::string, row>> v(rows.begin(), rows.end());
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
    for (const auto& [name, r] : v) {
      std::ostringstream os;
      os << "  " << std::left << std::setw(20) << name << std::right << std::setw(12)
         << fmt(r.self_ms / per, 4) << " ms/" << per_name << std::setw(12)
         << fmt(static_cast<double>(r.count) / per, 1) << " calls/" << per_name;
      report.push_back(os.str());
    }
  };
  emit("self time, client thread:", client);
  emit("self time, runtime threads (summed over threads):", other);
}

std::uint32_t tid_of(const fold_result& fr, const char* name) {
  for (const auto& s : fr.spans)
    if (std::strcmp(s.name, name) == 0) return s.tid;
  return 0;
}

// ------------------------------------------------------------------ solves --

struct solve_spec {
  api::session_options opt;
  /// Run the virtual twin: only the static partitions with uniform work
  /// per DP; the hotspot's per-SD cost and moving ownership are not modelled.
  bool twin = true;
};

solve_spec make_solve_spec(const std::string& workload, std::uint64_t seed) {
  solve_spec s;
  auto& o = s.opt;
  o.mode = api::execution_mode::distributed;
  o.threads_per_locality = 1;
  o.overlap_schedule = "per_direction";
  if (workload == "solve_wide") {
    o.custom_scenario = std::make_shared<const seeded_manufactured>(seed);
    o.n = 512;
    o.epsilon_factor = 8;
    o.sd_grid = 8;
    o.nodes = 3;
    o.partitioner = api::partition_strategy::multilevel;
  } else if (workload == "solve_fine") {
    o.custom_scenario = std::make_shared<const seeded_manufactured>(seed);
    o.n = 256;
    o.epsilon_factor = 2;
    o.sd_grid = 32;
    o.nodes = 3;
    o.partitioner = api::partition_strategy::multilevel;
  } else {  // rebalance_hotspot
    s.twin = false;
    o.custom_scenario = std::make_shared<const hotspot_scenario>(seed);
    o.n = 96;
    o.epsilon_factor = 8;
    o.sd_grid = 12;
    o.nodes = 3;
    o.partitioner = api::partition_strategy::block;
    o.auto_rebalance.enabled = true;  // default policy, measured busy time
  }
  return s;
}

/// Output check (untimed): a serial session with identical options and the
/// handle's backend pinned, run for as many steps as `h` has taken, must
/// reproduce h's field bitwise. `serial_s` receives its stepping time.
bool matches_serial(const api::session_options& opt, api::solver_handle& h,
                    double& serial_s) {
  auto ref_opt = opt;
  ref_opt.mode = api::execution_mode::serial;
  ref_opt.auto_rebalance = {};
  ref_opt.kernel_backend = h.metrics().kernel_backend;
  api::session ref(ref_opt);
  auto& rh = ref.solver();
  const auto t0 = clock_type::now();
  rh.run(h.current_step());
  serial_s = seconds_since(t0);
  const auto want = rh.field();
  const auto got = h.field();
  return want.size() == got.size() &&
         std::memcmp(want.data(), got.data(), got.size() * sizeof(double)) == 0;
}

/// A closed-loop phase: one client calls step() back to back for
/// `seconds` (and at most `max_steps` steps); `after_step(i)` runs untimed
/// after step i.
template <class F>
std::vector<double> closed_loop(api::solver_handle& h, double seconds, long max_steps,
                                F&& after_step) {
  std::vector<double> lat;
  const auto t0 = clock_type::now();
  while (seconds_since(t0) < seconds && static_cast<long>(lat.size()) < max_steps) {
    const auto s = clock_type::now();
    {
      obs::span sp("bench/step");
      h.step();
    }
    lat.push_back(seconds_since(s));
    after_step(lat.size());
  }
  return lat;
}

run_report run_solve(const run_config& cfg) {
  run_report rep;
  if (cfg.trace) {
    configure_tracer(1u << 19);
    obs::tracer::instance().set_thread_name("client");
  }
  const solve_spec spec = make_solve_spec(cfg.workload, cfg.seed);
  const auto& opt = spec.opt;
  const double dps = static_cast<double>(opt.n) * opt.n;
  std::map<std::string, double> L;

  // Set-up: session construction (partition, tiling, ownership) plus the
  // first solver() (pools, blocks, initial condition), repeated.
  std::vector<double> setup, build_ms, solver_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = clock_type::now();
    std::unique_ptr<api::session> s;
    {
      obs::span sp("bench/session_build");
      s = std::make_unique<api::session>(opt);
    }
    const double built = seconds_since(t0);
    {
      obs::span sp("bench/solver_build");
      s->solver();
    }
    const double total = seconds_since(t0);
    setup.push_back(total);
    build_ms.push_back(built * 1e3);
    solver_ms.push_back((total - built) * 1e3);
  }

  // Untraced episodes: a fresh session each, stepped back to back by one
  // client. End-to-end figures are medians over episodes; the last
  // episode's session carries on into the traced phase and is checked.
  std::unique_ptr<api::session> sess;
  std::vector<double> lat;
  episode_stats eps;
  obs::metrics_snapshot snap0, snap1;
  double rss = 0.0, heap_growth_kb = 0.0, window_s = 0.0;
  double serial_s = 0.0;
  const double episode_s = (cfg.trace ? cfg.seconds / 2 : cfg.seconds) / kEpisodes;
  for (int e = 0; e < kEpisodes; ++e) {
    sess = std::make_unique<api::session>(opt);
    auto& h = sess->solver();
    // Warm-up: plan compile, first touch of every block, pool spin-up.
    for (int k = 0; k < 5; ++k) h.step();
    snap0 = h.metrics_snapshot();
    const double heap0 = heap_in_use_kb();
    const auto w0 = clock_type::now();
    lat = closed_loop(h, episode_s, 1L << 40, [&](std::size_t i) {
      if (e == 0 && i == kRssStep) rss = peak_rss_mb();
    });
    window_s = seconds_since(w0);
    snap1 = h.metrics_snapshot();
    if (e == 0) {
      if (lat.size() < kRssStep) rss = peak_rss_mb();
      heap_growth_kb = (heap_in_use_kb() - heap0) / static_cast<double>(lat.size());
    }
    rep.attempted += lat.size();
    eps.add(dps * static_cast<double>(lat.size()) / window_s / 1e6, to_ms(lat),
            to_ms(job_latencies(lat, kStepsPerJob)));
  }
  auto& h = sess->solver();
  const double steps = static_cast<double>(lat.size());
  const double mdps = median(eps.mdps);

  // Traced phase: same session, tracing on, bounded so no ring wraps.
  std::vector<double> traced_lat;
  std::vector<obs::trace_event> events;
  std::int64_t tw0 = 0, tw1 = 0;
  if (cfg.trace) {
    auto& tr = obs::tracer::instance();
    obs::set_tracing_enabled(true);
    for (int k = 0; k < 3; ++k) h.step();
    std::map<std::uint32_t, std::size_t> per_tid;
    for (const auto& e : tr.snapshot()) ++per_tid[e.tid];
    std::size_t worst = 1;
    for (const auto& [tid, c] : per_tid) worst = std::max(worst, c);
    const long budget =
        static_cast<long>(0.7 * static_cast<double>(obs::current_config().ring_capacity) /
                          (static_cast<double>(worst) / 3.0));
    tr.clear();
    tw0 = tr.now_ns();
    {
      obs::span win("bench/window");
      traced_lat = closed_loop(h, cfg.seconds / 2, std::max(budget, 10L), [](std::size_t) {});
    }
    tw1 = tr.now_ns();
    obs::set_tracing_enabled(false);
    events = tr.snapshot();
    L["obs.dropped"] = static_cast<double>(tr.dropped());
    rep.attempted += traced_lat.size();
  }
  // The workload's final field is the last episode's (the others repeat the
  // same computation for fewer steps).
  const bool same = matches_serial(opt, h, serial_s);
  const double total_steps = static_cast<double>(h.current_step());
  rep.correct = same;
  rep.failed = same ? 0 : rep.attempted;
  rep.report.push_back(cfg.workload + ": " + std::to_string(kEpisodes) + " episodes, " +
                       fmt(steps, 0) + " timed steps in the last (" + fmt(window_s) +
                       " s), backend " + h.metrics().kernel_backend + ", serial reference " +
                       (same ? "bitwise equal" : "MISMATCH"));

  rep.end_to_end = eps.report(median(setup), rss);
  if (!cfg.trace) return rep;

  // ---- per-layer metrics: counters over the last untraced episode -------
  auto delta = [&](const char* name) {
    return counter_or_gauge(snap1, name) - counter_or_gauge(snap0, name);
  };
  const double kernel_s = kernel_seconds(snap1) - kernel_seconds(snap0);
  const double applies = delta("kernel/applies");
  L["kernel.mdps"] = kernel_s > 0 ? delta("kernel/dps") / kernel_s / 1e6 : 0.0;
  L["kernel.ms_per_step"] = kernel_s * 1e3 / steps;
  L["kernel.applies_per_step"] = applies / steps;
  L["kernel.probe_mdps"] = probe_kernel_mdps(opt.n, opt.epsilon_factor, opt.n / opt.sd_grid,
                                             h.backend());
  L["dist.drain_wait_ms_per_step"] = delta("dist/step/wait_seconds") * 1e3 / steps;
  L["dist.early_task_frac"] =
      applies > 0
          ? (delta("dist/overlap/interior_early") + delta("dist/overlap/strips_early")) / applies
          : 0.0;
  L["dist.plan_compiles"] = counter_or_gauge(snap1, "dist/plan/compiles");
  L["net.messages_per_step"] = delta("dist/ghost/messages") / steps;
  L["net.bytes_per_step"] = delta("dist/ghost/bytes") / steps;
  if (const auto* hb = find_hist(snap1, "dist/ghost/message_bytes"))
    L["net.msg_bytes_p50"] = hb->p50;
  L["balance.epochs"] = counter_or_gauge(snap1, "balance/epochs");
  L["balance.moves"] = counter_or_gauge(snap1, "balance/moves");
  L["balance.imbalance_after"] = counter_or_gauge(snap1, "balance/imbalance_after");
  L["partition.edge_cut"] = sess->partition_edge_cut();
  L["partition.balance"] = sess->partition_balance();
  L["api.session_build_ms"] = median(build_ms);
  L["api.solver_build_ms"] = median(solver_ms);
  L["bench.heap_growth_kb_per_step"] = heap_growth_kb;
  L["serial.mdps"] = dps * total_steps / serial_s / 1e6;
  L["dist.parallel_eff"] = mdps / (opt.nodes * L["serial.mdps"]);
  L["fail_frac"] = static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);

  // ---- per-layer metrics: folded spans over the traced window -----------
  const auto fr = fold_spans(events, tw0, tw1);
  const double tsteps = static_cast<double>(traced_lat.size());
  auto self_ms = [&](const char* name) {
    const auto it = fr.by_name.find(name);
    return it == fr.by_name.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
  };
  auto count = [&](const char* name) {
    const auto it = fr.by_name.find(name);
    return it == fr.by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  L["dist.interior_ms"] = self_ms("dist/interior") / tsteps;
  L["dist.strip_ms"] = self_ms("dist/strip") / tsteps;
  L["dist.pack_send_ms"] = self_ms("dist/pack_send") / tsteps;
  L["dist.unpack_ms"] = self_ms("dist/unpack") / tsteps;
  L["dist.aux_ms"] = self_ms("dist/aux") / tsteps;
  L["dist.step_self_ms"] = self_ms("dist/step") / tsteps;
  L["amt.tasks_per_step"] = count("amt/task") / tsteps;
  L["amt.task_overhead_us"] =
      count("amt/task") > 0 ? self_ms("amt/task") * 1e3 / count("amt/task") : 0.0;
  L["api.step_self_us"] = count("api/step") > 0 ? self_ms("api/step") * 1e3 / count("api/step") : 0.0;
  L["balance.epoch_ms"] =
      count("balance/epoch") > 0 ? self_ms("balance/epoch") / count("balance/epoch") : 0.0;
  const double mean_u = window_s / steps;
  double traced_sum = 0.0;
  for (const double v : traced_lat) traced_sum += v;
  L["obs.trace_overhead_frac"] = traced_sum / tsteps / mean_u - 1.0;
  // Busy share of each locality's worker (every thread that ran a task)
  // over the traced window: its top-level amt/task time. (The pools' own busy counters are reset by the
  // rebalancer at every check, so a snapshot of them reads a random window.)
  const double win_ns = static_cast<double>(tw1 - tw0);
  std::map<std::uint32_t, double> task_ns;
  for (const auto& s : fr.spans)
    if (s.parent == -1 && std::strcmp(s.name, "amt/task") == 0)
      task_ns[s.tid] += static_cast<double>(s.end_ns - s.begin_ns);
  double bmax = 0.0, bmin = task_ns.empty() ? 0.0 : 1.0;
  for (const auto& [tid, ns] : task_ns) {
    bmax = std::max(bmax, ns / win_ns);
    bmin = std::min(bmin, ns / win_ns);
  }
  L["amt.busy_frac_max"] = bmax;
  L["amt.busy_frac_min"] = bmin;
  // bench/window is the client thread's root; its self time is the client
  // time no step (or anything below it) accounts for.
  std::uint32_t client = 0;
  for (const auto& s : fr.spans)
    if (std::strcmp(s.name, "bench/window") == 0) {
      client = s.tid;
      L["bench.unattributed_frac"] = static_cast<double>(s.self_ns) / win_ns;
    }

  // ---- virtual twin: the same tiling and ownership through sim_dist -----
  if (spec.twin) {
    dist::sim_cost_model cost;
    // Calibrated on this machine: seconds per DP update of the serial
    // reference (kernel + source + update), so work units are seconds.
    cost.work_per_dp = serial_s / (dps * total_steps);
    dist::sim_cluster_config cl;
    cl.cores_per_node = opt.threads_per_locality;
    constexpr int kSimSteps = 20;
    const auto sim = dist::simulate_timestepping(sess->sd_tiling(), sess->ownership(), kSimSteps,
                                                 cost, cl);
    L["sim.step_model_ratio"] = sim.makespan / kSimSteps / mean_u;
    rep.report.push_back("virtual twin: modelled " + fmt(sim.makespan / kSimSteps * 1e3) +
                         " ms/step vs measured " + fmt(mean_u * 1e3) + " ms/step");
  }

  rep.report.push_back("traced window: " + fmt(tsteps, 0) + " steps, " +
                       fmt(win_ns / 1e9) + " s, unattributed " +
                       fmt(L["bench.unattributed_frac"] * 100, 2) + "% of client time, " +
                       fmt(L["obs.dropped"], 0) + " events dropped");
  layer_table(fr, client, tsteps, "step", rep.report);
  rep.report.push_back("  (kernel hot loop inside dist/interior+strip: " +
                       fmt(L["kernel.ms_per_step"], 4) + " ms/step, from counters)");
  write_trace(cfg, events, rep.report);
  rep.per_layer = layer_metrics(L);
  return rep;
}

// ----------------------------------------------------------------- service --

constexpr double kServiceRate = 45.0;  ///< mean offered jobs per second
constexpr int kServiceWarmupJobs = 20;

svc::service_options service_opts() {
  svc::service_options o;
  o.pool_threads = 2;
  o.qos.enabled = true;
  // Quotas wide open: the workload measures queueing, not policing.
  o.default_quota.rate_per_second = 1e9;
  o.default_quota.burst = 1e9;
  o.default_quota.max_in_flight = 1 << 20;
  return o;
}

void distribute(api::session_options& o) {
  o.mode = api::execution_mode::distributed;
  o.sd_grid = 4;
  o.nodes = 2;
  o.threads_per_locality = 1;
}

svc::traffic_options traffic_opts(std::uint64_t seed, int arrivals) {
  svc::traffic_options t;
  t.seed = seed;
  t.arrivals = arrivals;
  t.n = 64;
  t.eps_factor = 8;
  // Class mix 30/50/20 rather than the generator's 50/30/20: with half the
  // jobs interactive (2 steps) the median job sits on the gap between the
  // 2-step and 6-step clusters and flips between them from seed to seed.
  // Here p50 falls inside the batch cluster and p90 inside the soak one.
  t.interactive_fraction = 0.3;
  t.batch_fraction = 0.5;
  // Phases 4x shorter than the generator's 0.25 s / 0.75 s, so an episode
  // holds ~25 burst cycles, not ~5: one long burst then no longer decides
  // an episode's queue wait (and with it job_p90_ms).
  t.mean_on_seconds = 0.0625;
  t.mean_off_seconds = 0.1875;
  // The generator's quiet-phase rate giving kServiceRate on average (a
  // quarter of the time in 4x bursts: mean = 1.75x quiet), so the replay
  // scale stays near 1 and the phases keep their length.
  t.mean_rate = kServiceRate /
                ((t.mean_on_seconds * t.burst_factor + t.mean_off_seconds) /
                 (t.mean_on_seconds + t.mean_off_seconds));
  return t;
}

/// Name each of the `workers` threads of `pool` (which registers its trace
/// ring now, at the current capacity): every task holds its worker until
/// all of them have started one.
void name_workers(amt::thread_pool& pool, unsigned workers) {
  std::atomic<unsigned> started{0};
  std::vector<amt::future<void>> futs;
  for (unsigned w = 0; w < workers; ++w)
    futs.push_back(amt::async(pool, [&started, workers] {
      obs::tracer::instance().set_thread_name("svc worker");
      started.fetch_add(1);
      while (started.load() < workers) std::this_thread::yield();
    }));
  for (auto& f : futs) f.wait();
}

run_report run_service(const run_config& cfg) {
  run_report rep;
  std::map<std::string, double> L;
  const int n_jobs = static_cast<int>(std::ceil(cfg.seconds * kServiceRate));

  // Set-up: the service (shared pool, ticker) and the generated trace.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = clock_type::now();
    auto s = std::make_unique<svc::service_loop>(service_opts());
    auto tr = svc::generate_traffic(traffic_opts(cfg.seed, n_jobs));
    setup.push_back(seconds_since(t0));
  }

  auto trace = svc::generate_traffic(traffic_opts(cfg.seed, n_jobs));
  for (auto& a : trace) distribute(a.job.options);
  // Replay at a fixed mean rate: stretch the trace so its span holds n_jobs
  // arrivals at kServiceRate, whatever the seed's burst pattern.
  const double scale = (n_jobs / kServiceRate) / trace.back().t;

  // Episodes: each replays its quarter of the trace into a fresh service.
  // In a traced run the second half of the last episode is traced.
  const std::size_t N = trace.size();
  const std::size_t last_begin = N * (kEpisodes - 1) / kEpisodes;
  const std::size_t traced_from = cfg.trace ? last_begin + (N - last_begin) / 2 : N;
  std::vector<double> due(N), late(N), submitted(N), done(N);
  std::vector<svc::svc_result> results(N);
  std::uint64_t shed = 0, svc_failed = 0;
  std::int64_t tw0 = 0;
  const auto origin = clock_type::now();
  auto at = [&](clock_type::time_point tp) {
    return std::chrono::duration<double>(tp - origin).count();
  };
  for (int e = 0; e < kEpisodes; ++e) {
    const std::size_t begin = N * e / kEpisodes, end = N * (e + 1) / kEpisodes;
    svc::service_loop svc(service_opts());
    if (cfg.trace && e + 1 == kEpisodes) {
      // The client and the service's workers (which also run the strips of
      // the jobs they step) get large rings; the two pool threads each job
      // spawns get small ones, since every ring lives until exit.
      configure_tracer(1u << 16);
      obs::tracer::instance().set_thread_name("client");
      name_workers(svc.pool(), svc.options().pool_threads);
      configure_tracer(8192);
    }
    {
      std::vector<amt::future<svc::svc_result>> warm;
      for (int k = 0; k < kServiceWarmupJobs; ++k) {
        const auto& a = trace[begin + static_cast<std::size_t>(k) % (end - begin)];
        warm.push_back(svc.submit(a.tenant, a.cls, a.job));
      }
      for (auto& f : warm) f.wait();
    }
    std::vector<amt::future<void>> futs;
    const auto start = clock_type::now() + std::chrono::milliseconds(5);
    for (std::size_t i = begin; i < end; ++i) {
      if (i == traced_from) {
        obs::set_tracing_enabled(true);
        tw0 = obs::tracer::instance().now_ns();
      }
      const auto& a = trace[i];
      const auto due_tp =
          start + std::chrono::duration_cast<clock_type::duration>(
                      std::chrono::duration<double>((a.t - trace[begin].t) * scale));
      std::this_thread::sleep_until(due_tp);
      const auto now = clock_type::now();
      due[i] = at(due_tp);
      submitted[i] = at(now);
      late[i] = submitted[i] - due[i];
      amt::future<svc::svc_result> f;
      {
        obs::span sp("bench/submit");
        f = svc.submit(a.tenant, a.cls, a.job);
      }
      futs.push_back(f.then([&, i](amt::future<svc::svc_result> r) {
        done[i] = at(clock_type::now());
        results[i] = r.get();
      }));
    }
    for (auto& f : futs) f.wait();
    for (const auto& c : svc.stats().per_class) {
      shed += c.shed;
      svc_failed += c.failed;
    }
  }
  obs::set_tracing_enabled(false);
  const std::int64_t tw1 = obs::tracer::instance().now_ns();
  const double rss = peak_rss_mb();

  // Output check: every ok job ran exactly its step budget.
  std::vector<char> ok(N, 0);
  std::vector<double> job_ms, job_ms_traced, queue_ms, exec_ms, late_ms;
  double ghost_bytes = 0.0, comm_wait = 0.0, steps = 0.0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const auto& a = trace[i];
    const auto& r = results[i];
    const int budget = a.job.num_steps > 0 ? a.job.num_steps : a.job.options.num_steps;
    late_ms.push_back(late[i] * 1e3);
    if (!r.ok || r.metrics.steps != budget) {
      ++failed;
      continue;
    }
    ok[i] = 1;
    const double lat = (done[i] - due[i]) * 1e3;
    (i < traced_from ? job_ms : job_ms_traced).push_back(lat);
    if (i >= traced_from) continue;
    queue_ms.push_back(r.queue_wait_seconds * 1e3);
    exec_ms.push_back((done[i] - submitted[i] - r.queue_wait_seconds) * 1e3);
    steps += budget;
    ghost_bytes += static_cast<double>(r.metrics.ghost_bytes);
    comm_wait += r.metrics.comm_wait_seconds;
  }
  rep.attempted = N;
  rep.failed = failed;
  rep.correct = failed == 0;
  rep.report.push_back("service_mmpp: " + std::to_string(N) + " jobs at " +
                       fmt(kServiceRate, 0) + " jobs/s mean (trace scale " + fmt(scale) +
                       "), " + std::to_string(failed) + " failed/shed/incorrect");
  episode_stats eps;
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    std::vector<double> step, job;
    double dp = 0.0, first_due = 1e300, last = 0.0;
    for (std::size_t i = N * e / kEpisodes; i < std::min(traced_from, N * (e + 1) / kEpisodes);
         ++i) {
      if (!ok[i]) continue;
      const double n = trace[i].job.options.n;
      dp += n * n * results[i].metrics.steps;
      step.push_back(results[i].metrics.wall_seconds * 1e3 / results[i].metrics.steps);
      job.push_back((done[i] - due[i]) * 1e3);
      first_due = std::min(first_due, due[i]);
      last = std::max(last, done[i]);
    }
    eps.add(last > first_due ? dp / (last - first_due) / 1e6 : 0.0, step, job);
  }
  rep.end_to_end = eps.report(median(setup), rss);
  if (!cfg.trace) return rep;

  // One job's session, built outside the service, for the partition and
  // build-time figures and the kernel probe on the job geometry.
  auto jopt = trace[0].job.options;
  std::vector<double> build_ms, solver_ms;
  double edge_cut = 0.0, balance = 0.0;
  nonlocal::kernel_backend backend{};
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = clock_type::now();
    api::session s(jopt);
    const double built = seconds_since(t0);
    backend = s.solver().backend();
    const double total = seconds_since(t0);
    build_ms.push_back(built * 1e3);
    solver_ms.push_back((total - built) * 1e3);
    edge_cut = s.partition_edge_cut();
    balance = s.partition_balance();
  }
  L["api.session_build_ms"] = median(build_ms);
  L["api.solver_build_ms"] = median(solver_ms);
  L["partition.edge_cut"] = edge_cut;
  L["partition.balance"] = balance;
  L["kernel.probe_mdps"] =
      probe_kernel_mdps(jopt.n, jopt.epsilon_factor, jopt.n / jopt.sd_grid, backend);
  L["net.bytes_per_step"] = ghost_bytes / steps;
  L["dist.drain_wait_ms_per_step"] = comm_wait * 1e3 / steps;
  L["svc.queue_wait_p50_ms"] = quantile(queue_ms, 0.50);
  L["svc.queue_wait_p90_ms"] = quantile(queue_ms, 0.90);
  L["svc.exec_p50_ms"] = quantile(exec_ms, 0.50);
  L["svc.shed"] = static_cast<double>(shed);
  L["svc.failed"] = static_cast<double>(svc_failed);
  L["bench.gen_late_p99_ms"] = quantile(late_ms, 0.99);
  L["fail_frac"] = static_cast<double>(failed) / static_cast<double>(N);

  auto& tr = obs::tracer::instance();
  const auto events = tr.snapshot();
  L["obs.dropped"] = static_cast<double>(tr.dropped());
  const auto fr = fold_spans(events, tw0, tw1);
  std::map<std::uint64_t, const folded_span*> job_span;
  double api_self = 0.0, api_n = 0.0, task_self = 0.0, task_n = 0.0;
  for (const auto& s : fr.spans) {
    if (std::strcmp(s.name, "svc/job") == 0) job_span[s.arg] = &s;
    if (std::strcmp(s.name, "api/step") == 0) {
      api_self += static_cast<double>(s.self_ns);
      ++api_n;
    }
    if (std::strcmp(s.name, "amt/task") == 0) {
      task_self += static_cast<double>(s.self_ns);
      ++task_n;
    }
  }
  // Decompose each traced job's latency (due -> completion seen by the
  // client): generator lateness + queue wait + the svc/job span; the rest
  // (submit path, promise hand-off) is unattributed.
  double lat_sum = 0.0, unattributed = 0.0, job_self = 0.0, jobs_seen = 0.0;
  for (std::size_t i = traced_from; i < N; ++i) {
    // seq = submission order into the last episode's service.
    const auto it = job_span.find(kServiceWarmupJobs + (i - last_begin));
    if (it == job_span.end() || !results[i].ok) continue;
    const double lat = (done[i] - due[i]) * 1e9;
    const double span_ns = static_cast<double>(it->second->end_ns - it->second->begin_ns);
    lat_sum += lat;
    unattributed += lat - late[i] * 1e9 - results[i].queue_wait_seconds * 1e9 - span_ns;
    job_self += static_cast<double>(it->second->self_ns);
    ++jobs_seen;
  }
  L["svc.job_self_ms"] = jobs_seen > 0 ? job_self / jobs_seen / 1e6 : 0.0;
  L["bench.unattributed_frac"] = lat_sum > 0 ? unattributed / lat_sum : 0.0;
  L["api.step_self_us"] = api_n > 0 ? api_self / api_n / 1e3 : 0.0;
  L["amt.task_overhead_us"] = task_n > 0 ? task_self / task_n / 1e3 : 0.0;
  L["obs.trace_overhead_frac"] =
      quantile(job_ms_traced, 0.5) / quantile(job_ms, 0.5) - 1.0;

  rep.report.push_back("traced window: " + fmt(jobs_seen, 0) + " jobs, unattributed " +
                       fmt(L["bench.unattributed_frac"] * 100, 2) + "% of job latency, " +
                       fmt(L["obs.dropped"], 0) + " events dropped");
  rep.report.push_back("per traced job: lateness + queue wait + svc/job (build, steps, teardown)");
  layer_table(fr, tid_of(fr, "bench/submit"), std::max(jobs_seen, 1.0), "job", rep.report);
  write_trace(cfg, events, rep.report);
  rep.per_layer = layer_metrics(L);
  return rep;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"solve_wide", "solve_fine", "rebalance_hotspot", "service_mmpp"};
}

run_report run_workload(const run_config& cfg) {
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end())
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  return cfg.workload == "service_mmpp" ? run_service(cfg) : run_solve(cfg);
}

}  // namespace nlh::e2e
