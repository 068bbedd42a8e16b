///
/// \file micro_obs.cpp
/// \brief google-benchmark microbenchmarks of the observability layer — the
/// per-event cost of spans/instants (enabled and disabled) and of histogram
/// recording — plus a self-contained guard pass that steps one distributed
/// solver with tracing off and on and writes BENCH_obs.json.
///
/// The guard is the regression fence for the "low-overhead tracing" claim
/// (docs/observability.md): the process exits non-zero when the traced
/// per-step time exceeds the untraced one by more than 5%. Each repetition
/// interleaves traced and untraced steps one by one, so scheduler noise and
/// thermal drift hit both sides alike, and the gate takes the median of the
/// per-repetition ratios. Set NLH_BENCH_OBS_JSON to redirect the report
/// (default: ./BENCH_obs.json).
///

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/dist_solver.hpp"
#include "dist/ownership.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/stopwatch.hpp"

namespace obs = nlh::obs;
namespace dist = nlh::dist;

static void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::set_tracing_enabled(false);
  for (auto _ : state) {
    NLH_TRACE_SPAN("bench/span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

static void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  for (auto _ : state) {
    NLH_TRACE_SPAN("bench/span");
    benchmark::ClobberMemory();
  }
  obs::set_tracing_enabled(false);
  obs::tracer::instance().clear();
}
BENCHMARK(BM_ObsSpanEnabled);

static void BM_ObsInstantEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  std::uint64_t i = 0;
  for (auto _ : state) {
    NLH_TRACE_INSTANT("bench/instant", i++);
    benchmark::ClobberMemory();
  }
  obs::set_tracing_enabled(false);
  obs::tracer::instance().clear();
}
BENCHMARK(BM_ObsInstantEnabled);

static void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::histogram h;
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.1 : 1e-6;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsHistogramRecord);

static void BM_ObsCounterAdd(benchmark::State& state) {
  obs::counter c;
  for (auto _ : state) {
    c.add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterAdd);

// -------------------------------------------------------------- guard pass --

namespace {

/// Seconds of one step of `solver` with tracing `traced`.
double timed_step(dist::dist_solver& solver, bool traced) {
  obs::set_tracing_enabled(traced);
  nlh::support::stopwatch sw;
  solver.step();
  return sw.elapsed_s();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Step one distributed solver with tracing off and on, interleaved step by
/// step, and write the guard JSON. Returns true when the median
/// per-repetition traced/untraced ratio stays within `max_overhead` of 1.
bool run_obs_guard(const char* path) {
  constexpr double max_overhead = 0.05;
  constexpr int reps = 21;
  constexpr int steps_per_rep = 20;

  // Realistic task granularity: 24x24-DP SDs keep each compute task in the
  // tens-of-microseconds range, so the per-event cost is amortized the way
  // it is in a production step (tiny 8x8 SDs would measure the tracer, not
  // the solver, and read 2-3x higher). One thread per locality avoids
  // oversubscription noise on small CI runners.
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 8;
  cfg.sd_size = 24;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 1;
  const int nodes = 2;
  // Row-banded ownership: top half of the SD rows on locality 0, bottom on
  // locality 1, giving one full cross-locality frontier of ghost traffic.
  const dist::tiling t(cfg.sd_rows, cfg.sd_cols, cfg.sd_size, cfg.epsilon_factor);
  std::vector<int> owner(static_cast<std::size_t>(t.num_sds()));
  for (int sd = 0; sd < t.num_sds(); ++sd)
    owner[static_cast<std::size_t>(sd)] =
        (sd / cfg.sd_cols) < cfg.sd_rows / 2 ? 0 : 1;
  dist::dist_solver solver(cfg, dist::ownership_map(t, nodes, std::move(owner)));
  solver.set_initial_condition();

  // Warm-up: plan compile, buffer pools, pool spin-up, and (traced) the
  // first event of every ring, which allocates its storage.
  for (int k = 0; k < 10; ++k) timed_step(solver, k % 2 == 1);

  // Each rep steps the two modes alternately, step by step, with the order
  // of every pair alternating too, so drift and load spikes within a rep
  // hit both sides alike; it contributes one traced/untraced ratio of its
  // summed step times. The gate takes the median ratio over the reps,
  // which a spike on either side cannot move far. Rings are cleared at
  // each rep's start so every rep pays the same (no-wrap) recording cost.
  std::vector<double> ratios, untraced_ms, traced_ms;
  std::size_t events = 0;
  for (int r = 0; r < reps; ++r) {
    obs::tracer::instance().clear();
    double u = 0.0, tr = 0.0;
    for (int k = 0; k < steps_per_rep; ++k) {
      const bool traced_first = (r + k) % 2 == 0;
      const double first = timed_step(solver, traced_first);
      const double second = timed_step(solver, !traced_first);
      tr += traced_first ? first : second;
      u += traced_first ? second : first;
    }
    obs::set_tracing_enabled(false);
    events = obs::tracer::instance().snapshot().size();
    ratios.push_back(tr / u);
    untraced_ms.push_back(u / steps_per_rep * 1e3);
    traced_ms.push_back(tr / steps_per_rep * 1e3);
  }
  obs::tracer::instance().clear();
  const double events_per_step = static_cast<double>(events) / steps_per_rep;
  const double untraced = median(untraced_ms);
  const double traced = median(traced_ms);

  const double overhead = median(ratios) - 1.0;
  const bool pass = overhead <= max_overhead;

  std::printf("\nobs guard (%dx%d SDs, sd_size %d, %d localities x %d threads, "
              "%d reps x %d step pairs):\n",
              cfg.sd_rows, cfg.sd_cols, cfg.sd_size, nodes,
              cfg.threads_per_locality, reps, steps_per_rep);
  std::printf("  untraced %8.3f ms/step   traced %8.3f ms/step   median "
              "overhead %+.2f%% (gate %.0f%%)   ~%.0f events/step\n",
              untraced, traced, overhead * 100.0, max_overhead * 100.0,
              events_per_step);

  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "obs guard: cannot open %s\n", path);
    return false;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"micro_obs\",\n"
               "  \"reps\": %d,\n"
               "  \"steps_per_rep\": %d,\n"
               "  \"untraced_ms_per_step\": %.4f,\n"
               "  \"traced_ms_per_step\": %.4f,\n"
               "  \"events_per_step\": %.1f,\n"
               "  \"overhead_fraction\": %.4f,\n"
               "  \"max_overhead_fraction\": %.2f,\n"
               "  \"ratios\": [",
               reps, steps_per_rep, untraced, traced, events_per_step, overhead,
               max_overhead);
  for (std::size_t i = 0; i < ratios.size(); ++i)
    std::fprintf(fp, "%s%.4f", i ? ", " : "", ratios[i]);
  std::fprintf(fp, "],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(fp);
  std::printf("  guard %s -> %s\n", pass ? "PASS" : "FAIL", path);
  return pass;
}

}  // namespace

/// Custom main (this target links plain benchmark::benchmark, not
/// benchmark_main): the usual google-benchmark run, then the guard pass.
/// The guard is skipped when a --benchmark_filter excludes the obs
/// benchmarks, so filtered runs keep their exit code without paying the
/// measurement pass.
int main(int argc, char** argv) {
  bool guard_wanted = true;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const std::string prefix = "--benchmark_filter=";
    if (arg.rfind(prefix, 0) == 0) {
      const std::string filter = arg.substr(prefix.size());
      guard_wanted = filter.empty() || filter == "all" || filter == ".*" ||
                     filter.find("Obs") != std::string::npos;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!guard_wanted) return 0;
  const char* path = std::getenv("NLH_BENCH_OBS_JSON");
  return run_obs_guard(path ? path : "BENCH_obs.json") ? 0 : 1;
}
