///
/// \file micro_kernel.cpp
/// \brief google-benchmark microbenchmarks of the nonlocal kernel — DP-update
/// throughput vs horizon factor, SD size, influence function and backend —
/// plus a self-contained guard pass that measures the scalar / row_run /
/// simd / avx512 backends head-to-head and writes BENCH_kernel.json.
///
/// The guard has three fences. The relative pass ("SIMD stencil kernel")
/// requires the best vectorized backend to sustain >= 1.5x the scalar
/// entry-list throughput at every epsilon factor >= 4. The blocked pass
/// ("Cache-blocked kernels for large stencils") gates absolute MDPS and the
/// blocked-vs-unblocked paired ratio in the large-stencil regime (eps >= 8)
/// on a grid big enough that the input window leaves L1d. The split-SD
/// pass applies one SD as its per_direction interior + halo strips and
/// gates avx512's split/whole MDPS ratio, which only holds when the narrow
/// strips run at vector speed. The process exits non-zero unless all three
/// fences hold.
/// Set NLH_BENCH_KERNEL_JSON to redirect the report (default:
/// ./BENCH_kernel.json).
///

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/tiling.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/problem.hpp"
#include "nonlocal/stencil.hpp"
#include "support/stopwatch.hpp"

namespace nl = nlh::nonlocal;

static void BM_KernelVsEpsilon(benchmark::State& state) {
  const int eps_factor = static_cast<int>(state.range(0));
  const int n = 64;
  nl::grid2d grid(n, static_cast<double>(eps_factor) / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1e-3 * static_cast<double>(i % 101);
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.counters["stencil_size"] = static_cast<double>(st.size());
}
BENCHMARK(BM_KernelVsEpsilon)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Head-to-head backend comparison at a fixed horizon: range(0) is the
/// epsilon factor, range(1) the kernel_backend enum value.
static void BM_KernelBackends(benchmark::State& state) {
  const int eps_factor = static_cast<int>(state.range(0));
  const auto backend = static_cast<nl::kernel_backend>(state.range(1));
  const int n = 96;
  nl::grid2d grid(n, static_cast<double>(eps_factor) / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1e-3 * static_cast<double>(i % 101);
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator_raw(u.data(), out.data(), grid.stride(), grid.ghost(),
                                    plan, 1.0, all, backend);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetLabel(nl::kernel_backend_name(backend));
}
BENCHMARK(BM_KernelBackends)
    ->ArgsProduct({{2, 4, 8, 16},
                   {static_cast<long>(nl::kernel_backend::scalar),
                    static_cast<long>(nl::kernel_backend::row_run),
                    static_cast<long>(nl::kernel_backend::simd),
                    static_cast<long>(nl::kernel_backend::avx512)}});

static void BM_KernelVsBlockSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelVsBlockSize)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

static void BM_KernelInfluenceKinds(benchmark::State& state) {
  const auto kind = static_cast<nl::influence_kind>(state.range(0));
  const int n = 64;
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J(kind);
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelInfluenceKinds)->Arg(0)->Arg(1)->Arg(2);

static void BM_ManufacturedSource(benchmark::State& state) {
  const int n = 64;
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J;
  nl::stencil st(grid, J);
  const double c = J.scaling_constant(1.0, grid.epsilon());
  nl::manufactured_problem prob(grid, st, c);
  auto w = prob.exact_field(0.25);
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    prob.source_into(0.25, w, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ManufacturedSource);

// -------------------------------------------------------------- guard pass --

namespace {

/// Million DP updates per second for one backend applying `rects` (one
/// kernel call each; default: the whole grid as one rect), self-calibrating
/// the repetition count to ~25 ms of measurement.
double measure_mdps(const nl::grid2d& grid, const nl::stencil_plan& plan,
                    const std::vector<double>& u, std::vector<double>& out,
                    nl::kernel_backend backend,
                    std::vector<nl::dp_rect> rects = {}) {
  if (rects.empty()) rects.push_back({0, grid.n(), 0, grid.n()});
  long long dps_per_rep = 0;
  for (const auto& r : rects) dps_per_rep += r.area();
  auto apply = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      for (const auto& rect : rects)
        nl::apply_nonlocal_operator_raw(u.data(), out.data(), grid.stride(),
                                        grid.ghost(), plan, 1.0, rect, backend);
      benchmark::DoNotOptimize(out.data());
    }
  };
  apply(1);  // warm-up
  int reps = 1;
  double elapsed = 0.0;
  for (;;) {
    nlh::support::stopwatch sw;
    apply(reps);
    elapsed = sw.elapsed_s();
    if (elapsed >= 0.025 || reps > (1 << 24)) break;
    reps *= 2;
  }
  const double dp = static_cast<double>(reps) * static_cast<double>(dps_per_rep);
  return dp / elapsed / 1e6;
}

/// Relative fence (ROADMAP "SIMD stencil kernel"): measure every backend at
/// every epsilon factor on a small grid and require the best vectorized
/// backend to clear 1.5x the scalar entry-list throughput at every factor
/// >= 4. Appends one JSON row per factor to `rows`.
bool run_relative_guard(std::string& rows, double& min_best_speedup_ge4) {
  const int n = 96;
  const int factors[] = {2, 4, 8, 16};
  constexpr double required_speedup = 1.5;

  bool pass = true;
  bool have_ge4 = false;
  min_best_speedup_ge4 = 0.0;

  std::printf("\nkernel guard, relative pass (n=%d, simd %s, avx512 %s):\n", n,
              nl::kernel_simd_available() ? "available" : "unavailable",
              nl::kernel_avx512_available() ? "available" : "unavailable");
  for (const int f : factors) {
    nl::grid2d grid(n, static_cast<double>(f) / n);
    nl::influence J;
    nl::stencil st(grid, J);
    nl::stencil_plan plan(st);
    auto u = grid.make_field();
    auto out = grid.make_field();
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = 1e-3 * static_cast<double>(i % 101);

    const double scalar = measure_mdps(grid, plan, u, out, nl::kernel_backend::scalar);
    const double row_run = measure_mdps(grid, plan, u, out, nl::kernel_backend::row_run);
    const double simd = measure_mdps(grid, plan, u, out, nl::kernel_backend::simd);
    const double avx512 = measure_mdps(grid, plan, u, out, nl::kernel_backend::avx512);
    const double best = std::max({row_run, simd, avx512});
    const double best_speedup = best / scalar;

    if (f >= 4) {
      if (!have_ge4 || best_speedup < min_best_speedup_ge4)
        min_best_speedup_ge4 = best_speedup;
      have_ge4 = true;
      if (best_speedup < required_speedup) pass = false;
    }

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"eps_factor\": %d, \"stencil_size\": %zu, "
                  "\"scalar_mdps\": %.2f, \"row_run_mdps\": %.2f, "
                  "\"simd_mdps\": %.2f, \"avx512_mdps\": %.2f, "
                  "\"row_run_speedup\": %.3f, \"simd_speedup\": %.3f, "
                  "\"avx512_speedup\": %.3f}",
                  f, st.size(), scalar, row_run, simd, avx512,
                  row_run / scalar, simd / scalar, avx512 / scalar);
    if (!rows.empty()) rows += ",\n";
    rows += row;
    std::printf("  eps=%2d  scalar %8.2f  row_run %8.2f (%.2fx)  simd %8.2f "
                "(%.2fx)  avx512 %8.2f (%.2fx) MDP/s\n",
                f, scalar, row_run, row_run / scalar, simd, simd / scalar,
                avx512, avx512 / scalar);
  }
  return pass;
}

/// Absolute fence for the blocked pipeline (ROADMAP "Cache-blocked kernels
/// for large stencils"): at a large grid, pit the best available backend on
/// its default blocked plan against the pre-blocking baseline — the simd
/// backend on an unblocked (single-block) plan — with alternating paired
/// measurements, and gate on the min of the paired ratios plus an absolute
/// MDPS floor. Thresholds are calibrated to the repo's CI hardware (see
/// docs/kernels.md): with AVX-512 live the deep regime (eps=16, input
/// window past L1d) must clear 2x the unblocked simd baseline; eps=8 still
/// fits L1d, is FMA-bound rather than memory-bound, and fences at 1.25x.
/// Without AVX-512 the gate degrades to "blocking is not a regression".
bool run_blocked_guard(std::string& rows) {
  const int n = 768;
  const int factors[] = {8, 16};
  const int pairs = 3;
  const bool avx512 = nl::kernel_avx512_available();
  const nl::kernel_backend best_backend =
      avx512 ? nl::kernel_backend::avx512 : nl::kernel_backend::simd;

  bool pass = true;
  std::printf("\nkernel guard, blocked pass (n=%d, best backend %s):\n", n,
              nl::kernel_backend_name(best_backend));
  for (const int f : factors) {
    const double required_ratio = avx512 ? (f >= 16 ? 2.0 : 1.25) : 0.85;
    const double required_mdps = avx512 ? (f >= 16 ? 15.0 : 40.0)
                                        : (f >= 16 ? 5.0 : 20.0);

    nl::grid2d grid(n, static_cast<double>(f) / n);
    nl::influence J;
    nl::stencil st(grid, J);
    nl::stencil_plan blocked(st);  // default cache-derived geometry
    nl::stencil_plan unblocked(st);
    unblocked.set_tuning(nl::kernel_tuning_unblocked());
    auto u = grid.make_field();
    auto out = grid.make_field();
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = 1e-3 * static_cast<double>(i % 101);

    double min_ratio = 0.0;
    double best_blocked = 0.0;
    double best_unblocked = 0.0;
    for (int p = 0; p < pairs; ++p) {
      // Alternate within the pair so drift (thermal, turbo, noisy
      // neighbors) hits both sides instead of biasing the ratio.
      const double ub =
          measure_mdps(grid, unblocked, u, out, nl::kernel_backend::simd);
      const double bl = measure_mdps(grid, blocked, u, out, best_backend);
      const double ratio = bl / ub;
      if (p == 0 || ratio < min_ratio) min_ratio = ratio;
      best_blocked = std::max(best_blocked, bl);
      best_unblocked = std::max(best_unblocked, ub);
    }

    const bool ok = min_ratio >= required_ratio && best_blocked >= required_mdps;
    if (!ok) pass = false;

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"eps_factor\": %d, \"best_backend\": \"%s\", "
                  "\"col_tile\": %d, \"row_block\": %d, "
                  "\"unblocked_simd_mdps\": %.2f, \"blocked_best_mdps\": %.2f, "
                  "\"blocked_vs_unblocked_min_paired_ratio\": %.3f, "
                  "\"required_ratio\": %.2f, \"required_mdps\": %.1f, "
                  "\"pass\": %s}",
                  f, nl::kernel_backend_name(best_backend),
                  blocked.blocking().col_tile, blocked.blocking().row_block,
                  best_unblocked, best_blocked, min_ratio, required_ratio,
                  required_mdps, ok ? "true" : "false");
    if (!rows.empty()) rows += ",\n";
    rows += row;
    std::printf("  eps=%2d  unblocked simd %8.2f  blocked %s %8.2f  "
                "min paired ratio %.2fx (need %.2fx, floor %.0f MDP/s) %s\n",
                f, best_unblocked, nl::kernel_backend_name(best_backend),
                best_blocked, min_ratio, required_ratio, required_mdps,
                ok ? "ok" : "FAIL");
  }
  return pass;
}

/// Narrow-rect fence: one SD whose eight neighbors all live on another
/// locality, cut the way the per_direction schedule cuts it — the case-2
/// interior plus every epsilon-wide case-1 strip, one kernel call each —
/// against the same SD applied as one rect. The strips are eps columns or
/// rows wide, so this is where a backend's narrow-column path shows.
/// Every backend's split and whole MDPS are reported; avx512 (when the CPU
/// runs it) is gated on the min of paired split/whole ratios, with floors
/// well below the measured ratios (docs/kernels.md): 0.51-0.93 for the
/// 64x64 SD at eps 8 (a scalar tail gave 0.10), 0.14-0.19 for the 8x8 SD
/// at eps 2, where every strip is two DPs thin and the fixed cost of a
/// kernel call on a 4-16 DP rect dominates.
bool run_split_guard(std::string& rows) {
  struct split_case {
    int sd_size;
    int eps_factor;
    double required_ratio;
  };
  const split_case cases[] = {{64, 8, 0.35}, {8, 2, 0.08}};
  const int pairs = 3;
  const bool avx512 = nl::kernel_avx512_available();

  bool pass = true;
  std::printf("\nkernel guard, split-SD pass (per_direction case split, "
              "all 8 neighbors remote):\n");
  for (const auto& sc : cases) {
    nl::grid2d grid(sc.sd_size, static_cast<double>(sc.eps_factor) / sc.sd_size);
    nl::influence J;
    nl::stencil st(grid, J);
    nl::stencil_plan plan(st);
    auto u = grid.make_field();
    auto out = grid.make_field();
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = 1e-3 * static_cast<double>(i % 101);

    // 3x3 SDs, the center one on locality 0 and its ring on locality 1.
    const nlh::dist::tiling t(3, 3, sc.sd_size, grid.ghost());
    std::vector<int> owner(9, 1);
    owner[4] = 0;
    std::vector<nl::dp_rect> split{nlh::dist::compute_case_split(t, 4, owner).interior};
    for (const auto& strip : nlh::dist::compute_fine_strips(t, 4, owner))
      split.push_back(strip.rect);

    char row[768];
    int len = std::snprintf(row, sizeof(row),
                            "    {\"sd_size\": %d, \"eps_factor\": %d, "
                            "\"rects\": %zu",
                            sc.sd_size, sc.eps_factor, split.size());
    std::printf("  sd=%2d eps=%d (%zu rects):", sc.sd_size, sc.eps_factor,
                split.size());
    for (const auto b : {nl::kernel_backend::scalar, nl::kernel_backend::row_run,
                         nl::kernel_backend::simd, nl::kernel_backend::avx512}) {
      const double whole = measure_mdps(grid, plan, u, out, b);
      const double parts = measure_mdps(grid, plan, u, out, b, split);
      len += std::snprintf(row + len, sizeof(row) - static_cast<std::size_t>(len),
                           ", \"%s_whole_mdps\": %.2f, \"%s_split_mdps\": %.2f",
                           nl::kernel_backend_name(b), whole,
                           nl::kernel_backend_name(b), parts);
      std::printf("  %s %.1f/%.1f", nl::kernel_backend_name(b), parts, whole);
    }

    double min_ratio = 0.0;
    if (avx512) {
      for (int p = 0; p < pairs; ++p) {
        const double whole =
            measure_mdps(grid, plan, u, out, nl::kernel_backend::avx512);
        const double parts =
            measure_mdps(grid, plan, u, out, nl::kernel_backend::avx512, split);
        const double ratio = parts / whole;
        if (p == 0 || ratio < min_ratio) min_ratio = ratio;
      }
    }
    const bool ok = !avx512 || min_ratio >= sc.required_ratio;
    if (!ok) pass = false;
    std::snprintf(row + len, sizeof(row) - static_cast<std::size_t>(len),
                  ", \"avx512_split_vs_whole_min_paired_ratio\": %.3f, "
                  "\"required_ratio\": %.2f, \"gated\": %s, \"pass\": %s}",
                  min_ratio, sc.required_ratio, avx512 ? "true" : "false",
                  ok ? "true" : "false");
    if (!rows.empty()) rows += ",\n";
    rows += row;
    std::printf(" MDP/s split/whole\n    avx512 min paired split/whole %.2f "
                "(need %.2f) %s\n",
                min_ratio, sc.required_ratio,
                avx512 ? (ok ? "ok" : "FAIL") : "not gated (no avx512)");
  }
  return pass;
}

/// Run the three guard passes and write BENCH_kernel.json. The process exit
/// code is the AND of the fences.
bool run_kernel_guard(const char* path) {
  std::string relative_rows;
  double min_best_speedup_ge4 = 0.0;
  const bool relative_pass = run_relative_guard(relative_rows, min_best_speedup_ge4);

  std::string blocked_rows;
  const bool blocked_pass = run_blocked_guard(blocked_rows);

  std::string split_rows;
  const bool split_pass = run_split_guard(split_rows);
  const bool pass = relative_pass && blocked_pass && split_pass;

  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "kernel guard: cannot open %s\n", path);
    return false;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"micro_kernel\",\n"
               "  \"n\": 96,\n"
               "  \"simd_available\": %s,\n"
               "  \"simd_compiled_level\": %d,\n"
               "  \"avx512_available\": %s,\n"
               "  \"avx512_compiled_level\": %d,\n"
               "  \"required_speedup_at_eps_ge_4\": 1.50,\n"
               "  \"min_best_speedup_at_eps_ge_4\": %.3f,\n"
               "  \"relative_pass\": %s,\n"
               "  \"results\": [\n%s\n  ],\n"
               "  \"blocked_gate\": {\n"
               "    \"n\": 768,\n"
               "    \"paired_measurements\": 3,\n"
               "    \"pass\": %s,\n"
               "    \"results\": [\n%s\n    ]\n"
               "  },\n"
               "  \"split_gate\": {\n"
               "    \"paired_measurements\": 3,\n"
               "    \"pass\": %s,\n"
               "    \"results\": [\n%s\n    ]\n"
               "  },\n"
               "  \"pass\": %s\n"
               "}\n",
               nl::kernel_simd_available() ? "true" : "false",
               nl::kernel_simd_compiled_level(),
               nl::kernel_avx512_available() ? "true" : "false",
               nl::kernel_avx512_compiled_level(), min_best_speedup_ge4,
               relative_pass ? "true" : "false", relative_rows.c_str(),
               blocked_pass ? "true" : "false", blocked_rows.c_str(),
               split_pass ? "true" : "false", split_rows.c_str(),
               pass ? "true" : "false");
  std::fclose(fp);
  std::printf("  guard %s -> %s\n", pass ? "PASS" : "FAIL", path);
  return pass;
}

}  // namespace

/// Custom main (this target links plain benchmark::benchmark, not
/// benchmark_main): the usual google-benchmark run, then the guard pass.
/// The guard is skipped when a --benchmark_filter excludes the backend
/// comparison, so filtered runs of unrelated benchmarks keep their exit
/// code and don't pay the measurement pass.
int main(int argc, char** argv) {
  bool guard_wanted = true;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const std::string prefix = "--benchmark_filter=";
    if (arg.rfind(prefix, 0) == 0) {
      const std::string filter = arg.substr(prefix.size());
      guard_wanted = filter.empty() || filter == "all" || filter == ".*" ||
                     filter.find("KernelBackends") != std::string::npos;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!guard_wanted) return 0;
  const char* path = std::getenv("NLH_BENCH_KERNEL_JSON");
  return run_kernel_guard(path ? path : "BENCH_kernel.json") ? 0 : 1;
}
