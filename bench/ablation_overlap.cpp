///
/// \file ablation_overlap.cpp
/// \brief Ablation for §6.3's core trick: how much exchange time does the
/// case-1/case-2 overlap hide? Two parts:
///
/// 1. The historical virtual-time sweep on the Fig. 13 configuration
///    (16x16 SDs, 8 nodes): asynchronous schedule vs a bulk-synchronous
///    runtime in the simulator.
/// 2. A **real-solver** guard: the actual dist_solver stepping under
///    injected wall-clock network latency (net::comm_world's delay model),
///    comparing the bulk_sync / coarse / per_direction schedules
///    head-to-head. One warm solver per schedule; each repetition steps
///    the three in turn, one step at a time, rotating which goes first, so
///    a phase of machine noise lands on all three; the gate reads the
///    median of the per-repetition ratios.
///    Writes BENCH_overlap.json and exits non-zero unless the
///    per-direction schedule holds its gate: at the high-latency points
///    (1e-3 s, 1e-2 s) it must not lose to the coarse schedule (all of an
///    SD's strips gated on every message the SD reads), and it must never
///    regress the bulk-synchronous baseline, each within a noise tolerance. Set NLH_BENCH_OVERLAP_JSON to redirect the report
///    (default: ./BENCH_overlap.json).
///

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/dist_solver.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

/// Deterministic per-message latency jitter in [0.6, 1.4) x base — spreads
/// the arrivals so per-direction chaining has something to exploit, the
/// way real interconnects stagger messages.
double jittered(double base, std::uint64_t tag) {
  const std::uint64_t h = (tag * 2654435761ull) >> 16;
  return base * (0.6 + 0.8 * static_cast<double>(h % 1024) / 1024.0);
}

struct real_run {
  double seconds = 0.0;  ///< wall seconds per step
  std::uint64_t early_tasks = 0;
  double wait_seconds = 0.0;
};

/// The guard's solver under `sched` with `latency` seconds of injected
/// per-message delivery delay (0 = inline), stepped once (plan compile,
/// pool spin-up, buffer pools) so timed steps run the cached plan.
std::unique_ptr<nlh::dist::dist_solver> warm_solver(nlh::dist::overlap_schedule sched,
                                                    double latency) {
  using namespace nlh;
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 4;
  cfg.sd_size = 48;
  cfg.epsilon_factor = 6;
  cfg.threads_per_locality = 1;
  cfg.schedule = sched;
  cfg.backend = nonlocal::kernel_backend::row_run;  // deterministic across hosts
  const dist::tiling t(4, 4, 48, 6);
  auto solver =
      std::make_unique<dist::dist_solver>(cfg, bench::block_ownership(t, 4));
  solver->set_initial_condition();
  if (latency > 0.0)
    solver->comm().set_delay_model([latency](int, int, std::uint64_t tag) {
      return jittered(latency, tag);
    });
  solver->step();
  return solver;
}

/// Median of `v` (odd sizes pick the middle element, so the median of
/// reciprocals is the reciprocal of the median).
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// JSON array of `v` with 3 decimals.
std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char num[32];
    std::snprintf(num, sizeof(num), "%s%.3f", i ? ", " : "", v[i]);
    out += num;
  }
  return out + "]";
}

}  // namespace

int main() {
  using namespace nlh;

  // ---- Part 1: the historical virtual-time ablation --------------------
  const dist::tiling t(16, 16, 50, 8);
  const int nodes = 8;
  const int steps = 20;
  const double sec_per_dp = bench::measure_seconds_per_dp(8);
  const auto own = bench::metis_ownership(t, nodes);

  std::cout << "Ablation — communication hiding (case-2-first overlap) vs "
               "bulk-synchronous execution\n"
            << "800x800 mesh, 16x16 SDs, 8 nodes, 20 steps; kernel: "
            << sec_per_dp * 1e9 << " ns/DP-update\n\n";

  support::table tab({"latency", "overlap makespan s", "bulk-sync makespan s",
                      "overlap wins by"});
  for (double latency : {2e-6, 1e-4, 1e-3, 1e-2}) {
    auto cluster = bench::skylake_cluster(1, sec_per_dp);
    bench::set_uniform_speed(cluster, nodes, sec_per_dp);
    cluster.net.latency_s = latency;

    auto cost = bench::dp_cost_model();
    cost.overlap = true;
    const auto on = dist::simulate_timestepping(t, own, steps, cost, cluster);
    cost.overlap = false;
    const auto off = dist::simulate_timestepping(t, own, steps, cost, cluster);

    tab.row()
        .add(support::fmt_double(latency * 1e6, 3) + " us")
        .add(on.makespan, 4)
        .add(off.makespan, 4)
        .add(support::fmt_double((off.makespan / on.makespan - 1.0) * 100.0, 3) + " %");
  }
  tab.print(std::cout);

  // ---- Part 2: real-solver schedule guard ------------------------------
  // One warm solver per schedule; each repetition steps the three in turn,
  // one step each, rotating which one goes first, and yields one ratio per
  // pair of schedules; the gate reads the median ratio. A noisy phase of a
  // shared VM that outlasts a few steps thus slows all three schedules
  // alike, where comparing separately timed runs would let it land on one.
  constexpr int reps = 21;
  std::cout << "\nReal-solver schedule comparison (4x4 SDs of 48x48 DPs, "
               "ghost 6, 4 localities,\nrow_run kernel, jittered injected "
               "latency; "
            << reps
            << " interleaved repetitions x 8 steps, medians):\n\n";

  const dist::overlap_schedule schedules[3] = {dist::overlap_schedule::bulk_sync,
                                               dist::overlap_schedule::coarse,
                                               dist::overlap_schedule::per_direction};
  struct point {
    double latency;
    real_run bulk, coarse, perdir;      ///< per-field medians over the reps
    std::vector<double> vs_coarse_reps;  ///< coarse / per_direction, per rep
    std::vector<double> vs_bulk_reps;    ///< bulk_sync / per_direction, per rep
    double vs_coarse = 0.0, vs_bulk = 0.0;  ///< medians of the above
  };
  std::vector<point> points;
  for (double latency : {0.0, 1e-3, 1e-2}) {
    const int msteps = latency >= 1e-2 ? 6 : 8;
    point p;
    p.latency = latency;
    std::unique_ptr<dist::dist_solver> solvers[3];
    for (int s = 0; s < 3; ++s) solvers[s] = warm_solver(schedules[s], latency);
    std::vector<double> secs[3], early, wait;
    for (int r = 0; r < reps; ++r) {
      double rep_s[3] = {0.0, 0.0, 0.0};
      const auto pd0 = solvers[2]->stats();
      for (int k = 0; k < msteps; ++k)
        for (int j = 0; j < 3; ++j) {
          const int s = (r + k + j) % 3;
          support::stopwatch sw;
          solvers[s]->step();
          rep_s[s] += sw.elapsed_s();
        }
      const auto pd1 = solvers[2]->stats();
      for (int s = 0; s < 3; ++s) secs[s].push_back(rep_s[s] / msteps);
      early.push_back(static_cast<double>((pd1.interior_early + pd1.strips_early) -
                                          (pd0.interior_early + pd0.strips_early)));
      wait.push_back(pd1.wait_seconds - pd0.wait_seconds);
      p.vs_coarse_reps.push_back(rep_s[1] / rep_s[2]);
      p.vs_bulk_reps.push_back(rep_s[0] / rep_s[2]);
    }
    p.bulk.seconds = median(secs[0]);
    p.coarse.seconds = median(secs[1]);
    p.perdir.seconds = median(secs[2]);
    p.perdir.early_tasks = static_cast<std::uint64_t>(median(early));
    p.perdir.wait_seconds = median(wait);
    p.vs_coarse = median(p.vs_coarse_reps);
    p.vs_bulk = median(p.vs_bulk_reps);
    points.push_back(p);
  }

  support::table rtab({"latency", "bulk_sync s/step", "coarse s/step",
                       "per_direction s/step", "pd vs coarse", "pd vs bulk"});
  for (const auto& p : points)
    rtab.row()
        .add(support::fmt_double(p.latency * 1e3, 3) + " ms")
        .add(p.bulk.seconds, 6)
        .add(p.coarse.seconds, 6)
        .add(p.perdir.seconds, 6)
        .add(support::fmt_double(p.vs_coarse, 3) + "x")
        .add(support::fmt_double(p.vs_bulk, 3) + "x");
  rtab.print(std::cout);

  // Gate: per_direction must hold coarse at the high-latency points and
  // never regress bulk_sync, on the median per-repetition ratio.
  // Tolerances are sized for shared CI runners (oversubscribed vCPUs, a
  // handful of steps per run): 10% at the latency points, where the
  // schedules genuinely separate (pd beats bulk_sync by 14-22% on an idle
  // machine); 25% at zero latency, where the whole step is sub-10ms of pure
  // task overhead and the comparison measures scheduler noise, not
  // communication hiding.
  constexpr double tol = 1.10;
  constexpr double tol_zero = 1.25;
  bool pass = true;
  std::string rows;
  for (const auto& p : points) {
    const bool high_latency = p.latency >= 1e-3;
    // per_direction <= other * tol, read as other / per_direction >= 1 / tol.
    const bool beats_coarse = p.vs_coarse * tol >= 1.0;
    const bool beats_bulk = p.vs_bulk * (high_latency ? tol : tol_zero) >= 1.0;
    if (high_latency && !beats_coarse) pass = false;
    if (!beats_bulk) pass = false;

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"latency_s\": %g, \"bulk_sync_s_per_step\": %.6f, "
                  "\"coarse_s_per_step\": %.6f, \"per_direction_s_per_step\": "
                  "%.6f, \"pd_vs_coarse\": %.3f, \"pd_vs_bulk\": %.3f, "
                  "\"pd_early_tasks\": %llu, \"pd_wait_seconds\": %.4f, ",
                  p.latency, p.bulk.seconds, p.coarse.seconds, p.perdir.seconds,
                  p.vs_coarse, p.vs_bulk,
                  static_cast<unsigned long long>(p.perdir.early_tasks),
                  p.perdir.wait_seconds);
    if (!rows.empty()) rows += ",\n";
    rows += row;
    rows += "\"pd_vs_coarse_reps\": " + json_array(p.vs_coarse_reps) +
            ", \"pd_vs_bulk_reps\": " + json_array(p.vs_bulk_reps) + "}";
  }

  const char* env = std::getenv("NLH_BENCH_OVERLAP_JSON");
  const char* path = env ? env : "BENCH_overlap.json";
  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "overlap guard: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"ablation_overlap\",\n"
               "  \"config\": {\"sd_grid\": 4, \"sd_size\": 48, \"ghost\": 6, "
               "\"nodes\": 4, \"backend\": \"row_run\"},\n"
               "  \"gate\": \"per_direction <= coarse * %.2f and <= bulk_sync * "
               "%.2f at latency >= 1e-3; <= bulk_sync * 1.25 at zero latency; "
               "on the median of the per-repetition ratios\",\n"
               "  \"pass\": %s,\n"
               "  \"results\": [\n%s\n  ]\n"
               "}\n",
               tol, tol, pass ? "true" : "false", rows.c_str());
  std::fclose(fp);

  std::cout << "\nTakeaway: at realistic interconnect latencies the overlap "
               "fully hides the exchange;\nas latency grows, the "
               "bulk-synchronous schedule pays it on the critical path every "
               "step\nwhile the asynchronous schedules keep computing — and "
               "the per-direction schedule\nstarts each boundary strip the "
               "moment its own ghost lands (paper §6.3, docs/overlap.md).\n"
            << "\n  guard " << (pass ? "PASS" : "FAIL") << " -> " << path << "\n";
  return pass ? 0 : 1;
}
