///
/// \file fig09_strong_shared.cpp
/// \brief Reproduces paper Fig. 9: strong scaling of the asynchronous
/// shared-memory solver. Fixed 400x400 mesh, epsilon = 8h, 20 timesteps;
/// the mesh is split into 1x1 / 2x2 / 4x4 / 8x8 SDs and executed on 1, 2
/// and 4 CPUs. Speedup baseline is the 1-CPU run of the same decomposition.
///
/// Per DESIGN.md, CPUs are virtual: per-SD task costs are calibrated from
/// the real measured kernel and the task DAG is scheduled in virtual time,
/// so the figure does not depend on how many cores the machine running it
/// has.
///

#include <iostream>

#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace nlh;
  const int mesh = 400;
  const int eps_factor = 8;
  const int steps = 20;
  const double sec_per_dp = bench::measure_seconds_per_dp(eps_factor);

  std::cout << "Fig. 9 — strong scaling, shared memory (asynchronous)\n"
            << "mesh 400x400, epsilon = 8h, 20 steps; calibrated kernel: "
            << sec_per_dp * 1e9 << " ns/DP-update\n\n";

  support::table tab({"#SDs", "SD size", "T(1CPU) s", "speedup 1CPU",
                      "speedup 2CPU", "speedup 4CPU"});
  for (int grid : {1, 2, 4, 8}) {
    const int sd_size = mesh / grid;
    const dist::tiling t(grid, grid, sd_size, eps_factor);
    const auto own = dist::ownership_map::single_node(t);
    const auto cost = bench::dp_cost_model();

    double t1 = 0.0;
    std::vector<double> speedups;
    for (int cpus : {1, 2, 4}) {
      auto cluster = bench::skylake_cluster(cpus, sec_per_dp);
      bench::set_uniform_speed(cluster, 1, sec_per_dp);
      const auto res = dist::simulate_timestepping(t, own, steps, cost, cluster);
      if (cpus == 1) t1 = res.makespan;
      speedups.push_back(t1 / res.makespan);
    }
    tab.row()
        .add(grid * grid)
        .add(std::to_string(sd_size) + "x" + std::to_string(sd_size))
        .add(t1, 4)
        .add(speedups[0], 3)
        .add(speedups[1], 3)
        .add(speedups[2], 3);
  }
  tab.print(std::cout);
  std::cout
      << "\nPaper shape: one SD cannot scale (speedup 1 everywhere); with "
         "enough SDs the\nspeedup approaches the CPU count — linear "
         "dependence on the number of CPUs.\n";
  return 0;
}
