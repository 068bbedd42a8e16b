// Tests for the library extensions beyond the paper's baseline: the
// bulk-synchronous baseline mode, networking performance counters (the
// paper's future-work item), the forward-Euler time integrator's order and
// stability, and dynamic workload rebalancing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/session.hpp"
#include "balance/sim_driver.hpp"
#include "dist/dist_solver.hpp"
#include "dist/sim_dist.hpp"
#include "model/capacity.hpp"
#include "net/comm_world.hpp"
#include "nonlocal/serial_solver.hpp"
#include "partition/partitioner.hpp"

namespace dist = nlh::dist;
namespace nl = nlh::nonlocal;
namespace net = nlh::net;

// ----------------------------------------------- bulk-synchronous baseline ----

TEST(BulkSyncMode, MatchesSerialReference) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  cfg.schedule = dist::overlap_schedule::bulk_sync;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 1, 0}));
  solver.set_initial_condition();
  solver.run(3);

  nl::solver_config scfg;
  scfg.n = 16;
  scfg.epsilon_factor = 2;
  nl::serial_solver ref(scfg);
  ref.set_initial_condition();
  for (int k = 0; k < 3; ++k) ref.step(k);

  const auto mine = solver.gather();
  const auto& g = solver.grid();
  double maxdiff = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      maxdiff = std::max(maxdiff,
                         std::abs(mine[g.flat(i, j)] - ref.field()[g.flat(i, j)]));
  EXPECT_LT(maxdiff, 1e-12);
}

TEST(BulkSyncMode, SameGhostTrafficAsOverlap) {
  // The schedule changes; the data exchanged does not.
  auto run_bytes = [](bool overlap) {
    dist::dist_config cfg;
    cfg.sd_rows = cfg.sd_cols = 2;
    cfg.sd_size = 8;
    cfg.epsilon_factor = 2;
    cfg.schedule = overlap ? dist::overlap_schedule::per_direction
                           : dist::overlap_schedule::bulk_sync;
    const dist::tiling t(2, 2, 8, 2);
    dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
    solver.set_initial_condition();
    solver.run(2);
    return solver.ghost_bytes();
  };
  EXPECT_EQ(run_bytes(true), run_bytes(false));
}

TEST(BulkSyncSim, NeverFasterThanOverlap) {
  dist::tiling t(4, 4, 50, 8);
  const auto own = dist::ownership_map::from_partition(
      t, 4, nlh::partition::block_partition(4, 4, 4));
  for (double latency : {1e-6, 1e-3, 1e-1}) {
    dist::sim_cluster_config cluster;
    cluster.net.latency_s = latency;
    dist::sim_cost_model cost;
    cost.overlap = true;
    const auto on = dist::simulate_timestepping(t, own, 5, cost, cluster);
    cost.overlap = false;
    const auto off = dist::simulate_timestepping(t, own, 5, cost, cluster);
    EXPECT_GE(off.makespan, on.makespan - 1e-9) << "latency " << latency;
  }
}

TEST(BulkSyncSim, HighLatencyHurtsBulkSyncMore) {
  dist::tiling t(4, 4, 50, 8);
  const auto own = dist::ownership_map::from_partition(
      t, 4, nlh::partition::block_partition(4, 4, 4));
  dist::sim_cluster_config cluster;
  // Latency comparable to a node's whole step: overlap can still hide some
  // of it behind case-2, bulk-sync cannot hide any.
  cluster.net.latency_s = 5000.0;
  dist::sim_cost_model cost;
  cost.overlap = true;
  const auto on = dist::simulate_timestepping(t, own, 5, cost, cluster);
  cost.overlap = false;
  const auto off = dist::simulate_timestepping(t, own, 5, cost, cluster);
  EXPECT_GT(off.makespan, 1.05 * on.makespan);
}

// ------------------------------------------------------- time integrators ----

namespace {
double final_error(double dt_safety, int steps) {
  nlh::api::session_options opt;
  opt.mode = nlh::api::execution_mode::serial;
  opt.n = 16;
  opt.epsilon_factor = 2;
  opt.dt_safety = dt_safety;
  nlh::api::session session(opt);
  session.solver().run(steps);
  return session.solver().error_ek_vs_exact();
}
}  // namespace

TEST(TimeIntegrators, EulerIsFirstOrder) {
  // Halving dt (same final time) must roughly halve the L2 error: the
  // e_k norm of eq. 7 is squared, so the ratio is ~4.
  const double coarse = final_error(0.5, 8);
  const double fine = final_error(0.25, 16);
  const double ratio = coarse / fine;
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

TEST(TimeIntegrators, AllStayStableAndFinite) {
  nl::solver_config cfg;
  cfg.n = 12;
  cfg.epsilon_factor = 3;
  nl::serial_solver s(cfg);
  s.set_initial_condition();
  for (int k = 0; k < 15; ++k) s.step(k);
  for (double v : s.field()) EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------ dynamic workload driver ----

TEST(DynamicBalancing, OnIterationHookFires) {
  dist::tiling t(4, 4, 10, 2);
  auto own = dist::ownership_map::from_partition(
      t, 2, nlh::partition::block_partition(4, 4, 2));
  nlh::balance::sim_balance_config cfg;
  cfg.max_iterations = 4;
  cfg.run_all_iterations = true;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(2, 1.0);
  int calls = 0;
  cfg.on_iteration = [&](int, dist::sim_cost_model&, dist::sim_cluster_config&) {
    ++calls;
  };
  const auto log = nlh::balance::run_sim_balancing(t, own, cfg);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(log.size(), 4u);
}

TEST(DynamicBalancing, TracksInterferenceArrival) {
  // Node 0 slows to 25% from iteration 2 on: the balancer must shed SDs
  // from node 0 after the change.
  dist::tiling t(6, 6, 10, 2);
  auto own = dist::ownership_map::from_partition(
      t, 2, nlh::partition::block_partition(6, 6, 2));
  nlh::balance::sim_balance_config cfg;
  cfg.max_iterations = 8;
  cfg.run_all_iterations = true;
  cfg.cov_tol = 0.03;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(2, 1.0);
  cfg.on_iteration = [&](int it, dist::sim_cost_model&,
                         dist::sim_cluster_config& cluster) {
    cluster.node_capacity = it < 2
                                ? nlh::model::uniform_cluster(2, 1.0)
                                : nlh::model::heterogeneous_cluster({0.25, 1.0});
  };
  const auto before = own.sd_counts();
  EXPECT_EQ(before[0], before[1]);
  nlh::balance::run_sim_balancing(t, own, cfg);
  const auto after = own.sd_counts();
  EXPECT_LT(after[0], after[1]);
  // Roughly the 1:4 capacity ratio.
  EXPECT_NEAR(static_cast<double>(after[1]) / after[0], 4.0, 1.7);
}

TEST(DynamicBalancing, ConvergedRunsContinueWhenRequested) {
  dist::tiling t(4, 4, 10, 2);
  auto own = dist::ownership_map::from_partition(
      t, 2, nlh::partition::block_partition(4, 4, 2));
  nlh::balance::sim_balance_config cfg;
  cfg.max_iterations = 5;
  cfg.cov_tol = 10.0;  // everything counts as converged
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(2, 1.0);
  cfg.run_all_iterations = true;
  const auto log = nlh::balance::run_sim_balancing(t, own, cfg);
  EXPECT_EQ(log.size(), 5u);
  for (const auto& e : log) EXPECT_TRUE(e.converged);
}
