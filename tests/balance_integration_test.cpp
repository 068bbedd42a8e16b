// Closed-loop balancing tests: the Fig. 14 experiment (imbalanced start on
// symmetric nodes converges within 3 iterations), heterogeneous clusters,
// and balancing wired to the real distributed solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "balance/balancer.hpp"
#include "balance/sim_driver.hpp"
#include "dist/dist_solver.hpp"
#include "model/capacity.hpp"
#include "nonlocal/serial_solver.hpp"
#include "support/stats.hpp"

namespace bal = nlh::balance;
namespace dist = nlh::dist;

namespace {

/// The paper's Fig. 14 starting point: 5x5 SDs, 4 nodes, highly imbalanced
/// (node 0 owns almost everything, the others one corner SD each).
dist::ownership_map fig14_start(const dist::tiling& t) {
  std::vector<int> owner(static_cast<std::size_t>(t.num_sds()), 0);
  owner[static_cast<std::size_t>(t.sd_at(0, t.sd_cols() - 1))] = 1;
  owner[static_cast<std::size_t>(t.sd_at(t.sd_rows() - 1, 0))] = 2;
  owner[static_cast<std::size_t>(t.sd_at(t.sd_rows() - 1, t.sd_cols() - 1))] = 3;
  return dist::ownership_map(t, 4, owner);
}

}  // namespace

TEST(SimBalancing, Fig14ConvergesWithinThreeIterations) {
  dist::tiling t(5, 5, 4, 1);
  auto own = fig14_start(t);
  bal::sim_balance_config cfg;
  cfg.steps_per_iteration = 4;
  cfg.max_iterations = 6;
  cfg.cov_tol = 0.08;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(4, 1.0);
  const auto log = bal::run_sim_balancing(t, own, cfg);

  ASSERT_FALSE(log.empty());
  EXPECT_TRUE(log.back().converged);
  // The paper: "within 3 iterations ... nearly balanced". Our iterations
  // that actually move SDs must number <= 3.
  int balancing_iterations = 0;
  for (const auto& e : log) balancing_iterations += e.sds_moved > 0 ? 1 : 0;
  EXPECT_LE(balancing_iterations, 3);

  // Final distribution on symmetric nodes: 25 SDs over 4 nodes -> 6 or 7 each.
  const auto counts = own.sd_counts();
  for (int c : counts) {
    EXPECT_GE(c, 5);
    EXPECT_LE(c, 8);
  }
}

TEST(SimBalancing, SdCountConservedThroughout) {
  dist::tiling t(5, 5, 4, 1);
  auto own = fig14_start(t);
  bal::sim_balance_config cfg;
  cfg.max_iterations = 5;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(4, 1.0);
  const auto log = bal::run_sim_balancing(t, own, cfg);
  for (const auto& e : log) {
    int before = 0, after = 0;
    for (int c : e.sd_counts_before) before += c;
    for (int c : e.sd_counts_after) after += c;
    EXPECT_EQ(before, t.num_sds());
    EXPECT_EQ(after, t.num_sds());
  }
}

TEST(SimBalancing, CovDecreasesAcrossIterations) {
  dist::tiling t(6, 6, 4, 1);
  std::vector<int> owner(36, 0);
  for (int sd = 18; sd < 36; ++sd) owner[static_cast<std::size_t>(sd)] = 1 + (sd % 3);
  dist::ownership_map own(t, 4, owner);
  bal::sim_balance_config cfg;
  cfg.max_iterations = 6;
  cfg.cov_tol = 0.02;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(4, 1.0);
  const auto log = bal::run_sim_balancing(t, own, cfg);
  ASSERT_GE(log.size(), 2u);
  EXPECT_LT(log.back().busy_cov, log.front().busy_cov);
}

TEST(SimBalancing, HeterogeneousClusterGetsProportionalSds) {
  // 1:3 speed ratio on two nodes: the fast node should end up with roughly
  // three times the SDs.
  dist::tiling t(8, 8, 4, 1);
  std::vector<int> owner(64, 0);
  for (int sd = 0; sd < 64; ++sd)
    if (t.sd_col(sd) >= 4) owner[static_cast<std::size_t>(sd)] = 1;
  dist::ownership_map own(t, 2, owner);
  bal::sim_balance_config cfg;
  cfg.max_iterations = 8;
  cfg.cov_tol = 0.05;
  cfg.cluster.node_capacity = nlh::model::heterogeneous_cluster({1.0, 3.0});
  const auto log = bal::run_sim_balancing(t, own, cfg);
  const auto counts = own.sd_counts();
  // Ideal split: 16 / 48.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 1.0);
  (void)log;
}

TEST(SimBalancing, ContiguityPreservedAfterBalancing) {
  dist::tiling t(6, 6, 4, 1);
  auto own = fig14_start(dist::tiling(6, 6, 4, 1));
  bal::sim_balance_config cfg;
  cfg.max_iterations = 6;
  cfg.cluster.node_capacity = nlh::model::uniform_cluster(4, 1.0);
  bal::run_sim_balancing(t, own, cfg);
  for (int node = 0; node < 4; ++node) {
    const auto sds = own.sds_of(node);
    ASSERT_FALSE(sds.empty()) << node;
    std::vector<char> seen(static_cast<std::size_t>(t.num_sds()), 0);
    std::vector<int> stack{sds.front()};
    seen[static_cast<std::size_t>(sds.front())] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (const auto& [d, nb] : t.neighbors(u))
        if (own.owner(nb) == node && !seen[static_cast<std::size_t>(nb)]) {
          seen[static_cast<std::size_t>(nb)] = 1;
          ++reached;
          stack.push_back(nb);
        }
    }
    EXPECT_EQ(reached, sds.size()) << "node " << node << " SP fragmented";
  }
}

TEST(SimBalancing, StepInterferenceTriggersRebalance) {
  // A node that slows down mid-run sheds SDs once the balancer sees its
  // busy time dominate.
  dist::tiling t(6, 6, 2, 1);
  std::vector<int> owner(36);
  for (int sd = 0; sd < 36; ++sd) owner[static_cast<std::size_t>(sd)] = t.sd_col(sd) / 3;
  dist::ownership_map own(t, 2, owner);
  bal::sim_balance_config cfg;
  cfg.max_iterations = 6;
  cfg.cov_tol = 0.03;
  // Node 0 at quarter speed for the whole window.
  cfg.cluster.node_capacity = nlh::model::heterogeneous_cluster({0.25, 1.0});
  bal::run_sim_balancing(t, own, cfg);
  const auto counts = own.sd_counts();
  EXPECT_LT(counts[0], counts[1]);
}

TEST(RealSolverBalancing, BusyDrivenMigrationKeepsSolutionCorrect) {
  // End-to-end on the real solver: measure busy fractions, run Algorithm 1
  // with dist_solver::migrate_sd as the migration callback, keep stepping,
  // and verify the solution still matches the serial reference.
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 3;
  cfg.sd_size = 6;
  cfg.epsilon_factor = 2;
  const dist::tiling t(3, 3, 6, 2);
  // Imbalanced start: node 0 owns 7 SDs, node 1 owns 2.
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 0, 0, 0, 0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.reset_busy_counters();
  solver.run(2);

  std::vector<double> busy{solver.busy_fraction(0), solver.busy_fraction(1)};
  auto own_copy = solver.owners();
  bal::balance_step(t, own_copy, busy, {}, [&](const bal::sd_move& m) {
    solver.migrate_sd(m.sd, m.to_node);
  });
  solver.reset_busy_counters();
  solver.run(2);

  nlh::nonlocal::solver_config scfg;
  scfg.n = 18;
  scfg.epsilon_factor = 2;
  nlh::nonlocal::serial_solver ref(scfg);
  ref.set_initial_condition();
  for (int k = 0; k < 4; ++k) ref.step(k);

  const auto mine = solver.gather();
  const auto& g = solver.grid();
  double maxdiff = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      maxdiff = std::max(maxdiff,
                         std::abs(mine[g.flat(i, j)] - ref.field()[g.flat(i, j)]));
  EXPECT_LT(maxdiff, 1e-11);
  // The ownership recorded in the solver matches the copy the balancer made.
  EXPECT_EQ(solver.owners().raw(), own_copy.raw());
}

TEST(BalanceStepContract, MigrateCallbackMatchesReportedMovesInOrder) {
  // The documented migrate-callback contract (balancer.hpp): exactly one
  // synchronous invocation per move, in exactly balance_report::moves
  // order, with identical values — the property the live auto_rebalancer
  // relies on to keep the solver's ownership in lockstep with the report.
  dist::tiling t(5, 5, 4, 1);
  auto own = fig14_start(t);
  const std::vector<double> busy{0.9, 0.1, 0.1, 0.1};

  std::vector<bal::sd_move> seen;
  const auto rep = bal::balance_step(t, own, busy, {},
                                     [&](const bal::sd_move& m) {
                                       seen.push_back(m);
                                     });

  ASSERT_FALSE(rep.moves.empty());
  ASSERT_EQ(seen.size(), rep.moves.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].sd, rep.moves[i].sd) << "callback order diverged at " << i;
    EXPECT_EQ(seen[i].from_node, rep.moves[i].from_node);
    EXPECT_EQ(seen[i].to_node, rep.moves[i].to_node);
    EXPECT_NE(seen[i].from_node, seen[i].to_node);
  }
}

TEST(BalanceStepContract, MaxMovesCapsMovesAndKeepsReportConsistent) {
  dist::tiling t(5, 5, 4, 1);
  const std::vector<double> busy{0.9, 0.1, 0.1, 0.1};

  // Uncapped run for reference: the imbalanced start needs many moves.
  auto own_free = fig14_start(t);
  const auto rep_free = bal::balance_step(t, own_free, busy, {});
  ASSERT_GT(rep_free.moves.size(), 3u);

  bal::balance_options opts;
  opts.max_moves = 3;
  auto own = fig14_start(t);
  int callbacks = 0;
  const auto rep = bal::balance_step(t, own, busy, opts,
                                     [&](const bal::sd_move&) { ++callbacks; });

  // The cap binds, the callback count matches, and the capped prefix is
  // exactly what the uncapped walk would have done first.
  EXPECT_EQ(rep.moves.size(), 3u);
  EXPECT_EQ(callbacks, 3);
  for (std::size_t i = 0; i < rep.moves.size(); ++i) {
    EXPECT_EQ(rep.moves[i].sd, rep_free.moves[i].sd);
    EXPECT_EQ(rep.moves[i].to_node, rep_free.moves[i].to_node);
  }
  // sd_counts_after reflects the capped ownership, conserving the total.
  EXPECT_EQ(rep.sd_counts_after, own.sd_counts());
  int total = 0;
  for (int c : rep.sd_counts_after) total += c;
  EXPECT_EQ(total, t.num_sds());
}
