// Integration tests: the fully asynchronous distributed solver must
// reproduce the serial reference for every decomposition, ownership and
// thread count; ghost traffic must match the SD geometry.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dist/dist_solver.hpp"
#include "nonlocal/serial_solver.hpp"
#include "partition/multilevel.hpp"
#include "partition/mesh_dual.hpp"

namespace dist = nlh::dist;
namespace nl = nlh::nonlocal;

namespace {

/// Serial reference on the same mesh / dt as a dist_config.
std::vector<double> serial_reference(const dist::dist_config& cfg, int steps) {
  nl::solver_config scfg;
  scfg.n = cfg.sd_cols * cfg.sd_size;
  scfg.epsilon_factor = cfg.epsilon_factor;
  scfg.conductivity = cfg.conductivity;
  scfg.dt = cfg.dt;
  scfg.dt_safety = cfg.dt_safety;
  scfg.kind = cfg.kind;
  nl::serial_solver s(scfg);
  s.set_initial_condition();
  for (int k = 0; k < steps; ++k) s.step(k);
  return s.field();
}

double max_abs_diff(const nl::grid2d& g, const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(a[g.flat(i, j)] - b[g.flat(i, j)]));
  return m;
}

}  // namespace

TEST(DistSolver, SingleNodeMatchesSerial) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  dist::dist_solver solver(cfg, dist::ownership_map::single_node(
                                    dist::tiling(2, 2, 8, 2)));
  solver.set_initial_condition();
  solver.run(3);
  const auto ref = serial_reference(cfg, 3);
  EXPECT_LT(max_abs_diff(solver.grid(), solver.gather(), ref), 1e-12);
}

TEST(DistSolver, NoGhostTrafficOnSingleNode) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  dist::dist_solver solver(cfg, dist::ownership_map::single_node(
                                    dist::tiling(2, 2, 8, 2)));
  solver.set_initial_condition();
  solver.run(2);
  EXPECT_EQ(solver.ghost_bytes(), 0u);
}

TEST(DistSolver, TwoNodesMatchSerial) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  // Left column node 0, right column node 1.
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.run(3);
  const auto ref = serial_reference(cfg, 3);
  EXPECT_LT(max_abs_diff(solver.grid(), solver.gather(), ref), 1e-12);
  EXPECT_GT(solver.ghost_bytes(), 0u);
}

TEST(DistSolver, GhostBytesMatchGeometry) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.step();
  // Crossing edges: vertical boundary between the two columns. Per step:
  // 4 side strips (8x2 DPs, both directions across two SD rows) and
  // 4 corner strips (2x2). Payload = doubles + 8-byte vector length header.
  const std::uint64_t side = 8 * 2 * 8 + 8;
  const std::uint64_t corner = 2 * 2 * 8 + 8;
  EXPECT_EQ(solver.ghost_bytes(), 4 * side + 4 * corner);
}

TEST(DistSolver, MigrationPreservesSolution) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.run(2);
  solver.migrate_sd(1, 1);  // move an SD mid-run
  EXPECT_EQ(solver.owners().owner(1), 1);
  solver.run(2);
  const auto ref = serial_reference(cfg, 4);
  EXPECT_LT(max_abs_diff(solver.grid(), solver.gather(), ref), 1e-12);
}

TEST(DistSolver, MigrationToSelfIsNoop) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.migrate_sd(0, 0);
  EXPECT_EQ(solver.migration_epoch(0), 0u);
  EXPECT_EQ(solver.owners().owner(0), 0);
}

TEST(DistSolver, BusyCountersRespond) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 12;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 12, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.reset_busy_counters();
  solver.run(3);
  for (int l = 0; l < 2; ++l) {
    const double f = solver.busy_fraction(l);
    EXPECT_GT(f, 0.0) << "locality " << l;
    EXPECT_LE(f, 1.0 + 1e-6);
  }
}

// The headline property, swept over decompositions / node counts / threads:
// distributed == serial to round-off for every configuration.
using DistParam = std::tuple<int /*sd grid*/, int /*sd size*/, int /*nodes*/,
                             int /*threads*/, int /*steps*/>;

class DistEquivalence : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistEquivalence, MatchesSerialReference) {
  const auto [sdg, sds, nodes, threads, steps] = GetParam();
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = sdg;
  cfg.sd_size = sds;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = threads;
  const dist::tiling t(sdg, sdg, sds, 2);

  // Partition the SD dual graph METIS-style for the ownership.
  nlh::partition::mesh_dual_options mopt;
  mopt.sd_rows = sdg;
  mopt.sd_cols = sdg;
  mopt.sd_size = sds;
  mopt.ghost_width = 2;
  auto dual = nlh::partition::build_mesh_dual(mopt);
  nlh::partition::partition_options popt;
  popt.k = nodes;
  const auto part = nlh::partition::multilevel_partition(dual, popt);

  dist::dist_solver solver(cfg, dist::ownership_map::from_partition(t, nodes, part));
  solver.set_initial_condition();
  solver.run(steps);
  const auto ref = serial_reference(cfg, steps);
  EXPECT_LT(max_abs_diff(solver.grid(), solver.gather(), ref), 1e-11)
      << sdg << "x" << sdg << " SDs, " << nodes << " nodes, " << threads
      << " threads";
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, DistEquivalence,
    ::testing::Values(DistParam{2, 8, 1, 1, 3}, DistParam{2, 8, 2, 1, 3},
                      DistParam{2, 8, 4, 1, 3}, DistParam{3, 6, 2, 1, 3},
                      DistParam{3, 6, 3, 2, 3}, DistParam{4, 4, 4, 1, 2},
                      DistParam{4, 4, 2, 2, 4}, DistParam{2, 8, 2, 2, 5},
                      DistParam{4, 8, 4, 1, 2}, DistParam{5, 4, 4, 1, 2}));

// Same equivalence property across influence functions and horizon sizes:
// the physics configuration must not matter to the distribution machinery.
using PhysicsParam = std::tuple<nl::influence_kind, int /*eps factor*/>;

class DistPhysicsEquivalence : public ::testing::TestWithParam<PhysicsParam> {};

TEST_P(DistPhysicsEquivalence, MatchesSerialReference) {
  const auto [kind, eps_factor] = GetParam();
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = eps_factor;
  cfg.kind = kind;
  const dist::tiling t(2, 2, 8, eps_factor);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 1, 0}));
  solver.set_initial_condition();
  solver.run(3);
  const auto ref = serial_reference(cfg, 3);
  EXPECT_LT(max_abs_diff(solver.grid(), solver.gather(), ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndHorizons, DistPhysicsEquivalence,
    ::testing::Combine(::testing::Values(nl::influence_kind::constant,
                                         nl::influence_kind::linear,
                                         nl::influence_kind::gaussian),
                       ::testing::Values(2, 4, 8)));
