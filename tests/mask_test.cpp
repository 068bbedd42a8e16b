// Tests for masked (non-square) SD domains: mask builders, the masked dual
// graph, case-split semantics and the virtual-time solver on masks.

#include <gtest/gtest.h>

#include "dist/domain_mask.hpp"
#include "dist/sd_block.hpp"
#include "dist/sim_dist.hpp"
#include "partition/mesh_dual.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"

namespace dist = nlh::dist;
namespace part = nlh::partition;

TEST(DomainMask, FullKeepsEverything) {
  dist::tiling t(4, 4, 8, 2);
  const auto m = dist::domain_mask::full(t);
  EXPECT_EQ(m.num_active(), 16);
  for (int sd = 0; sd < 16; ++sd) EXPECT_TRUE(m.active(sd));
}

TEST(DomainMask, LShapeRemovesTopRightQuadrant) {
  dist::tiling t(4, 4, 8, 2);
  const auto m = dist::domain_mask::l_shape(t);
  EXPECT_EQ(m.num_active(), 12);
  EXPECT_FALSE(m.active(t.sd_at(0, 2)));
  EXPECT_FALSE(m.active(t.sd_at(1, 3)));
  EXPECT_TRUE(m.active(t.sd_at(0, 1)));
  EXPECT_TRUE(m.active(t.sd_at(2, 3)));
}

TEST(DomainMask, DiskIsSymmetricAndKeepsCenter) {
  dist::tiling t(8, 8, 8, 2);
  const auto m = dist::domain_mask::disk(t);
  EXPECT_TRUE(m.active(t.sd_at(3, 3)));
  EXPECT_TRUE(m.active(t.sd_at(4, 4)));
  EXPECT_FALSE(m.active(t.sd_at(0, 0)));  // corner outside the circle
  // 4-fold symmetry.
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(m.active(t.sd_at(r, c)), m.active(t.sd_at(7 - r, 7 - c)));
}

TEST(DomainMask, PredicateShape) {
  dist::tiling t(3, 3, 8, 2);
  const auto m =
      dist::domain_mask::from_predicate(t, [](int r, int c) { return r == c; });
  EXPECT_EQ(m.num_active(), 3);
  EXPECT_EQ(m.active_sds(), (std::vector<int>{0, 4, 8}));
}

TEST(MaskedDual, VertexMappingRoundTrips) {
  dist::tiling t(4, 4, 8, 2);
  const auto m = dist::domain_mask::l_shape(t);
  part::mesh_dual_options opt;
  opt.sd_rows = opt.sd_cols = 4;
  opt.sd_size = 8;
  opt.ghost_width = 2;
  const auto masked = part::build_mesh_dual_masked(opt, m.raw());
  EXPECT_EQ(masked.g.num_vertices(), 12);
  for (part::vid v = 0; v < masked.g.num_vertices(); ++v) {
    const auto sd = masked.to_sd[static_cast<std::size_t>(v)];
    EXPECT_TRUE(m.active(sd));
    EXPECT_EQ(masked.to_vertex[static_cast<std::size_t>(sd)], v);
  }
  for (int sd = 0; sd < t.num_sds(); ++sd) {
    if (!m.active(sd)) {
      EXPECT_EQ(masked.to_vertex[static_cast<std::size_t>(sd)], -1);
    }
  }
}

TEST(MaskedDual, NoEdgesIntoInactiveRegion) {
  dist::tiling t(4, 4, 8, 2);
  const auto m = dist::domain_mask::l_shape(t);
  part::mesh_dual_options opt;
  opt.sd_rows = opt.sd_cols = 4;
  opt.sd_size = 8;
  opt.ghost_width = 2;
  const auto full = part::build_mesh_dual(opt);
  const auto masked = part::build_mesh_dual_masked(opt, m.raw());
  // Edge count drops by exactly the edges touching the removed quadrant.
  EXPECT_LT(masked.g.num_edges(), full.num_edges());
  // Every masked edge exists in the full graph between the mapped SDs.
  for (part::vid v = 0; v < masked.g.num_vertices(); ++v)
    for (auto e = masked.g.xadj(v); e < masked.g.xadj(v + 1); ++e) {
      const auto u_sd = masked.to_sd[static_cast<std::size_t>(v)];
      const auto w_sd = masked.to_sd[static_cast<std::size_t>(masked.g.adjncy(e))];
      EXPECT_TRUE(full.has_edge(u_sd, w_sd));
    }
}

TEST(MaskedDual, PartitionerWorksOnLShape) {
  dist::tiling t(8, 8, 8, 2);
  const auto m = dist::domain_mask::l_shape(t);
  part::mesh_dual_options opt;
  opt.sd_rows = opt.sd_cols = 8;
  opt.sd_size = 8;
  opt.ghost_width = 2;
  const auto masked = part::build_mesh_dual_masked(opt, m.raw());
  part::partition_options popt;
  popt.k = 4;
  const auto p = part::multilevel_partition(masked.g, popt);
  part::validate_partition(masked.g, p, 4);
  EXPECT_TRUE(part::parts_contiguous(masked.g, p, 4));
  EXPECT_LE(part::balance_factor(masked.g, p, 4),
            part::multilevel_balance_tolerance + 0.15);
}

TEST(MaskedCaseSplit, InactiveNeighborIsNotRemote) {
  dist::tiling t(1, 3, 8, 2);
  // SD 1's east neighbor (SD 2) is inactive: only the west side (SD 0,
  // different owner) counts as remote.
  std::vector<int> owner{0, 1, 0};
  std::vector<char> active{1, 1, 0};
  const auto split = dist::compute_case_split(t, 1, owner, &active);
  EXPECT_EQ(split.interior.col_begin, 2);   // west margin only
  EXPECT_EQ(split.interior.col_end, 8);     // no east margin
}

TEST(MaskedSim, InactiveSdsCostNothing) {
  dist::tiling t(4, 4, 10, 2);
  const auto m = dist::domain_mask::l_shape(t);
  const auto own = dist::ownership_map::single_node(t);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  const auto full = dist::simulate_timestepping(t, own, 2, cost, cluster);
  cost.sd_active = m.raw();
  const auto masked = dist::simulate_timestepping(t, own, 2, cost, cluster);
  // 12 of 16 SDs active: exactly 3/4 of the work.
  EXPECT_DOUBLE_EQ(masked.makespan, 0.75 * full.makespan);
}

TEST(MaskedSim, NoGhostTrafficAcrossInactiveRegion) {
  // Two nodes separated entirely by an inactive column: no messages.
  dist::tiling t(3, 3, 10, 2);
  const auto m = dist::domain_mask::from_predicate(
      t, [](int, int c) { return c != 1; });
  std::vector<int> owner{0, 0, 1, 0, 0, 1, 0, 0, 1};
  const dist::ownership_map own(t, 2, owner);
  dist::sim_cost_model cost;
  cost.sd_active = m.raw();
  dist::sim_cluster_config cluster;
  const auto res = dist::simulate_timestepping(t, own, 3, cost, cluster);
  EXPECT_DOUBLE_EQ(res.network_bytes, 0.0);
}

TEST(MaskedSim, LShapeScalesLikeSquare) {
  dist::tiling t(8, 8, 20, 4);
  const auto m = dist::domain_mask::l_shape(t);
  part::mesh_dual_options opt;
  opt.sd_rows = opt.sd_cols = 8;
  opt.sd_size = 20;
  opt.ghost_width = 4;
  const auto masked = part::build_mesh_dual_masked(opt, m.raw());
  dist::sim_cost_model cost;
  cost.sd_active = m.raw();
  dist::sim_cluster_config cluster;

  double t1 = 0.0;
  for (int nodes : {1, 4}) {
    part::partition_options popt;
    popt.k = nodes;
    const auto p = part::multilevel_partition(masked.g, popt);
    std::vector<int> owner(static_cast<std::size_t>(t.num_sds()), 0);
    for (part::vid v = 0; v < masked.g.num_vertices(); ++v)
      owner[static_cast<std::size_t>(masked.to_sd[static_cast<std::size_t>(v)])] =
          p[static_cast<std::size_t>(v)];
    const dist::ownership_map own(t, nodes, owner);
    const auto res = dist::simulate_timestepping(t, own, 4, cost, cluster);
    if (nodes == 1)
      t1 = res.makespan;
    else
      EXPECT_GT(t1 / res.makespan, 3.0) << "4-node speedup on the L-shape";
  }
}
