// Tests for the multilevel k-way partitioner (the METIS substitute),
// including TEST_P property sweeps over grid shapes, part counts and seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "partition/mesh_dual.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"

namespace part = nlh::partition;

namespace {

part::graph grid_dual(int rows, int cols, bool diagonals = true) {
  part::mesh_dual_options opt;
  opt.sd_rows = rows;
  opt.sd_cols = cols;
  opt.sd_size = 4;
  opt.ghost_width = 1;
  opt.include_diagonals = diagonals;
  return part::build_mesh_dual(opt);
}

}  // namespace

TEST(Multilevel, SinglePartIsTrivial) {
  auto g = grid_dual(4, 4);
  part::partition_options opt;
  opt.k = 1;
  const auto p = part::multilevel_partition(g, opt);
  for (int v : p) EXPECT_EQ(v, 0);
}

TEST(Multilevel, BisectionOfGridIsBalanced) {
  auto g = grid_dual(8, 8);
  part::partition_options opt;
  opt.k = 2;
  const auto p = part::multilevel_partition(g, opt);
  part::validate_partition(g, p, 2);
  EXPECT_LE(part::balance_factor(g, p, 2),
            part::multilevel_balance_tolerance + 1e-9);
}

TEST(Multilevel, BeatsRandomOnCut) {
  auto g = grid_dual(12, 12);
  part::partition_options opt;
  opt.k = 4;
  const auto ml = part::multilevel_partition(g, opt);
  const auto rnd = part::random_partition(g.num_vertices(), 4, 7);
  EXPECT_LT(part::edge_cut(g, ml), 0.5 * part::edge_cut(g, rnd));
}

TEST(Multilevel, CompetitiveWithBlockPartition) {
  // METIS-quality contract: within 1.5x of the geometric 2-D block cut.
  auto g = grid_dual(16, 16, false);
  part::partition_options opt;
  opt.k = 4;
  const auto ml = part::multilevel_partition(g, opt);
  const auto block = part::block_partition(16, 16, 4);
  EXPECT_LE(part::edge_cut(g, ml), 1.5 * part::edge_cut(g, block));
}

TEST(Multilevel, DeterministicForSeed) {
  auto g = grid_dual(10, 10);
  part::partition_options opt;
  opt.k = 3;
  opt.seed = 99;
  EXPECT_EQ(part::multilevel_partition(g, opt), part::multilevel_partition(g, opt));
}

TEST(Multilevel, WeightedVerticesBalanceByWeight) {
  // Heavy SDs on the left half: the partition must not just split by count.
  part::mesh_dual_options mopt;
  mopt.sd_rows = 4;
  mopt.sd_cols = 8;
  mopt.sd_size = 4;
  mopt.ghost_width = 1;
  mopt.sd_work.assign(32, 1.0);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) mopt.sd_work[static_cast<std::size_t>(r * 8 + c)] = 3.0;
  auto g = part::build_mesh_dual(mopt);
  part::partition_options opt;
  opt.k = 2;
  const auto p = part::multilevel_partition(g, opt);
  EXPECT_LE(part::balance_factor(g, p, 2),
            part::multilevel_balance_tolerance + 1e-9);
}

TEST(RefinePartition, ImprovesBadCut) {
  auto g = grid_dual(8, 8, false);
  // Checkerboard: terrible cut, perfectly balanced.
  part::partition_vector p(64);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) p[static_cast<std::size_t>(r * 8 + c)] = (r + c) % 2;
  const auto before = part::edge_cut(g, p);
  part::refine_partition(g, p, 2, 1.15, 12);
  const auto after = part::edge_cut(g, p);
  EXPECT_LT(after, before);
  part::validate_partition(g, p, 2);
}

TEST(RefinePartition, NeverEmptiesAPart) {
  auto g = grid_dual(3, 3, false);
  part::partition_vector p{0, 1, 1, 1, 1, 1, 1, 1, 1};
  part::refine_partition(g, p, 2, 2.0, 8);
  int zeros = 0;
  for (int v : p) zeros += v == 0;
  EXPECT_GE(zeros, 1);
}

TEST(AbsorbStray, MergesIslands) {
  auto g = grid_dual(4, 4, false);
  // Part 0 in two opposite corners (disconnected), part 1 elsewhere.
  part::partition_vector p(16, 1);
  p[0] = 0;
  p[15] = 0;
  EXPECT_GT(part::part_components(g, p, 0), 1);
  EXPECT_TRUE(part::absorb_stray_components(g, p, 2));
  EXPECT_EQ(part::part_components(g, p, 0), 1);
}

TEST(AbsorbStray, NoopWhenContiguous) {
  auto g = grid_dual(4, 4, false);
  const auto p0 = part::strip_partition(4, 4, 2);
  auto p = p0;
  EXPECT_FALSE(part::absorb_stray_components(g, p, 2));
  EXPECT_EQ(p, p0);
}

TEST(RebalanceContiguous, FixesOverload) {
  auto g = grid_dual(4, 4, false);
  // Part 1 owns only one SD.
  part::partition_vector p(16, 0);
  p[15] = 1;
  const int moves = part::rebalance_contiguous(g, p, 2, 1.15, 100);
  EXPECT_GT(moves, 0);
  EXPECT_LE(part::balance_factor(g, p, 2), 1.15 + 1e-9);
  EXPECT_TRUE(part::parts_contiguous(g, p, 2));
}

// ------------------------- property sweep: (rows, cols, k, seed) -------------

using SweepParam = std::tuple<int, int, int, unsigned>;

class MultilevelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MultilevelSweep, PartitionContractHolds) {
  const auto [rows, cols, k, seed] = GetParam();
  auto g = grid_dual(rows, cols);
  part::partition_options opt;
  opt.k = k;
  opt.seed = seed;
  const auto p = part::multilevel_partition(g, opt);

  // Contract 1: valid assignment covering every vertex.
  part::validate_partition(g, p, k);

  // Contract 2: no part is empty.
  const auto w = part::part_weights(g, p, k);
  for (int i = 0; i < k; ++i) EXPECT_GT(w[static_cast<std::size_t>(i)], 0.0) << "part " << i;

  // Contract 3: balance within tolerance (+1 vertex granularity slack).
  const double ideal = g.total_vwgt() / k;
  const double max_w = *std::max_element(w.begin(), w.end());
  EXPECT_LE(max_w, ideal * part::multilevel_balance_tolerance + 16.0)
      << rows << "x" << cols << " k=" << k;

  // Contract 4: contiguity on grid dual graphs.
  EXPECT_TRUE(part::parts_contiguous(g, p, k)) << rows << "x" << cols << " k=" << k;

  // Contract 5: cut is no worse than 3x the strip baseline (usually far
  // better; this guards against degenerate output).
  const auto strip = part::strip_partition(rows, cols, k);
  if (rows >= k) {
    EXPECT_LE(part::edge_cut(g, p), 3.0 * part::edge_cut(g, strip) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, MultilevelSweep,
    ::testing::Values(SweepParam{4, 4, 2, 1}, SweepParam{4, 4, 4, 1},
                      SweepParam{5, 5, 4, 2},  // the paper's Fig. 2/14 shape
                      SweepParam{8, 8, 2, 3}, SweepParam{8, 8, 4, 3},
                      SweepParam{8, 8, 7, 4},  // non-divisible k
                      SweepParam{16, 16, 4, 5}, SweepParam{16, 16, 16, 5},
                      SweepParam{6, 10, 3, 6},  // rectangular grid
                      SweepParam{12, 3, 5, 7}, SweepParam{16, 16, 4, 99},
                      SweepParam{10, 10, 10, 11}));

// Seeds-only sweep on the Fig. 13 shape (16x16 SDs).
class MultilevelSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultilevelSeeds, Fig13ShapeAlwaysContiguous) {
  auto g = grid_dual(16, 16);
  part::partition_options opt;
  opt.k = 8;
  opt.seed = GetParam();
  const auto p = part::multilevel_partition(g, opt);
  part::validate_partition(g, p, 8);
  EXPECT_TRUE(part::parts_contiguous(g, p, 8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultilevelSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));
