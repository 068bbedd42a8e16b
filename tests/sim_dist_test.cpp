// Tests for the virtual-time twin of the distributed solver: scaling shape,
// overlap behaviour, busy accounting.

#include <gtest/gtest.h>

#include "dist/sim_dist.hpp"
#include "partition/partitioner.hpp"

namespace dist = nlh::dist;
namespace sim = nlh::sim;

namespace {

dist::ownership_map block_ownership(const dist::tiling& t, int nodes) {
  const auto part = nlh::partition::block_partition(t.sd_rows(), t.sd_cols(), nodes);
  return dist::ownership_map::from_partition(t, nodes, part);
}

}  // namespace

TEST(SimDist, SingleNodeMakespanEqualsTotalWork) {
  dist::tiling t(2, 2, 10, 2);
  auto own = dist::ownership_map::single_node(t);
  dist::sim_cost_model cost;
  cost.work_per_dp = 1.0;
  dist::sim_cluster_config cluster;
  cluster.cores_per_node = 1;
  const auto res = dist::simulate_timestepping(t, own, 3, cost, cluster);
  // 4 SDs * 100 DPs * 3 steps, speed 1.
  EXPECT_DOUBLE_EQ(res.makespan, 1200.0);
  EXPECT_DOUBLE_EQ(res.node_busy[0], 1200.0);
  EXPECT_DOUBLE_EQ(res.node_busy_fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(res.network_bytes, 0.0);
}

TEST(SimDist, WorkConservedAcrossNodeCounts) {
  dist::tiling t(4, 4, 10, 2);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  double total_1 = 0.0;
  for (int nodes : {1, 2, 4}) {
    auto own = block_ownership(t, nodes);
    const auto res = dist::simulate_timestepping(t, own, 2, cost, cluster);
    double total = 0.0;
    for (double b : res.node_busy) total += b;
    if (nodes == 1)
      total_1 = total;
    else
      EXPECT_NEAR(total, total_1, 1e-9) << nodes;  // same work, just spread
  }
}

TEST(SimDist, MoreNodesFasterWithCheapNetwork) {
  dist::tiling t(4, 4, 50, 8);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  cluster.net.latency_s = 1e-7;
  cluster.net.bandwidth_bytes_per_s = 1e12;
  double prev = 1e18;
  for (int nodes : {1, 2, 4}) {
    auto own = block_ownership(t, nodes);
    const auto res = dist::simulate_timestepping(t, own, 5, cost, cluster);
    EXPECT_LT(res.makespan, prev) << nodes << " nodes";
    prev = res.makespan;
  }
}

TEST(SimDist, NearLinearSpeedupShape) {
  // The paper's strong-scaling claim: with enough SDs and a fast network,
  // speedup is near-linear in nodes.
  dist::tiling t(8, 8, 50, 8);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  cluster.net.latency_s = 1e-6;
  cluster.net.bandwidth_bytes_per_s = 1e10;
  auto run = [&](int nodes) {
    auto own = block_ownership(t, nodes);
    return dist::simulate_timestepping(t, own, 5, cost, cluster).makespan;
  };
  const double t1 = run(1);
  const double s2 = t1 / run(2);
  const double s4 = t1 / run(4);
  EXPECT_GT(s2, 1.8);
  EXPECT_LE(s2, 2.000001);
  EXPECT_GT(s4, 3.4);
  EXPECT_LE(s4, 4.000001);
}

TEST(SimDist, SlowNetworkDegradesScaling) {
  dist::tiling t(4, 4, 50, 8);
  dist::sim_cost_model cost;
  auto speedup4 = [&](double bandwidth) {
    dist::sim_cluster_config cluster;
    cluster.net.latency_s = 1e-6;
    cluster.net.bandwidth_bytes_per_s = bandwidth;
    auto own1 = dist::ownership_map::single_node(t);
    auto own4 = block_ownership(t, 4);
    const double t1 = dist::simulate_timestepping(t, own1, 3, cost, cluster).makespan;
    const double t4 = dist::simulate_timestepping(t, own4, 3, cost, cluster).makespan;
    return t1 / t4;
  };
  // A moderately slow network (1e4 B/s here) is still fully hidden by the
  // case-2 overlap — the paper's §6.3 point — so the crossover only appears
  // once per-strip transfer time exceeds a whole step's compute.
  EXPECT_NEAR(speedup4(1e12), speedup4(1e4), 0.05 * speedup4(1e12));
  EXPECT_GT(speedup4(1e12), speedup4(0.01));
}

TEST(SimDist, GhostTrafficScalesWithCutBoundary) {
  dist::tiling t(4, 4, 10, 2);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  // Strip (1-D) partitions cut more boundary than blocks (2-D) at 4 parts.
  const auto strip = dist::ownership_map::from_partition(
      t, 4, nlh::partition::strip_partition(4, 4, 4));
  const auto block = block_ownership(t, 4);
  const auto r_strip = dist::simulate_timestepping(t, strip, 2, cost, cluster);
  const auto r_block = dist::simulate_timestepping(t, block, 2, cost, cluster);
  EXPECT_GT(r_strip.network_bytes, r_block.network_bytes);
}

TEST(SimDist, SlowNodeShowsLowBusyOnOthers) {
  // One slow node forces others to wait at the step barrier: their busy
  // fraction drops — exactly the signal the balancer reads.
  dist::tiling t(4, 4, 10, 2);
  auto own = block_ownership(t, 4);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  cluster.node_capacity = std::vector<sim::capacity_trace>(
      4, sim::capacity_trace::constant(1.0));
  cluster.node_capacity[0] = sim::capacity_trace::constant(0.25);
  const auto res = dist::simulate_timestepping(t, own, 4, cost, cluster);
  EXPECT_GT(res.node_busy_fraction[0], 0.9);  // the slow node is saturated
  for (int n = 1; n < 4; ++n)
    EXPECT_LT(res.node_busy_fraction[static_cast<std::size_t>(n)], 0.6) << n;
}

TEST(SimDist, CrackScaleReducesWork) {
  dist::tiling t(2, 2, 10, 2);
  auto own = dist::ownership_map::single_node(t);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  const auto full = dist::simulate_timestepping(t, own, 2, cost, cluster);
  cost.sd_work_scale = {0.5, 1.0, 1.0, 1.0};
  const auto cracked = dist::simulate_timestepping(t, own, 2, cost, cluster);
  EXPECT_LT(cracked.makespan, full.makespan);
  EXPECT_DOUBLE_EQ(full.makespan - cracked.makespan, 100.0);  // 0.5*100DP*2steps
}

TEST(SimDist, PackWorkAddsCost) {
  dist::tiling t(1, 2, 10, 2);
  const dist::ownership_map own(t, 2, {0, 1});
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  const auto base = dist::simulate_timestepping(t, own, 2, cost, cluster);
  cost.pack_work_per_dp = 0.5;
  const auto packed = dist::simulate_timestepping(t, own, 2, cost, cluster);
  EXPECT_GT(packed.makespan, base.makespan);
}

TEST(SimDist, MultiCoreNodesCompoundWithDistribution) {
  // 2 nodes x 2 cores: speedup over (1 node, 1 core) approaches 4 when
  // there are enough SDs — hybrid shared/distributed parallelism.
  dist::tiling t(4, 4, 50, 8);
  dist::sim_cost_model cost;
  auto run = [&](int nodes, int cores) {
    dist::sim_cluster_config cluster;
    cluster.cores_per_node = cores;
    auto own = block_ownership(t, nodes);
    return dist::simulate_timestepping(t, own, 4, cost, cluster).makespan;
  };
  const double base = run(1, 1);
  EXPECT_NEAR(base / run(1, 2), 2.0, 0.2);
  EXPECT_NEAR(base / run(2, 1), 2.0, 0.2);
  EXPECT_GT(base / run(2, 2), 3.2);
  EXPECT_LE(base / run(2, 2), 4.0 + 1e-9);
}

TEST(SimDist, BusyFractionAccountsForCores) {
  dist::tiling t(2, 2, 10, 2);
  auto own = dist::ownership_map::single_node(t);
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  cluster.cores_per_node = 4;
  // 4 SDs on 4 cores: all cores busy the whole time.
  const auto res = dist::simulate_timestepping(t, own, 3, cost, cluster);
  EXPECT_NEAR(res.node_busy_fraction[0], 1.0, 1e-9);
  EXPECT_NEAR(res.node_busy[0], 4.0 * res.makespan, 1e-6);
}
