// Tests for the second extension batch: execution-trace export, induced
// subgraphs and recursive-bisection partitioning.

#include <gtest/gtest.h>

#include <sstream>

#include "dist/sim_dist.hpp"
#include "partition/mesh_dual.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "sim/cluster_sim.hpp"

namespace part = nlh::partition;
namespace sim = nlh::sim;
namespace dist = nlh::dist;

// ------------------------------------------------------------ trace export ----

TEST(TraceExport, RecordsSortedWithCores) {
  sim::cluster_sim cs(1, 2);
  const int a = cs.add_task(0, 2.0, {}, "alpha");
  const int b = cs.add_task(0, 1.0, {}, "beta");
  const int c = cs.add_task(0, 1.0, {a, b}, "gamma");
  cs.run();
  const auto recs = cs.task_records();
  ASSERT_EQ(recs.size(), 3u);
  // Sorted by start; a and b start at 0 on different cores.
  EXPECT_DOUBLE_EQ(recs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(recs[1].start, 0.0);
  EXPECT_NE(recs[0].core, recs[1].core);
  EXPECT_EQ(recs[2].label, "gamma");
  EXPECT_DOUBLE_EQ(recs[2].start, 2.0);  // after the slower parent
  (void)c;
}

TEST(TraceExport, ChromeJsonIsWellFormedEnough) {
  sim::cluster_sim cs(2, 1);
  cs.add_task(0, 1.0, {}, "compute");
  cs.add_task(1, 1.0, {}, "other");
  cs.run();
  std::ostringstream os;
  cs.write_chrome_trace(os);
  const auto s = os.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"name\": \"compute\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(s.rfind("]"), std::string::npos);
}

TEST(TraceExport, SimDistEmitsLabeledTasks) {
  dist::tiling t(2, 2, 10, 2);
  const dist::ownership_map own(t, 2, {0, 1, 1, 0});
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  std::ostringstream trace;
  cluster.chrome_trace = &trace;
  dist::simulate_timestepping(t, own, 2, cost, cluster);
  const auto s = trace.str();
  EXPECT_NE(s.find("sd0:interior@0"), std::string::npos);
  EXPECT_NE(s.find("sd3:boundary@1"), std::string::npos);
}

// -------------------------------------------------------- induced subgraph ----

namespace {
part::graph grid_dual(int rows, int cols) {
  part::mesh_dual_options opt;
  opt.sd_rows = rows;
  opt.sd_cols = cols;
  opt.sd_size = 4;
  opt.ghost_width = 1;
  return part::build_mesh_dual(opt);
}
}  // namespace

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  auto g = grid_dual(3, 3);
  // Top row: vertices 0,1,2 form a path (plus no diagonals inside a row).
  const auto sub = part::induced_subgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));
}

TEST(InducedSubgraph, CarriesWeights) {
  part::mesh_dual_options opt;
  opt.sd_rows = 1;
  opt.sd_cols = 3;
  opt.sd_size = 5;
  opt.ghost_width = 2;
  opt.sd_work = {1.0, 2.0, 3.0};
  auto g = part::build_mesh_dual(opt);
  const auto sub = part::induced_subgraph(g, {1, 2});
  EXPECT_DOUBLE_EQ(sub.vwgt(0), 2.0);
  EXPECT_DOUBLE_EQ(sub.vwgt(1), 3.0);
  EXPECT_DOUBLE_EQ(sub.adjwgt(sub.xadj(0)), 10.0);  // sd_size * ghost
}

// --------------------------------------------------- recursive bisection ----

TEST(RecursiveBisection, ValidBalancedContiguousOnGrid) {
  auto g = grid_dual(8, 8);
  part::partition_options opt;
  opt.k = 4;
  const auto p = part::recursive_bisection_partition(g, opt);
  part::validate_partition(g, p, 4);
  const auto w = part::part_weights(g, p, 4);
  for (double x : w) EXPECT_GT(x, 0.0);
  EXPECT_LE(part::balance_factor(g, p, 4), 1.35);
}

TEST(RecursiveBisection, CutCompetitiveWithDirectKway) {
  auto g = grid_dual(16, 16);
  part::partition_options opt;
  opt.k = 8;
  const auto rb = part::recursive_bisection_partition(g, opt);
  const auto kw = part::multilevel_partition(g, opt);
  EXPECT_LE(part::edge_cut(g, rb), 1.6 * part::edge_cut(g, kw));
}

TEST(RecursiveBisection, DeterministicForSeed) {
  auto g = grid_dual(8, 8);
  part::partition_options opt;
  opt.k = 4;
  opt.seed = 77;
  EXPECT_EQ(part::recursive_bisection_partition(g, opt),
            part::recursive_bisection_partition(g, opt));
}

TEST(RecursiveBisection, KOneIsTrivial) {
  auto g = grid_dual(4, 4);
  part::partition_options opt;
  opt.k = 1;
  const auto p = part::recursive_bisection_partition(g, opt);
  for (int v : p) EXPECT_EQ(v, 0);
}
