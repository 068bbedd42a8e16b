// Unit tests for the load-balancing building blocks: eq. 8-10, the
// dependency tree and contiguity-preserving SD transfer.

#include <gtest/gtest.h>

#include <cmath>

#include "balance/balancer.hpp"
#include "balance/dependency_tree.hpp"
#include "balance/load_model.hpp"
#include "balance/render.hpp"
#include "balance/transfer.hpp"

namespace bal = nlh::balance;
namespace dist = nlh::dist;

// -------------------------------------------------------------- eq. 8-10 ----

TEST(LoadModel, PowerIsSdPerBusy) {
  const auto p = bal::compute_power({4, 8}, {2.0, 2.0});
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 4.0);
}

TEST(LoadModel, IdleNodeGetsFiniteePower) {
  const auto p = bal::compute_power({0, 4}, {0.0, 1.0}, 1e-3);
  EXPECT_GT(p[0], 0.0);
  EXPECT_TRUE(std::isfinite(p[0]));
}

TEST(LoadModel, ExpectedSdsProportionalToPower) {
  // Node 1 twice as powerful: expects twice the SDs.
  const std::vector<int> counts{6, 6};
  const std::vector<double> power{1.0, 2.0};
  const auto e = bal::expected_sds(counts, power);
  EXPECT_DOUBLE_EQ(e[0], 4.0);
  EXPECT_DOUBLE_EQ(e[1], 8.0);
}

TEST(LoadModel, ExpectedSumsToTotal) {
  const std::vector<int> counts{3, 7, 2, 13};
  const std::vector<double> power{0.5, 1.5, 2.5, 0.1};
  const auto e = bal::expected_sds(counts, power);
  double sum = 0.0;
  for (double v : e) sum += v;
  EXPECT_NEAR(sum, 25.0, 1e-9);
}

TEST(LoadModel, ImbalanceSignConvention) {
  // Per the paper: positive -> node has less load than it can take.
  const std::vector<int> counts{2, 10};
  const std::vector<double> expected{6.0, 6.0};
  const auto imb = bal::load_imbalance(counts, expected);
  EXPECT_DOUBLE_EQ(imb[0], 4.0);   // under-loaded, should borrow
  EXPECT_DOUBLE_EQ(imb[1], -4.0);  // over-loaded, should lend
}

TEST(LoadModel, BalancedClusterHasZeroImbalance) {
  const std::vector<int> counts{5, 5, 5, 5};
  const auto p = bal::compute_power(counts, {1.0, 1.0, 1.0, 1.0});
  const auto e = bal::expected_sds(counts, p);
  const auto imb = bal::load_imbalance(counts, e);
  for (double v : imb) EXPECT_NEAR(v, 0.0, 1e-9);
}

// -------------------------------------------------------- dependency tree ----

TEST(DependencyTree, RootIsArgminImbalance) {
  const std::vector<std::vector<int>> adj{{1}, {0, 2}, {1}};
  const auto tree = bal::build_dependency_tree(adj, {1.0, -3.0, 2.0});
  EXPECT_EQ(tree.root, 1);
  EXPECT_EQ(tree.order.front(), 1);
}

TEST(DependencyTree, ParentBeforeChildren) {
  const std::vector<std::vector<int>> adj{{1, 2}, {0, 3}, {0}, {1}};
  const auto tree = bal::build_dependency_tree(adj, {-1.0, 0.0, 0.0, 0.0});
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(tree.order[i])] = i;
  for (int v = 0; v < 4; ++v) {
    if (tree.parent[static_cast<std::size_t>(v)] != -1) {
      EXPECT_LT(pos[static_cast<std::size_t>(tree.parent[static_cast<std::size_t>(v)])],
                pos[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(DependencyTree, SpanningTreeCoversConnectedGraph) {
  const std::vector<std::vector<int>> adj{{1, 2, 3}, {0, 2}, {0, 1}, {0}};
  const auto tree = bal::build_dependency_tree(adj, {0, 0, 0, 0});
  EXPECT_EQ(tree.order.size(), 4u);
  int roots = 0;
  for (int v = 0; v < 4; ++v) roots += tree.parent[static_cast<std::size_t>(v)] == -1;
  EXPECT_EQ(roots, 1);
}

TEST(DependencyTree, DisconnectedNodesBecomeIsolatedRoots) {
  const std::vector<std::vector<int>> adj{{1}, {0}, {}};
  const auto tree = bal::build_dependency_tree(adj, {0.0, 0.0, 5.0});
  EXPECT_EQ(tree.order.size(), 3u);
  EXPECT_EQ(tree.parent[2], -1);
}

TEST(DependencyTree, PaperFig7Shape) {
  // Fig. 7: chain 1-2, 1-4, 4-3 (0-indexed: 0-1, 0-3, 3-2), root node 0,
  // expected order 0 -> {1,3} -> 2.
  const std::vector<std::vector<int>> adj{{1, 3}, {0}, {3}, {0, 2}};
  const auto tree = bal::build_dependency_tree(adj, {-5.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(tree.root, 0);
  EXPECT_EQ(tree.order[0], 0);
  EXPECT_EQ(tree.parent[2], 3);  // node 2 hangs off node 3
}

// ----------------------------------------------------------------- transfer ----

namespace {
dist::tiling make_tiling(int g = 5) { return dist::tiling(g, g, 4, 1); }

dist::ownership_map halves(const dist::tiling& t) {
  std::vector<int> owner(static_cast<std::size_t>(t.num_sds()), 0);
  for (int sd = 0; sd < t.num_sds(); ++sd)
    if (t.sd_col(sd) >= t.sd_cols() / 2) owner[static_cast<std::size_t>(sd)] = 1;
  return dist::ownership_map(t, 2, owner);
}
}  // namespace

TEST(Transfer, MovesRequestedCount) {
  auto t = make_tiling();
  auto own = halves(t);
  const auto before = own.sd_counts();
  const auto moves = bal::transfer_sds(t, own, 0, 1, 3);
  EXPECT_EQ(moves.size(), 3u);
  const auto after = own.sd_counts();
  EXPECT_EQ(after[0], before[0] - 3);
  EXPECT_EQ(after[1], before[1] + 3);
}

TEST(Transfer, ConservesTotalSds) {
  auto t = make_tiling();
  auto own = halves(t);
  bal::transfer_sds(t, own, 1, 0, 4);
  int total = 0;
  for (int c : own.sd_counts()) total += c;
  EXPECT_EQ(total, t.num_sds());
}

TEST(Transfer, OnlyFrontierSdsMove) {
  auto t = make_tiling();
  auto own = halves(t);
  const auto moves = bal::transfer_sds(t, own, 0, 1, 5);
  for (const auto& m : moves) {
    EXPECT_EQ(m.from_node, 0);
    EXPECT_EQ(m.to_node, 1);
  }
  // After moving the whole boundary layer the borrower's region is still a
  // single connected blob.
  EXPECT_TRUE(bal::removal_keeps_connected(t, own, own.sds_of(1).front(), 1) ||
              own.sds_of(1).size() == 1);
}

TEST(Transfer, PreservesLenderContiguity) {
  auto t = make_tiling();
  auto own = halves(t);
  bal::transfer_sds(t, own, 0, 1, 6);
  // Verify both SPs are connected via BFS over the SD grid.
  for (int node = 0; node < 2; ++node) {
    const auto sds = own.sds_of(node);
    ASSERT_FALSE(sds.empty());
    // Count components by repeated removal check: simplest is a direct BFS.
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
    EXPECT_EQ(reached, sds.size()) << "node " << node;
  }
}

TEST(Transfer, NeverEmptiesLender) {
  dist::tiling t(2, 2, 4, 1);
  dist::ownership_map own(t, 2, {0, 1, 1, 1});
  const auto moves = bal::transfer_sds(t, own, 0, 1, 10);
  EXPECT_TRUE(moves.empty());  // lender has one SD: nothing may move
  EXPECT_EQ(own.owner(0), 0);
}

TEST(Transfer, StopsWhenNotAdjacent) {
  // Nodes 0 and 2 are separated by node 1's strip: no direct transfer.
  dist::tiling t(3, 3, 4, 1);
  std::vector<int> owner{0, 1, 2, 0, 1, 2, 0, 1, 2};
  dist::ownership_map own(t, 3, owner);
  const auto moves = bal::transfer_sds(t, own, 0, 2, 2);
  EXPECT_TRUE(moves.empty());
}

TEST(Transfer, ScoreRejectsNonFrontier) {
  auto t = make_tiling();
  auto own = halves(t);  // node 1 owns columns >= 2
  // Column 0 is not adjacent to node 1's half; column 1 is the frontier.
  EXPECT_LT(bal::transfer_score(t, own, t.sd_at(0, 0), 0, 1), 0.0);
  EXPECT_GE(bal::transfer_score(t, own, t.sd_at(0, 1), 0, 1), 0.0);
}

// ----------------------------------------------------------------- balancer ----

TEST(BalanceStep, MovesFromSlowToFast) {
  auto t = make_tiling();
  auto own = halves(t);  // ~12 / 13 SDs
  // Node 1 is twice as fast (half the busy time for similar SD counts).
  const auto rep = bal::balance_step(t, own, {2.0, 1.0});
  EXPECT_GT(rep.moves.size(), 0u);
  const auto counts = own.sd_counts();
  EXPECT_GT(counts[1], counts[0]);
  // SD conservation.
  EXPECT_EQ(counts[0] + counts[1], t.num_sds());
}

TEST(BalanceStep, NoMovesWhenBalanced) {
  // Equal halves, equal busy times: power and expected counts match, so the
  // imbalance sits inside the deadband and nothing moves.
  dist::tiling t(4, 4, 4, 1);
  auto own = halves(t);
  ASSERT_EQ(own.sd_counts(), (std::vector<int>{8, 8}));
  const auto rep = bal::balance_step(t, own, {1.0, 1.0});
  EXPECT_TRUE(rep.moves.empty());
}

TEST(BalanceStep, ReportFieldsConsistent) {
  auto t = make_tiling();
  auto own = halves(t);
  const auto rep = bal::balance_step(t, own, {3.0, 1.0});
  EXPECT_EQ(rep.sd_counts_before.size(), 2u);
  EXPECT_EQ(rep.power.size(), 2u);
  EXPECT_EQ(rep.sd_counts_after, own.sd_counts());
  int before = 0, after = 0;
  for (int c : rep.sd_counts_before) before += c;
  for (int c : rep.sd_counts_after) after += c;
  EXPECT_EQ(before, after);
}

TEST(BalanceStep, MigrateCallbackSeesEveryMove) {
  auto t = make_tiling();
  auto own = halves(t);
  int callbacks = 0;
  const auto rep = bal::balance_step(t, own, {2.5, 1.0}, {},
                                     [&](const bal::sd_move&) { ++callbacks; });
  EXPECT_EQ(callbacks, static_cast<int>(rep.moves.size()));
}

TEST(BalanceStep, DeadbandSuppressesTinyMoves) {
  auto t = make_tiling();
  auto own = halves(t);
  bal::balance_options opts;
  opts.deadband = 100.0;  // everything within deadband
  const auto rep = bal::balance_step(t, own, {5.0, 1.0}, opts);
  EXPECT_TRUE(rep.moves.empty());
}

// ------------------------------------------------------------------ render ----

TEST(Render, OwnershipMapShape) {
  dist::tiling t(2, 3, 4, 1);
  dist::ownership_map own(t, 2, {0, 0, 1, 0, 1, 1});
  const auto s = bal::render_ownership(t, own);
  EXPECT_EQ(s, "001\n011\n");
}

TEST(Render, SideBySideContainsBoth) {
  dist::tiling t(2, 2, 4, 1);
  dist::ownership_map a(t, 2, {0, 0, 1, 1});
  dist::ownership_map b(t, 2, {0, 1, 0, 1});
  const auto s = bal::render_side_by_side(t, a, b);
  EXPECT_NE(s.find("00"), std::string::npos);
  EXPECT_NE(s.find("01"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}
