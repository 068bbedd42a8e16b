#include "balance/balancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace nlh::balance {

balance_report balance_step(const dist::tiling& t, dist::ownership_map& own,
                            const std::vector<double>& busy_time,
                            const balance_options& opts,
                            const std::function<void(const sd_move&)>& migrate) {
  NLH_ASSERT(static_cast<int>(busy_time.size()) == own.num_nodes());

  balance_report rep;
  rep.sd_counts_before = own.sd_counts();
  rep.power = compute_power(rep.sd_counts_before, busy_time);
  rep.expected = expected_sds(rep.sd_counts_before, rep.power);
  rep.imbalance = load_imbalance(rep.sd_counts_before, rep.expected);
  rep.tree = build_dependency_tree(own.node_adjacency(t), rep.imbalance);

  // Working copy updated as transfers happen (Algorithm 1 lines 21-33).
  std::vector<double> imb = rep.imbalance;

  // Remaining move budget under opts.max_moves (0 = unlimited). Checked
  // before each transfer_sds so `own` never moves an SD the report (and the
  // migrate callbacks) wouldn't account for.
  const auto budget_left = [&]() {
    return opts.max_moves > 0
               ? opts.max_moves - static_cast<int>(rep.moves.size())
               : std::numeric_limits<int>::max();
  };

  for (int i : rep.tree.order) {
    if (budget_left() <= 0) break;
    auto kids = rep.tree.children[static_cast<std::size_t>(i)];
    if (kids.empty()) continue;
    const double imb_i = imb[static_cast<std::size_t>(i)];
    if (std::abs(imb_i) < opts.deadband) continue;

    // Algorithm 1 line 29 divides the imbalance uniformly over the
    // non-visited neighbors. A literal integer division stalls when
    // |imbalance| < L, so the integer total llround(imb_i) is spread
    // largest-remainder style, handing the extra SDs to the children that
    // need them most (largest opposite imbalance first).
    const auto total = static_cast<int>(std::llround(std::abs(imb_i)));
    const int L = static_cast<int>(kids.size());
    std::stable_sort(kids.begin(), kids.end(), [&](int a, int b) {
      const double ia = imb[static_cast<std::size_t>(a)];
      const double ib = imb[static_cast<std::size_t>(b)];
      // Borrowing (imb_i > 0): prefer the most over-loaded child (lowest
      // imbalance); lending: prefer the most under-loaded (highest).
      return imb_i > 0 ? ia < ib : ia > ib;
    });
    // Eq. 9 (imbalance = expected - owned): a child that lends to i owns
    // fewer SDs afterwards, so its imbalance rises by the share, and one
    // that borrows from i needs that much less from its own children.
    const double share = imb_i / static_cast<double>(L);
    int remaining = total;
    for (std::size_t ki = 0; ki < kids.size(); ++ki) {
      const int m = kids[ki];
      imb[static_cast<std::size_t>(m)] += share;
      const int n = (total / L) + (static_cast<int>(ki) < total % L ? 1 : 0);
      const int want = std::min({n, remaining, budget_left()});
      if (want <= 0) continue;
      // imb_i > 0: node i is under-loaded and borrows from the child;
      // imb_i < 0: node i lends to the child.
      const int from = imb_i > 0 ? m : i;
      const int to = imb_i > 0 ? i : m;
      auto moves = transfer_sds(t, own, from, to, want);
      remaining -= static_cast<int>(moves.size());
      for (const auto& mv : moves) {
        if (migrate) migrate(mv);
        rep.moves.push_back(mv);
      }
    }
    imb[static_cast<std::size_t>(i)] = 0.0;
  }

  rep.sd_counts_after = own.sd_counts();
  return rep;
}

}  // namespace nlh::balance
