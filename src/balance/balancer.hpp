#pragma once
///
/// \file balancer.hpp
/// \brief Algorithm 1 end to end: busy times -> power -> expected SDs ->
/// imbalance -> dependency tree -> topological redistribution.
///

#include <functional>
#include <vector>

#include "balance/dependency_tree.hpp"
#include "balance/load_model.hpp"
#include "balance/transfer.hpp"
#include "dist/ownership.hpp"
#include "dist/tiling.hpp"

namespace nlh::balance {

struct balance_options {
  /// Nodes whose |imbalance| is below this many SDs are left alone; avoids
  /// thrashing single SDs back and forth between near-balanced nodes.
  double deadband = 0.5;
  /// Hard cap on the number of SD moves one balance_step may perform;
  /// 0 = unlimited. With a cap, the dependency-tree walk stops transferring
  /// once the budget is spent, so `own`, `migrate` invocations and
  /// `balance_report::moves` all agree on exactly the capped prefix.
  int max_moves = 0;
};

/// Everything one balancing iteration computed and did (report for logging,
/// benches and tests).
struct balance_report {
  std::vector<int> sd_counts_before;
  std::vector<double> power;       ///< eq. (8)
  std::vector<double> expected;    ///< eq. (10)
  std::vector<double> imbalance;   ///< eq. (9), before redistribution
  dependency_tree tree;
  std::vector<sd_move> moves;      ///< SD migrations actually performed
  std::vector<int> sd_counts_after;
};

/// Run one load-balancing iteration on `own` given the nodes' measured busy
/// times. The caller is responsible for resetting the busy-time counters
/// afterwards (Algorithm 1 line 35) — in this API the counters are owned by
/// the caller.
///
/// Migrate-callback contract (`migrate`, optional): invoked synchronously on
/// the calling thread, exactly once per SD move, in exactly the order the
/// moves appear in the returned `balance_report::moves` — i.e. the i-th
/// callback receives a value equal to `rep.moves[i]`, for every i, and the
/// callback count equals `rep.moves.size()`. Callers transfer the actual
/// field data here (dist_solver::migrate_sd). Moves never have
/// `from_node == to_node`. Note that `own` is updated in contiguous batches
/// *before* the callbacks for that batch fire, so a callback must use its
/// `sd_move` argument — not `own` — to learn the move's source node.
/// balance_integration_test asserts this ordering contract.
balance_report balance_step(const dist::tiling& t, dist::ownership_map& own,
                            const std::vector<double>& busy_time,
                            const balance_options& opts = {},
                            const std::function<void(const sd_move&)>& migrate = {});

}  // namespace nlh::balance
