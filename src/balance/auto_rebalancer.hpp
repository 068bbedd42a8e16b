#pragma once
///
/// \file auto_rebalancer.hpp
/// \brief The live Algorithm 1 loop: between timesteps of the *running*
/// `dist_solver`, sample per-locality busy time, decide whether the cluster
/// is imbalanced enough to act, and execute a bounded batch of epoch-tagged
/// `migrate_sd` calls (docs/balance.md).
///
/// Where the offline virtual-time driver (sim_driver) owns the stepping
/// loop, the auto_rebalancer is owned *by* the solver: `dist_solver`
/// constructs one when `dist_config::rebalance.enabled` and calls
/// `on_step()` after every completed step, so rebalancing interleaves with
/// normal stepping without any caller cooperation. Because migrations only
/// rewrite ownership and ship bitwise-identical interior fields (and the
/// step_plan recompiles before the next step reads it), the serial==dist
/// bitwise guarantee survives arbitrary rebalance schedules — the property
/// `tests/auto_rebalance_test.cpp` hammers.
///

#include <functional>
#include <optional>
#include <vector>

#include "balance/balancer.hpp"
#include "balance/policy.hpp"

namespace nlh::dist {
class dist_solver;
}

namespace nlh::balance {

class auto_rebalancer {
 public:
  /// Replaces the default busy-time source, `dist_solver::busy_fraction(l)`
  /// per locality. Returns one busy value per locality; tests inject
  /// synthetic loads here to make move sequences deterministic.
  using busy_sampler =
      std::function<std::vector<double>(const dist::dist_solver&)>;
  /// Observes every epoch's balance_report right after its migrations
  /// completed (still inside the solver's step; don't call back into the
  /// solver's stepping API from it).
  using epoch_observer = std::function<void(const balance_report&)>;

  explicit auto_rebalancer(rebalance_policy policy);

  const rebalance_policy& policy() const { return policy_; }
  const rebalance_stats& stats() const { return stats_; }

  void set_sampler(busy_sampler sampler) { sampler_ = std::move(sampler); }
  void set_epoch_observer(epoch_observer obs) { observer_ = std::move(obs); }

  /// The solver calls this after every completed step (serialized with
  /// stepping, like gather()). Every `policy().interval` steps it samples
  /// busy time, resets the busy counters (Algorithm 1 line 35 — each check
  /// measures a fresh window) and, outside the cooldown and with the
  /// trigger reached, runs one `balance_step` that migrates through
  /// `solver.migrate_sd`. Returns the epoch's report, nullopt when no
  /// epoch fired.
  std::optional<balance_report> on_step(dist::dist_solver& solver);

 private:
  rebalance_policy policy_;
  rebalance_stats stats_;
  busy_sampler sampler_;
  epoch_observer observer_;
  int steps_since_check_ = 0;
  int cooldown_remaining_ = 0;
};

}  // namespace nlh::balance
