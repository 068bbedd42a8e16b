///
/// \file auto_rebalancer.cpp
/// \brief Implementation of the live Algorithm 1 loop (docs/balance.md):
/// interval gating, busy-time sampling, trigger/cooldown policy, and the
/// bounded balance_step whose migrate callback is dist_solver::migrate_sd.
///

#include "balance/auto_rebalancer.hpp"

#include <algorithm>
#include <cmath>

#include "balance/load_model.hpp"
#include "dist/dist_solver.hpp"
#include "obs/tracer.hpp"

namespace nlh::balance {

namespace {

/// Each locality's pool busy fraction over the window since the last
/// reset: the paper's busy_time counter.
std::vector<double> default_sample(const dist::dist_solver& solver) {
  std::vector<double> busy;
  busy.reserve(static_cast<std::size_t>(solver.owners().num_nodes()));
  for (int l = 0; l < solver.owners().num_nodes(); ++l)
    busy.push_back(solver.busy_fraction(l));
  return busy;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

auto_rebalancer::auto_rebalancer(rebalance_policy policy)
    : policy_(policy) {}

std::optional<balance_report> auto_rebalancer::on_step(
    dist::dist_solver& solver) {
  if (!policy_.enabled) return std::nullopt;
  if (++steps_since_check_ < policy_.interval) return std::nullopt;
  steps_since_check_ = 0;
  ++stats_.checks;

  const auto busy = sampler_ ? sampler_(solver) : default_sample(solver);
  // Fresh measurement window for the next check regardless of what this
  // one decides (Algorithm 1 line 35).
  solver.reset_busy_counters();

  // Trigger evaluation on the *unmodified* ownership: eq. 8-10 without the
  // redistribution, so a below-threshold check costs three vector passes
  // and no migration machinery.
  const auto counts = solver.owners().sd_counts();
  balance_options bopts;
  bopts.deadband = policy_.deadband;
  bopts.max_moves = policy_.max_moves;
  const auto power = compute_power(counts, busy);
  const auto expected = expected_sds(counts, power);
  const auto imbalance = load_imbalance(counts, expected);
  const double imb_before = max_abs(imbalance);
  stats_.last_imbalance_before = imb_before;
  stats_.last_imbalance_after = imb_before;

  if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
    return std::nullopt;
  }
  if (imb_before < policy_.trigger) return std::nullopt;

  ++stats_.epochs;
  NLH_TRACE_SPAN_ARG("balance/epoch", stats_.epochs);

  // Balance a copy; each move is executed through the solver (which keeps
  // its own map in sync and dirties the cached step_plan), so copy and
  // solver agree exactly once balance_step returns — the property
  // auto_rebalance_test asserts per epoch.
  auto own = solver.owners();
  auto rep = balance_step(solver.sd_tiling(), own, busy, bopts,
                          [&solver](const sd_move& m) {
                            solver.migrate_sd(m.sd, m.to_node);
                          });
  stats_.moves += static_cast<std::uint64_t>(rep.moves.size());

  // Post-epoch imbalance against the same measured power: how far from the
  // expected distribution the *new* ownership sits.
  stats_.last_imbalance_after =
      max_abs(load_imbalance(rep.sd_counts_after, rep.expected));

  if (!rep.moves.empty()) cooldown_remaining_ = policy_.cooldown;
  if (observer_) observer_(rep);
  return rep;
}

}  // namespace nlh::balance
