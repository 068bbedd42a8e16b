#pragma once
///
/// \file serial_solver.hpp
/// \brief Single-threaded reference solver for eq. (5): forward Euler over
/// the precomputed epsilon-ball stencil.
///
/// This is the paper's "serial implementation" baseline and the ground truth
/// every distributed configuration is verified against (the distributed
/// solver must reproduce it to FP round-off).
///
/// The initial condition, source term and (optional) exact solution come
/// from a pluggable api::scenario; the default is the manufactured problem
/// of §3.2, which reproduces the historical hard-wired behaviour bitwise.
///

#include <memory>
#include <optional>
#include <vector>

#include "api/scenario.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/problem.hpp"
#include "nonlocal/stencil.hpp"

namespace nlh::nonlocal {

struct solver_config {
  int n = 64;                 ///< interior DPs per dimension
  double epsilon_factor = 8;  ///< epsilon = factor * h (paper uses 8h)
  double conductivity = 1.0;  ///< classical k
  double dt = 0.0;            ///< 0 = use the stability bound * safety
  double dt_safety = 0.5;     ///< fraction of the stability bound
  influence_kind kind = influence_kind::constant;
  /// Kernel backend this solver's plan is pinned to; nullopt keeps the
  /// plan following the process default (the historical behaviour).
  std::optional<kernel_backend> backend;
};

class serial_solver {
 public:
  /// \param scn the workload; null selects the manufactured scenario.
  explicit serial_solver(const solver_config& cfg,
                         std::shared_ptr<const api::scenario> scn = nullptr);

  const grid2d& grid() const { return grid_; }
  const stencil_plan& kernel_plan() const { return plan_; }
  /// Backend every DP update of this solver dispatches to (the pinned one
  /// when solver_config::backend was set, else the process default).
  kernel_backend backend() const { return plan_.backend(); }
  double scaling_constant() const { return c_; }
  double dt() const { return dt_; }
  const api::scenario& active_scenario() const { return *scenario_; }

  /// Initialize u to the scenario's initial condition.
  void set_initial_condition();

  /// Set a caller-provided initial field (padded layout).
  void set_field(std::vector<double> u);
  const std::vector<double>& field() const { return u_; }

  /// Advance one forward-Euler step, u += dt * (L_h u + b(t_k)), from time
  /// t_k = step_index * dt using the scenario's source.
  void step(int step_index);

  /// Cumulative kernel execution counters (operator applies, blocks walked,
  /// DPs updated, seconds in the hot loop) since construction. Feeds the
  /// kernel/* observables the API layer exports (docs/observability.md).
  const kernel_exec_stats& kernel_stats() const { return kstats_; }

 private:
  api::scenario_context context() const { return {&grid_, &plan_, c_}; }

  solver_config cfg_;
  grid2d grid_;
  influence J_;
  stencil stencil_;
  double c_;
  double dt_;
  stencil_plan plan_;
  std::shared_ptr<const api::scenario> scenario_;
  std::vector<double> u_;
  std::vector<double> lu_;      ///< scratch: L_h[u]
  std::vector<double> w_scratch_;
  std::vector<double> b_scratch_;
  kernel_exec_stats kstats_;
};

}  // namespace nlh::nonlocal
