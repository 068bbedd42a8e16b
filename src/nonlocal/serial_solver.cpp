#include "nonlocal/serial_solver.hpp"

#include <chrono>

#include "nonlocal/nonlocal_operator.hpp"
#include "support/assert.hpp"

namespace nlh::nonlocal {

serial_solver::serial_solver(const solver_config& cfg,
                             std::shared_ptr<const api::scenario> scn)
    : cfg_(cfg),
      grid_(cfg.n, cfg.epsilon_factor / cfg.n),
      J_(cfg.kind),
      stencil_(grid_, J_),
      c_(J_.scaling_constant(cfg.conductivity, grid_.epsilon())),
      dt_(cfg.dt > 0.0 ? cfg.dt : cfg.dt_safety * stable_dt(c_, stencil_)),
      plan_(stencil_),
      scenario_(scn ? std::move(scn)
                    : std::make_shared<const api::manufactured_scenario>()),
      u_(grid_.make_field()),
      lu_(grid_.make_field()),
      w_scratch_(grid_.make_field()),
      b_scratch_(grid_.make_field()) {
  if (cfg.backend) plan_.set_backend(*cfg.backend);
}

void serial_solver::set_initial_condition() {
  for (int i = 0; i < grid_.n(); ++i)
    for (int j = 0; j < grid_.n(); ++j)
      u_[grid_.flat(i, j)] = scenario_->initial(grid_.x(j), grid_.y(i));
}

void serial_solver::set_field(std::vector<double> u) {
  NLH_ASSERT(u.size() == grid_.total());
  u_ = std::move(u);
}

void serial_solver::step(int step_index) {
  const double t = step_index * dt_;
  const dp_rect all{0, grid_.n(), 0, grid_.n()};

  // b(t) through the scenario (manufactured: b = dw/dt - L_h[w] at the
  // discrete level, with w precomputed into the aux scratch).
  scenario_->fill_aux(context(), t, all, w_scratch_);
  scenario_->source_into(context(), t, w_scratch_, all, b_scratch_);

  const auto t0 = std::chrono::steady_clock::now();
  apply_nonlocal_operator(grid_, plan_, c_, u_, lu_, all);
  const auto t1 = std::chrono::steady_clock::now();
  kstats_.applies += 1;
  kstats_.blocks += count_blocks(plan_.blocking(), all.row_begin, all.row_end,
                                 all.col_begin, all.col_end);
  kstats_.dps += static_cast<std::uint64_t>(grid_.n()) * grid_.n();
  kstats_.seconds += std::chrono::duration<double>(t1 - t0).count();

  // Forward Euler (eq. 5) on the interior; the collar keeps the volumetric
  // boundary condition u = 0 (eq. 4).
  for (int i = 0; i < grid_.n(); ++i)
    for (int j = 0; j < grid_.n(); ++j) {
      const auto idx = grid_.flat(i, j);
      u_[idx] += dt_ * (lu_[idx] + b_scratch_[idx]);
    }
}

}  // namespace nlh::nonlocal
