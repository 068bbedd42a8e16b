// Tests for the nonlocal operator, manufactured problem, error norms and the
// serial forward-Euler solver, including the Fig. 8 convergence property.
// Error-vs-exact runs go through a serial api::session, as bench/fig08 does.

#include <gtest/gtest.h>

#include <cmath>

#include "api/session.hpp"
#include "nonlocal/error.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/problem.hpp"
#include "nonlocal/serial_solver.hpp"

namespace api = nlh::api;
namespace nl = nlh::nonlocal;

namespace {

api::session_options serial_options(int n, int epsilon_factor) {
  api::session_options opt;
  opt.mode = api::execution_mode::serial;
  opt.n = n;
  opt.epsilon_factor = epsilon_factor;
  return opt;
}

/// Run `steps` steps and return e = sum_k e_k (paper eq. 7), summed after
/// every step by the observer.
double run_summing_e(api::solver_handle& solver, int steps) {
  double total_e = 0.0;
  solver.set_observer(
      [&](const api::step_event&) { total_e += solver.error_ek_vs_exact(); });
  solver.run(steps);
  solver.set_observer(nullptr);
  return total_e;
}

}  // namespace

// ------------------------------------------------------ nonlocal operator ----

TEST(NonlocalOperator, ZeroOnConstantField) {
  // L[u] = 0 when u is constant within the horizon (differences vanish).
  nl::grid2d g(16, 2.0 / 16);
  nl::stencil st(g, nl::influence{});
  auto u = g.make_field();
  // Constant everywhere including the collar.
  for (auto& v : u) v = 3.7;
  auto out = g.make_field();
  nl::apply_nonlocal_operator(g, st, 5.0, u, out, {0, g.n(), 0, g.n()});
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j) EXPECT_NEAR(out[g.flat(i, j)], 0.0, 1e-13);
}

TEST(NonlocalOperator, SignOfDiffusion) {
  // A hot spot in a cold field diffuses: L[u] < 0 at the peak, > 0 nearby.
  nl::grid2d g(16, 2.0 / 16);
  nl::stencil st(g, nl::influence{});
  auto u = g.make_field();
  u[g.flat(8, 8)] = 1.0;
  auto out = g.make_field();
  nl::apply_nonlocal_operator(g, st, 1.0, u, out, {0, g.n(), 0, g.n()});
  EXPECT_LT(out[g.flat(8, 8)], 0.0);
  EXPECT_GT(out[g.flat(8, 9)], 0.0);
  EXPECT_GT(out[g.flat(7, 8)], 0.0);
}

TEST(NonlocalOperator, LinearityInField) {
  nl::grid2d g(12, 2.0 / 12);
  nl::stencil st(g, nl::influence{});
  auto u1 = g.make_field();
  auto u2 = g.make_field();
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j) {
      u1[g.flat(i, j)] = std::sin(0.5 * i) + j;
      u2[g.flat(i, j)] = std::cos(0.3 * j) - i;
    }
  auto sum = g.make_field();
  for (std::size_t k = 0; k < sum.size(); ++k) sum[k] = 2.0 * u1[k] + 3.0 * u2[k];
  auto o1 = g.make_field(), o2 = g.make_field(), os = g.make_field();
  const nl::dp_rect all{0, g.n(), 0, g.n()};
  nl::apply_nonlocal_operator(g, st, 1.5, u1, o1, all);
  nl::apply_nonlocal_operator(g, st, 1.5, u2, o2, all);
  nl::apply_nonlocal_operator(g, st, 1.5, sum, os, all);
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      EXPECT_NEAR(os[g.flat(i, j)], 2.0 * o1[g.flat(i, j)] + 3.0 * o2[g.flat(i, j)],
                  1e-10);
}

TEST(NonlocalOperator, RectRestrictsWrites) {
  nl::grid2d g(8, 2.0 / 8);
  nl::stencil st(g, nl::influence{});
  auto u = g.make_field();
  u[g.flat(4, 4)] = 1.0;
  auto out = g.make_field();
  nl::apply_nonlocal_operator(g, st, 1.0, u, out, {0, 4, 0, 8});  // top half only
  for (int j = 0; j < g.n(); ++j) EXPECT_DOUBLE_EQ(out[g.flat(6, j)], 0.0);
}

TEST(NonlocalOperator, RectDecompositionMatchesFull) {
  // Computing in two disjoint rects equals one full-rect application.
  nl::grid2d g(10, 3.0 / 10);
  nl::stencil st(g, nl::influence{nl::influence_kind::linear});
  auto u = g.make_field();
  for (std::size_t k = 0; k < u.size(); ++k) u[k] = std::sin(0.1 * k);
  auto full = g.make_field(), split = g.make_field();
  nl::apply_nonlocal_operator(g, st, 2.0, u, full, {0, 10, 0, 10});
  nl::apply_nonlocal_operator(g, st, 2.0, u, split, {0, 6, 0, 10});
  nl::apply_nonlocal_operator(g, st, 2.0, u, split, {6, 10, 0, 10});
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      EXPECT_DOUBLE_EQ(split[g.flat(i, j)], full[g.flat(i, j)]);
}

TEST(NonlocalOperator, ApproximatesLaplacianOfQuadratic) {
  // For u = x^2 + y^2, the nonlocal operator with the eq. (2) scaling must
  // approach k * Laplacian(u) = 4k away from the boundary.
  const int n = 128;
  nl::grid2d g(n, 8.0 / n);
  nl::influence J;
  nl::stencil st(g, J);
  const double k = 1.0;
  const double c = J.scaling_constant(k, g.epsilon());
  auto u = g.make_field();
  for (int i = -g.ghost(); i < n + g.ghost(); ++i)
    for (int j = -g.ghost(); j < n + g.ghost(); ++j) {
      const double x = g.x(j), y = g.y(i);
      u[g.flat(i, j)] = x * x + y * y;
    }
  auto out = g.make_field();
  const int mid = n / 2;
  nl::apply_nonlocal_operator(g, st, c, u, out, {mid, mid + 1, mid, mid + 1});
  EXPECT_NEAR(out[g.flat(mid, mid)], 4.0 * k, 0.15 * 4.0 * k);
}

// ---------------------------------------------------------------- problem ----

TEST(Problem, ExactSolutionBoundaryZero) {
  EXPECT_DOUBLE_EQ(nl::manufactured_problem::w(0.3, -0.1, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(nl::manufactured_problem::w(0.3, 0.5, 1.2), 0.0);
  EXPECT_NE(nl::manufactured_problem::w(0.3, 0.25, 0.25), 0.0);
}

TEST(Problem, InitialConditionMatchesWAtZero) {
  EXPECT_DOUBLE_EQ(nl::manufactured_problem::u0(0.3, 0.7),
                   nl::manufactured_problem::w(0.0, 0.3, 0.7));
}

TEST(Problem, TimeDerivativeIsConsistent) {
  // Finite-difference check of dw/dt.
  const double t = 0.2, x = 0.3, y = 0.6, dt = 1e-6;
  const double fd = (nl::manufactured_problem::w(t + dt, x, y) -
                     nl::manufactured_problem::w(t - dt, x, y)) /
                    (2 * dt);
  EXPECT_NEAR(nl::manufactured_problem::dwdt(t, x, y), fd, 1e-6);
}

TEST(Problem, SourceMakesWExactForSemiDiscrete) {
  // With the discrete manufactured source, dw/dt = b + L_h[w] holds exactly
  // at every DP.
  nl::grid2d g(16, 3.0 / 16);
  nl::influence J;
  nl::stencil st(g, J);
  const double c = J.scaling_constant(1.0, g.epsilon());
  nl::manufactured_problem prob(g, st, c);
  const double t = 0.37;
  auto w = prob.exact_field(t);
  auto b = prob.source_field(t);
  auto lw = g.make_field();
  nl::apply_nonlocal_operator(g, st, c, w, lw, {0, g.n(), 0, g.n()});
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j) {
      const auto idx = g.flat(i, j);
      EXPECT_NEAR(nl::manufactured_problem::dwdt(t, g.x(j), g.y(i)),
                  b[idx] + lw[idx], 1e-11);
    }
}

// ------------------------------------------------------------------ error ----

TEST(ErrorNorms, ZeroForIdenticalFields) {
  nl::grid2d g(8, 2.0 / 8);
  auto a = g.make_field();
  for (std::size_t k = 0; k < a.size(); ++k) a[k] = 0.5 * k;
  EXPECT_DOUBLE_EQ(nl::error_ek(g, a, a), 0.0);
  EXPECT_DOUBLE_EQ(nl::error_max_relative(g, a, a), 0.0);
}

TEST(ErrorNorms, KnownDifference) {
  nl::grid2d g(2, 0.5);  // 4 interior DPs, h^2 = 0.25
  auto exact = g.make_field();
  auto num = g.make_field();
  exact[g.flat(0, 0)] = 1.0;  // single diff of 1
  EXPECT_DOUBLE_EQ(nl::error_ek(g, exact, num), 0.25);
  EXPECT_DOUBLE_EQ(nl::error_max_relative(g, exact, num), 1.0);
}

TEST(ErrorNorms, CollarIgnored) {
  nl::grid2d g(4, 0.25);
  auto exact = g.make_field();
  auto num = g.make_field();
  num[g.flat(-1, -1)] = 100.0;  // garbage in the collar must not count
  EXPECT_DOUBLE_EQ(nl::error_ek(g, exact, num), 0.0);
}

// -------------------------------------------------------------- solver ----

TEST(SerialSolver, ConfigDerivedQuantities) {
  nl::solver_config cfg;
  cfg.n = 32;
  cfg.epsilon_factor = 4;
  nl::serial_solver s(cfg);
  EXPECT_EQ(s.grid().n(), 32);
  EXPECT_EQ(s.grid().ghost(), 4);
  EXPECT_GT(s.dt(), 0.0);
}

TEST(SerialSolver, TracksManufacturedSolution) {
  api::session session(serial_options(32, 4));
  auto& s = session.solver();
  const double total_error_e = run_summing_e(s, 10);
  // Semi-discrete-exact source: only forward-Euler error remains, which is
  // tiny over 10 stable steps.
  EXPECT_LT(s.error_vs_exact(), 1e-3);
  EXPECT_GT(total_error_e, 0.0);
}

TEST(SerialSolver, ZeroStepsStateIsInitialCondition) {
  nl::solver_config cfg;
  cfg.n = 16;
  cfg.epsilon_factor = 2;
  nl::serial_solver s(cfg);
  s.set_initial_condition();
  const auto& u = s.field();
  const auto& g = s.grid();
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      EXPECT_DOUBLE_EQ(u[g.flat(i, j)],
                       nl::manufactured_problem::u0(g.x(j), g.y(i)));
}

TEST(SerialSolver, ErrorGrowsWithDt) {
  // Same steps, double dt: forward-Euler error must grow.
  auto run_with_dt_factor = [](double safety) {
    auto opt = serial_options(24, 3);
    opt.dt_safety = safety;
    api::session session(opt);
    session.solver().run(8);
    return session.solver().error_ek_vs_exact();
  };
  EXPECT_LT(run_with_dt_factor(0.25), run_with_dt_factor(0.9));
}

TEST(SerialSolver, Fig8ErrorDecreasesWithMesh) {
  // The validation experiment (paper Fig. 8): error decreases as h = 1/2^n
  // decreases. Scaled-down n range to keep the test fast.
  double prev = 1e9;
  for (int n : {8, 16, 32}) {
    api::session session(serial_options(n, 2));
    const double total_error_e = run_summing_e(session.solver(), 5);
    EXPECT_LT(total_error_e, prev) << "n=" << n;
    prev = total_error_e;
  }
}

TEST(SerialSolver, DifferentKernelsStillConverge) {
  for (auto kind : {nl::influence_kind::constant, nl::influence_kind::linear,
                    nl::influence_kind::gaussian}) {
    auto opt = serial_options(24, 3);
    opt.kind = kind;
    api::session session(opt);
    session.solver().run(5);
    EXPECT_LT(session.solver().error_vs_exact(), 1e-2) << static_cast<int>(kind);
  }
}

// Parameterized stability sweep: the solver must remain bounded for any
// stable dt across epsilon factors.
class StabilitySweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(StabilitySweep, BoundedSolution) {
  const auto [factor, safety] = GetParam();
  auto opt = serial_options(24, factor);
  opt.dt_safety = safety;
  api::session session(opt);
  auto& s = session.solver();
  s.run(12);
  EXPECT_LT(s.error_vs_exact(), 0.5);
  for (double v : s.field()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    EpsAndDt, StabilitySweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(0.2, 0.5, 0.95)));
