// Tests for the nlh::api facade: scenario registry (including its error
// paths: unknown key, duplicate registration, null factory, null
// custom_scenario fallback), session_options /
// dist_config validation with actionable messages, the per-step observer,
// runtime metrics, and the headline property driven entirely through the
// facade — the session-built distributed solve reproduces the session-built
// serial reference bitwise, for every kernel backend and also for
// scenarios other than the manufactured default.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "api/session.hpp"
#include "dist/dist_solver.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/problem.hpp"

namespace api = nlh::api;
namespace nl = nlh::nonlocal;

namespace {

/// Restores the process-wide kernel backend on scope exit, so backend
/// sweeps cannot leak into other tests.
class backend_guard {
 public:
  backend_guard() : saved_(nl::kernel_default_backend()) {}
  ~backend_guard() { nl::set_kernel_default_backend(saved_); }

 private:
  nl::kernel_backend saved_;
};

/// True when some validation message mentions `needle`.
bool mentions(const std::vector<std::string>& errs, const std::string& needle) {
  return std::any_of(errs.begin(), errs.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

/// Bitwise max |a - b| over the interior.
double max_abs_diff(const nl::grid2d& g, const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(a[g.flat(i, j)] - b[g.flat(i, j)]));
  return m;
}

api::session_options small_options(const std::string& scenario) {
  api::session_options opt;
  opt.scenario = scenario;
  opt.n = 16;
  opt.epsilon_factor = 2;
  opt.num_steps = 3;
  opt.sd_grid = 2;
  opt.nodes = 2;
  return opt;
}

}  // namespace

// ----------------------------------------------------------------- registry --

TEST(ScenarioRegistry, SeededWithBuiltins) {
  const auto names = api::scenario_names();
  for (const char* expected : {"crack", "gaussian_pulse", "lshape", "manufactured"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(ScenarioRegistry, LookupReturnsWorkingScenario) {
  const auto scn = api::make_scenario("manufactured");
  ASSERT_NE(scn, nullptr);
  EXPECT_EQ(scn->name(), "manufactured");
  EXPECT_TRUE(scn->has_exact());
  EXPECT_FALSE(api::make_scenario("gaussian_pulse")->has_exact());
}

TEST(ScenarioRegistry, UnknownNameThrowsListingKnownOnes) {
  try {
    api::make_scenario("definitely-not-registered");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("definitely-not-registered"), std::string::npos) << msg;
    EXPECT_NE(msg.find("manufactured"), std::string::npos) << msg;
  }
}

TEST(ScenarioRegistry, MaskAndWorkHooks) {
  const auto lshape = api::make_scenario("lshape");
  const auto mask = lshape->sd_mask(4, 4);
  ASSERT_EQ(mask.size(), 16u);
  // Top-right quadrant void.
  EXPECT_EQ(mask[3], 0);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[15], 1);

  const api::crack_scenario crack(0.02, 0.25, 0.98, 0.25, 0.5);
  const auto work = crack.sd_work(4, 4);
  ASSERT_EQ(work.size(), 16u);
  // The horizontal crack at y = 0.25 crosses the second SD row.
  EXPECT_DOUBLE_EQ(work[4], 0.5);
  EXPECT_DOUBLE_EQ(work[12], 1.0);
}

// ------------------------------------------------- registry error paths --

TEST(RegistryErrors, UnknownKeyThrowsListingRegisteredScenarios) {
  try {
    api::make_scenario("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-scenario"), std::string::npos) << msg;
    for (const char* builtin : {"crack", "gaussian_pulse", "lshape", "manufactured"})
      EXPECT_NE(msg.find(builtin), std::string::npos) << msg;
  }
}

TEST(RegistryErrors, NullCustomScenarioFallsBackToTheRegistryKey) {
  auto opt = small_options("gaussian_pulse");
  opt.custom_scenario = nullptr;  // explicit null = "use the key" (the default)
  api::session session(opt);
  EXPECT_EQ(session.active_scenario().name(), "gaussian_pulse");

  // Null custom scenario plus a bad key is a scenario validation error,
  // not a crash on the null pointer.
  opt.scenario = "definitely-unknown";
  EXPECT_TRUE(mentions(api::session::validate(opt), "session_options.scenario"));
  EXPECT_THROW(api::session{opt}, std::invalid_argument);
}

TEST(ManufacturedScenario, SeparableFillsMatchPerDpFormulasBitwise) {
  // fill_aux / source_into take the trig once per row and column; every
  // value must still carry the bits of the per-DP manufactured_problem::w /
  // dwdt path, on whole, strip and single-DP rects.
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const int n = 40;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const double c = nl::influence{}.scaling_constant(1.0, g.epsilon());
  const api::scenario_context ctx{&g, &plan, c};
  const api::manufactured_scenario scn;
  const nl::manufactured_problem ref(g, st, c);

  const nl::dp_rect rects[] = {
      {0, n, 0, n}, {3, 17, 5, 6}, {0, 1, 0, n}, {11, 29, 31, n}, {20, 21, 20, 21}};
  for (const double t : {0.0, 0.125, 0.3, 0.77, 1.9}) {
    // w over the interior; the collar stays 0 as w is outside the square.
    auto aux = g.make_field();
    scn.fill_aux(ctx, t, {0, n, 0, n}, aux);
    for (int i = -g.ghost(); i < n + g.ghost(); ++i)
      for (int j = -g.ghost(); j < n + g.ghost(); ++j)
        ASSERT_EQ(bits(aux[g.flat(i, j)]),
                  bits(nl::manufactured_problem::w(t, g.x(j), g.y(i))))
            << "w at t=" << t << " (" << i << ", " << j << ")";

    for (const auto& rect : rects) {
      auto part = g.make_field();
      scn.fill_aux(ctx, t, rect, part);
      auto got = g.make_field();
      auto want = g.make_field();
      scn.source_into(ctx, t, aux, rect, got);
      ref.source_into(t, aux, want, rect);
      for (int i = rect.row_begin; i < rect.row_end; ++i)
        for (int j = rect.col_begin; j < rect.col_end; ++j) {
          ASSERT_EQ(bits(part[g.flat(i, j)]), bits(aux[g.flat(i, j)]))
              << "w at t=" << t << " (" << i << ", " << j << ")";
          ASSERT_EQ(bits(got[g.flat(i, j)]), bits(want[g.flat(i, j)]))
              << "source at t=" << t << " (" << i << ", " << j << ")";
        }
    }
  }
}

// --------------------------------------------------------------- validation --

TEST(SessionValidation, AcceptsDefaults) {
  EXPECT_TRUE(api::session::validate(api::session_options{}).empty());
}

TEST(SessionValidation, MessagesNameTheOffendingField) {
  api::session_options opt;
  opt.scenario = "nope";
  opt.n = 0;
  opt.epsilon_factor = 0;
  opt.dt_safety = 0.0;
  opt.num_steps = 0;
  opt.kernel_backend = "warp-drive";
  const auto errs = api::session::validate(opt);
  EXPECT_TRUE(mentions(errs, "session_options.scenario")) << errs.size();
  EXPECT_TRUE(mentions(errs, "session_options.n"));
  EXPECT_TRUE(mentions(errs, "session_options.epsilon_factor"));
  EXPECT_TRUE(mentions(errs, "session_options.dt_safety"));
  EXPECT_TRUE(mentions(errs, "session_options.num_steps"));
  EXPECT_TRUE(mentions(errs, "session_options.kernel_backend"));
}

TEST(SessionValidation, DistributedGeometryChecks) {
  auto opt = small_options("manufactured");
  opt.mode = api::execution_mode::distributed;
  opt.n = 30;  // not divisible by sd_grid = 2? it is; use sd_grid 4
  opt.sd_grid = 4;
  EXPECT_TRUE(mentions(api::session::validate(opt), "not divisible by sd_grid"));

  opt.n = 16;
  opt.sd_grid = 8;  // SD side 2 < ghost width 4
  opt.epsilon_factor = 4;
  EXPECT_TRUE(mentions(api::session::validate(opt), "smaller than the ghost width"));

  opt = small_options("manufactured");
  opt.mode = api::execution_mode::distributed;
  opt.nodes = 5;  // > 4 SDs
  EXPECT_TRUE(mentions(api::session::validate(opt), "active SDs"));
}

TEST(SessionValidation, ConstructorThrowsWithAllProblems) {
  api::session_options opt;
  opt.n = -1;
  opt.num_steps = 0;
  try {
    api::session s(opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("session_options.n"), std::string::npos) << msg;
    EXPECT_NE(msg.find("session_options.num_steps"), std::string::npos) << msg;
  }
}

TEST(DistConfigValidation, MessagesNameTheOffendingField) {
  nlh::dist::dist_config cfg;
  cfg.sd_size = 0;
  cfg.dt_safety = 0.0;
  const auto errs = nlh::dist::validate(cfg);
  EXPECT_TRUE(mentions(errs, "dist_config.sd_size"));
  EXPECT_TRUE(mentions(errs, "dist_config.dt_safety"));

  cfg = nlh::dist::dist_config{};
  cfg.sd_size = 4;
  cfg.epsilon_factor = 6;
  EXPECT_TRUE(mentions(nlh::dist::validate(cfg), "dist_config.epsilon_factor"));

  EXPECT_TRUE(nlh::dist::validate(nlh::dist::dist_config{}).empty());
}

TEST(DistConfigValidation, SolverConstructionThrowsInsteadOfAsserting) {
  nlh::dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 4;
  cfg.epsilon_factor = 6;  // ghost wider than the SD: previously a deep assert
  const nlh::dist::tiling t(2, 2, 4, 2);
  EXPECT_THROW(
      nlh::dist::dist_solver(cfg, nlh::dist::ownership_map::single_node(t)),
      std::invalid_argument);
}

// --------------------------------------------------- parity through the facade --

// The acceptance property: a facade-built distributed solve reproduces the
// facade-built serial reference bitwise, per kernel backend.
class SessionParityPerBackend : public ::testing::TestWithParam<nl::kernel_backend> {};

TEST_P(SessionParityPerBackend, DistributedMatchesSerialBitwise) {
  backend_guard guard;
  auto opt = small_options("manufactured");
  opt.kernel_backend = nl::kernel_backend_name(GetParam());

  opt.mode = api::execution_mode::serial;
  api::session serial(opt);
  serial.solver().run(opt.num_steps);

  opt.mode = api::execution_mode::distributed;
  opt.threads_per_locality = 2;
  api::session dist(opt);
  dist.solver().run(opt.num_steps);

  EXPECT_GT(dist.solver().ghost_bytes(), 0u);
  EXPECT_EQ(max_abs_diff(serial.solver().grid(), serial.solver().field(),
                         dist.solver().field()),
            0.0)
      << "backend " << opt.kernel_backend;
}

INSTANTIATE_TEST_SUITE_P(Backends, SessionParityPerBackend,
                         ::testing::Values(nl::kernel_backend::scalar,
                                           nl::kernel_backend::row_run,
                                           nl::kernel_backend::simd));

// The scenario routing itself must not break parity: a zero-source pulse
// (nothing manufactured anywhere in the chain) agrees bitwise too.
TEST(SessionParity, GaussianPulseScenarioMatchesBitwise) {
  auto opt = small_options("gaussian_pulse");
  opt.mode = api::execution_mode::serial;
  api::session serial(opt);
  serial.solver().run(opt.num_steps);

  opt.mode = api::execution_mode::distributed;
  api::session dist(opt);
  dist.solver().run(opt.num_steps);

  EXPECT_EQ(max_abs_diff(serial.solver().grid(), serial.solver().field(),
                         dist.solver().field()),
            0.0);
}

// ------------------------------------------------------- observer + metrics --

TEST(SolverHandle, ObserverFiresOncePerStep) {
  auto opt = small_options("manufactured");
  api::session session(opt);
  auto& solver = session.solver();

  std::vector<api::step_event> events;
  solver.set_observer([&](const api::step_event& e) { events.push_back(e); });
  solver.run(5);

  ASSERT_EQ(events.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(events[static_cast<std::size_t>(k)].step, k + 1);
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(k)].t,
                     (k + 1) * solver.dt());
  }
  EXPECT_EQ(solver.current_step(), 5);
}

TEST(SolverHandle, MetricsReportProgressAndBackend) {
  auto opt = small_options("manufactured");
  opt.mode = api::execution_mode::distributed;
  api::session session(opt);
  auto& solver = session.solver();
  solver.run(2);

  const auto m = solver.metrics();
  EXPECT_EQ(m.steps, 2);
  EXPECT_GT(m.dt, 0.0);
  EXPECT_GT(m.ghost_bytes, 0u);
  EXPECT_GE(m.wall_seconds, 0.0);
  EXPECT_FALSE(m.kernel_backend.empty());
}

TEST(SolverHandle, ErrorVsExactRequiresExactSolution) {
  auto opt = small_options("manufactured");
  api::session with_exact(opt);
  with_exact.solver().run(2);
  EXPECT_GT(with_exact.solver().error_vs_exact(), 0.0);
  EXPECT_GT(with_exact.solver().error_ek_vs_exact(), 0.0);

  api::session without(small_options("gaussian_pulse"));
  without.solver().run(1);
  EXPECT_THROW(without.solver().error_vs_exact(), std::logic_error);
}

// --------------------------------------------------------- masked scenarios --

TEST(Session, LshapeScenarioShapesThePartition) {
  auto opt = small_options("lshape");
  opt.mode = api::execution_mode::distributed;
  opt.n = 32;
  opt.sd_grid = 4;
  api::session session(opt);

  EXPECT_EQ(session.mask().num_active(), 12);  // 16 - top-right quadrant
  EXPECT_EQ(session.ownership().num_nodes(), 2);
  EXPECT_EQ(static_cast<int>(session.partition().size()), 16);
  // Inactive SDs (top-right quadrant of the 4x4 SD grid) park on node 0.
  const auto& t = session.sd_tiling();
  for (int r = 0; r < 2; ++r)
    for (int c = 2; c < 4; ++c)
      EXPECT_EQ(session.partition()[static_cast<std::size_t>(t.sd_at(r, c))], 0);
  EXPECT_GE(session.partition_balance(), 1.0);
}

TEST(Session, DistributionAccessorsThrowInSerialMode) {
  api::session session(small_options("manufactured"));
  EXPECT_THROW(session.sd_tiling(), std::logic_error);
  EXPECT_THROW(session.ownership(), std::logic_error);
  EXPECT_THROW(session.mask(), std::logic_error);
}
