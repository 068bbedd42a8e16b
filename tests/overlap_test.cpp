// Tests for the per-direction overlap schedule and its cached step_plan
// (docs/overlap.md): the fine strip dependency table, bitwise
// serial==distributed equality for every schedule x kernel backend, plan
// invalidation across migrations (with the epoch-tagged migration
// messages), and — via the comm_world delay model — the §6.3 property
// itself: case-2 interiors and ready-direction strips complete while the
// slowest ghost is still in flight.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/session.hpp"
#include "dist/dist_solver.hpp"
#include "dist/step_plan.hpp"
#include "net/serializer.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/serial_solver.hpp"

namespace dist = nlh::dist;
namespace nl = nlh::nonlocal;
namespace api = nlh::api;

namespace {

/// Serial reference on the same mesh / dt / kernel backend as `cfg`.
std::vector<double> serial_reference(const dist::dist_config& cfg, int steps) {
  nl::solver_config scfg;
  scfg.n = cfg.sd_cols * cfg.sd_size;
  scfg.epsilon_factor = cfg.epsilon_factor;
  scfg.conductivity = cfg.conductivity;
  scfg.dt = cfg.dt;
  scfg.dt_safety = cfg.dt_safety;
  scfg.kind = cfg.kind;
  scfg.backend = cfg.backend;
  nl::serial_solver s(scfg);
  s.set_initial_condition();
  for (int k = 0; k < steps; ++k) s.step(k);
  return s.field();
}

/// Bitwise comparison over the interior DPs (exact double equality — the
/// distributed schedule must not change a single rounding).
void expect_bitwise_equal(const nl::grid2d& g, const std::vector<double>& a,
                          const std::vector<double>& b) {
  int mismatches = 0;
  for (int i = 0; i < g.n() && mismatches < 5; ++i)
    for (int j = 0; j < g.n() && mismatches < 5; ++j)
      if (a[g.flat(i, j)] != b[g.flat(i, j)]) {
        ADD_FAILURE() << "field mismatch at (" << i << ", " << j
                      << "): " << a[g.flat(i, j)] << " vs " << b[g.flat(i, j)];
        ++mismatches;
      }
}

}  // namespace

// --------------------------------------------------- fine strip geometry ----

TEST(FineStrips, DependenciesForColumnOwnership) {
  // 2x2 SDs, columns on different localities: SD 0 has remote E and SE
  // neighbors, a local S neighbor and no N row.
  const dist::tiling t(2, 2, 8, 2);
  const std::vector<int> owner{0, 1, 0, 1};
  const auto fine = dist::compute_fine_strips(t, 0, owner);

  const auto coarse = dist::compute_case_split(t, 0, owner);
  long long fine_area = 0;
  int zero_dep = 0, one_dep = 0, two_dep = 0;
  for (const auto& s : fine) {
    fine_area += s.rect.area();
    if (s.deps.empty()) ++zero_dep;
    if (s.deps.size() == 1) {
      ++one_dep;
      EXPECT_EQ(s.deps[0], dist::direction::east);
    }
    if (s.deps.size() == 2) {
      ++two_dep;
      EXPECT_EQ(s.deps[0], dist::direction::east);
      EXPECT_EQ(s.deps[1], dist::direction::southeast);
    }
  }
  // The fine strips tile exactly the coarse case-1 region.
  EXPECT_EQ(fine_area, coarse.strip_dps());
  // South side strip reads only local data; east side needs the E ghost;
  // the SE corner needs E and the SE diagonal.
  EXPECT_EQ(zero_dep, 1);
  EXPECT_EQ(one_dep, 1);
  EXPECT_EQ(two_dep, 1);
}

TEST(FineStrips, DiagonalOnlyNeighborFreesTheSides) {
  // Single remote *diagonal* neighbor: the coarse split gates both margins
  // on the one corner ghost; the fine split leaves both side strips free.
  const dist::tiling t(2, 2, 8, 2);
  const std::vector<int> owner{0, 0, 0, 1};  // only SD 3 (SE of SD 0) remote
  const auto fine = dist::compute_fine_strips(t, 0, owner);
  int with_deps = 0;
  for (const auto& s : fine)
    if (!s.deps.empty()) {
      ++with_deps;
      ASSERT_EQ(s.deps.size(), 1u);
      EXPECT_EQ(s.deps[0], dist::direction::southeast);
      // Only the g x g corner rectangle actually reads the SE collar.
      EXPECT_EQ(s.rect.area(), static_cast<long long>(t.ghost()) * t.ghost());
    }
  EXPECT_EQ(with_deps, 1);
}

TEST(FineStrips, TileCoarseRegionForManyOwnerships) {
  const dist::tiling t(3, 3, 6, 2);
  const std::vector<std::vector<int>> owners = {
      {0, 1, 2, 0, 1, 2, 2, 0, 1}, {0, 0, 0, 1, 1, 1, 2, 2, 2},
      {0, 1, 0, 1, 0, 1, 0, 1, 0}, {0, 0, 0, 0, 1, 0, 0, 0, 0}};
  for (const auto& own : owners)
    for (int sd = 0; sd < t.num_sds(); ++sd) {
      const auto coarse = dist::compute_case_split(t, sd, own);
      const auto fine = dist::compute_fine_strips(t, sd, own);
      long long area = 0;
      for (const auto& s : fine) area += s.rect.area();
      EXPECT_EQ(area, coarse.strip_dps()) << "sd " << sd;
    }
}

// ------------------------------------------------------- compiled plan ----

TEST(StepPlan, CachesMessageTableAndSplits) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));

  const auto& plan = solver.plan();
  // Column split: each SD exchanges a side strip and a diagonal with the
  // other locality, all merged into one message per direction of the pair.
  EXPECT_EQ(plan.total_messages, 2);
  EXPECT_EQ(plan.messages.size(), 2u);
  EXPECT_EQ(static_cast<int>(plan.sds.size()), 4);
  for (const auto& sd : plan.sds) {
    EXPECT_TRUE(sd.boundary);
    EXPECT_EQ(sd.recvs.size(), 2u);
    EXPECT_EQ(sd.local_fills.size(), 1u);  // the same-column vertical pair
    EXPECT_EQ(sd.ready_strips.size(), 1u);
    EXPECT_EQ(sd.strips.size(), 2u);
  }
}

// ------------------------ bitwise equality, schedules x backends ----

// Bitwise equality with the serial reference must hold for the full cross
// product — the per-DP accumulation chain is a function of the stencil
// alone, never of the rect decomposition (KernelBlocking covers the block
// geometry).
using SchedBackendParam = std::tuple<dist::overlap_schedule, std::string>;

class ScheduleBackendEquivalence
    : public ::testing::TestWithParam<SchedBackendParam> {};

TEST_P(ScheduleBackendEquivalence, BitwiseMatchesSerialReference) {
  const auto [sched, backend_name] = GetParam();
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 3;
  cfg.sd_size = 6;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 2;
  cfg.schedule = sched;
  cfg.backend = nl::parse_kernel_backend(backend_name);
  ASSERT_TRUE(cfg.backend.has_value());

  const dist::tiling t(3, 3, 6, 2);
  dist::dist_solver solver(
      cfg, dist::ownership_map(t, 3, {0, 1, 2, 0, 1, 2, 2, 0, 1}));
  solver.set_initial_condition();
  solver.run(4);

  const auto ref = serial_reference(cfg, 4);
  expect_bitwise_equal(solver.grid(), solver.gather(), ref);
  EXPECT_EQ(solver.schedule(), sched);
  EXPECT_GT(solver.stats().messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulesAllBackends, ScheduleBackendEquivalence,
    ::testing::Combine(::testing::Values(dist::overlap_schedule::bulk_sync,
                                         dist::overlap_schedule::coarse,
                                         dist::overlap_schedule::per_direction),
                       ::testing::Values("scalar", "row_run", "simd", "avx512")));

// -------------------------------------- plan invalidation via migrations ----

class MigrationBackendEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(MigrationBackendEquivalence, BitwiseAcrossRepeatedMigrations) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 2;
  cfg.backend = nl::parse_kernel_backend(GetParam());
  ASSERT_TRUE(cfg.backend.has_value());
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();

  solver.run(2);
  solver.migrate_sd(1, 1);  // plan recompiles on the next step
  EXPECT_EQ(solver.migration_epoch(1), 1u);
  solver.run(2);
  solver.migrate_sd(1, 0);  // same SD again: a fresh epoch, a fresh tag
  solver.migrate_sd(2, 0);
  EXPECT_EQ(solver.migration_epoch(1), 2u);
  EXPECT_EQ(solver.migration_epoch(2), 1u);
  solver.run(2);

  const auto ref = serial_reference(cfg, 6);
  expect_bitwise_equal(solver.grid(), solver.gather(), ref);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MigrationBackendEquivalence,
                         ::testing::Values("scalar", "row_run", "simd",
                                           "avx512"));

TEST(StepPlanInvalidation, MigrationToSelfKeepsEpoch) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.migrate_sd(0, 0);
  EXPECT_EQ(solver.migration_epoch(0), 0u);
}

TEST(StepPlanInvalidation, DelayedMigrationTrafficStaysBitwise) {
  // With wall-clock delivery delays, repeated migrations of one SD put
  // multiple migration messages in flight over time; the epoch-tagged
  // messages must never cross-deliver.
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.comm().set_delay_model(
      [](int, int, std::uint64_t) { return 2e-3; });
  solver.run(1);
  solver.migrate_sd(1, 1);
  solver.migrate_sd(1, 0);
  solver.migrate_sd(1, 1);
  solver.run(1);
  EXPECT_EQ(solver.migration_epoch(1), 3u);

  const auto ref = serial_reference(cfg, 2);
  expect_bitwise_equal(solver.grid(), solver.gather(), ref);
}

// ------------------------------------------- injected-latency overlap ----

namespace {

dist::dist_config latency_cfg() {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 2;
  return cfg;
}

}  // namespace

TEST(InjectedLatency, PerDirectionComputesBeforeSlowestGhost) {
  auto cfg = latency_cfg();
  cfg.schedule = dist::overlap_schedule::per_direction;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  // Every cross-locality ghost arrives 100 ms late; compute takes
  // microseconds, so anything not gated on a message must finish first.
  solver.comm().set_delay_model([](int, int, std::uint64_t) { return 0.1; });
  solver.step();

  const auto s = solver.stats();
  EXPECT_EQ(s.messages, 2u);
  // All four case-2 interiors completed while ghosts were in flight...
  EXPECT_EQ(s.interior_early, 4u);
  // ...and so did the four ready-direction strips (one zero-dependency
  // side strip per SD under the column ownership).
  EXPECT_GE(s.strips_early, 4u);
  // The stepping thread paid the latency in the drain, not before it.
  EXPECT_GE(s.wait_seconds, 0.05);

  const auto ref = serial_reference(cfg, 1);
  expect_bitwise_equal(solver.grid(), solver.gather(), ref);
}

TEST(InjectedLatency, BulkSyncHidesNothing) {
  auto cfg = latency_cfg();
  cfg.schedule = dist::overlap_schedule::bulk_sync;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.comm().set_delay_model([](int, int, std::uint64_t) { return 0.05; });
  solver.step();

  const auto s = solver.stats();
  EXPECT_EQ(s.messages, 2u);
  // The bulk-synchronous drain finishes before any compute is posted:
  // nothing ever completes "early".
  EXPECT_EQ(s.interior_early, 0u);
  EXPECT_EQ(s.strips_early, 0u);
}

TEST(InjectedLatency, CoarseOverlapsInteriorOnly) {
  auto cfg = latency_cfg();
  cfg.schedule = dist::overlap_schedule::coarse;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.comm().set_delay_model([](int, int, std::uint64_t) { return 0.05; });
  solver.step();

  // Case-2 still overlaps under the coarse schedule...
  EXPECT_EQ(solver.stats().interior_early, 4u);
  // ...but the run stays bitwise correct.
  const auto ref = serial_reference(cfg, 1);
  expect_bitwise_equal(solver.grid(), solver.gather(), ref);
}

// ------------------------------------------------- api metrics plumbing ----

TEST(ApiOverlapMetrics, DistributedExposesScheduleAndWait) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 16;
  opt.sd_grid = 2;
  opt.epsilon_factor = 2;
  opt.nodes = 2;
  opt.overlap_schedule = "coarse";
  api::session session(opt);
  auto& h = session.solver();
  h.run(3);
  const auto m = h.metrics();
  EXPECT_EQ(m.overlap_schedule, "coarse");
  EXPECT_GE(m.comm_wait_seconds, 0.0);
  EXPECT_GT(m.ghost_bytes, 0u);
}

TEST(ApiOverlapMetrics, PerDirectionDefaultAndSerialFallback) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 16;
  opt.sd_grid = 2;
  opt.epsilon_factor = 2;
  opt.nodes = 2;
  api::session dist_session(opt);
  EXPECT_EQ(dist_session.solver().metrics().overlap_schedule, "per_direction");

  api::session_options sopt;
  sopt.mode = api::execution_mode::serial;
  sopt.n = 16;
  sopt.epsilon_factor = 2;
  api::session serial_session(sopt);
  const auto m = serial_session.solver().metrics();
  EXPECT_EQ(m.overlap_schedule, "serial");
  EXPECT_EQ(m.comm_wait_seconds, 0.0);
  EXPECT_EQ(m.overlap_early_tasks, 0u);
}

TEST(ApiOverlapMetrics, UnknownScheduleNameIsRejected) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 16;
  opt.sd_grid = 2;
  opt.epsilon_factor = 2;
  opt.nodes = 2;
  opt.overlap_schedule = "warp";
  const auto errs = api::session::validate(opt);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("overlap_schedule"), std::string::npos);
  EXPECT_THROW(api::session{opt}, std::invalid_argument);
}

// ------------------------------------------------ aux order and drivers ----

namespace {

/// Counters shared between the test and its stamped scenario.
struct aux_audit {
  std::atomic<long long> checked{0};
  std::atomic<long long> stale{0};
};

/// Test-only scenario: fill_aux stamps every aux DP with the step's time
/// (plus one, so step 0 differs from the zeroed field) after a short spin
/// that widens any window a missing order would open; source_into checks
/// that every aux DP it may read — its rect widened by the ghost width,
/// clipped to the interior — carries this step's stamp. Zero source.
class stamped_aux_scenario final : public api::scenario {
 public:
  explicit stamped_aux_scenario(aux_audit* audit) : audit_(audit) {}
  std::string name() const override { return "stamped_aux"; }
  double initial(double x1, double x2) const override { return x1 * x2; }
  void fill_aux(const api::scenario_context& ctx, double t, const nl::dp_rect& rect,
                std::vector<double>& aux) const override {
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    for (int i = rect.row_begin; i < rect.row_end; ++i)
      for (int j = rect.col_begin; j < rect.col_end; ++j)
        aux[ctx.grid->flat(i, j)] = 1.0 + t;
  }
  void source_into(const api::scenario_context& ctx, double t,
                   const std::vector<double>& aux, const nl::dp_rect& rect,
                   std::vector<double>& out) const override {
    const auto& g = *ctx.grid;
    const int w = g.ghost();
    long long stale = 0;
    for (int i = std::max(rect.row_begin - w, 0); i < std::min(rect.row_end + w, g.n()); ++i)
      for (int j = std::max(rect.col_begin - w, 0); j < std::min(rect.col_end + w, g.n());
           ++j)
        if (aux[g.flat(i, j)] != 1.0 + t) ++stale;
    audit_->stale.fetch_add(stale);
    audit_->checked.fetch_add(1);
    for (int i = rect.row_begin; i < rect.row_end; ++i)
      for (int j = rect.col_begin; j < rect.col_end; ++j) out[g.flat(i, j)] = 0.0;
  }

 private:
  aux_audit* audit_;
};

dist::dist_config driver_cfg(dist::overlap_schedule sched, int threads) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 4;
  cfg.sd_size = 6;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = threads;
  cfg.schedule = sched;
  return cfg;
}

/// 2 localities: column halves; 3: a scattered map where every pair of
/// localities shares boundaries.
std::vector<int> driver_owners(int localities) {
  if (localities == 2) return {0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1};
  return {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
}

}  // namespace

using AuxOrderParam = std::tuple<dist::overlap_schedule, int /*localities*/,
                                 int /*threads*/, bool /*migrate*/>;

class AuxOrder : public ::testing::TestWithParam<AuxOrderParam> {};

TEST_P(AuxOrder, SourceReadsOnlyThisStepsAux) {
  // A driver fills its boundary SDs' aux before it sends, so a message
  // also publishes the w a receiver's strips read; rectangles reading only
  // local w run after the local phase. No step-wide aux barrier is left to
  // hide a missing edge: every source_into must see this step's stamps.
  const auto [sched, localities, threads, migrate] = GetParam();
  aux_audit audit;
  const auto cfg = driver_cfg(sched, threads);
  const dist::tiling t(4, 4, 6, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, localities, driver_owners(localities)),
                           std::make_shared<stamped_aux_scenario>(&audit));
  solver.set_initial_condition();
  for (int k = 0; k < 6; ++k) {
    solver.step();
    if (migrate) {
      const int sd = (5 * k + 3) % t.num_sds();
      solver.migrate_sd(sd, (solver.owners().owner(sd) + 1) % localities);
    }
  }
  EXPECT_GT(audit.checked.load(), 0);
  EXPECT_EQ(audit.stale.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesLocalitiesWorkers, AuxOrder,
    ::testing::Combine(::testing::Values(dist::overlap_schedule::bulk_sync,
                                         dist::overlap_schedule::coarse,
                                         dist::overlap_schedule::per_direction),
                       ::testing::Values(2, 3), ::testing::Values(1, 2),
                       ::testing::Values(false, true)));

TEST(StepDrivers, FewTasksAndOneMessagePerLocalityPair) {
  // 16x16 SDs on 3 localities (left half, right top, right bottom: every
  // pair shares a boundary), one worker each. A step is a driver per
  // locality plus an unpack per message, so it stays within 4 tasks per
  // locality, however many SDs and strips there are.
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 16;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(16, 16, 8, 2);
  std::vector<int> owner(static_cast<std::size_t>(t.num_sds()));
  for (int sd = 0; sd < t.num_sds(); ++sd)
    owner[static_cast<std::size_t>(sd)] =
        t.sd_col(sd) < 8 ? 0 : (t.sd_row(sd) < 8 ? 1 : 2);
  const int L = 3;
  dist::dist_solver solver(cfg, dist::ownership_map(t, L, owner));
  solver.set_initial_condition();
  solver.step();  // compiles the plan

  const auto tasks = [&solver] {
    nlh::obs::metrics_snapshot snap;
    solver.metrics_into(snap);
    std::uint64_t total = 0;
    for (const auto& [name, v] : snap.counters)
      if (name.rfind("amt/pool#", 0) == 0 && name.find("/tasks") != std::string::npos)
        total += v;
    return total;
  };
  const int steps = 5;
  const auto tasks0 = tasks();
  const auto messages0 = solver.stats().messages;
  solver.run(steps);
  const auto tasks_per_step = static_cast<double>(tasks() - tasks0) / steps;
  const auto messages_per_step =
      static_cast<double>(solver.stats().messages - messages0) / steps;
  EXPECT_LE(tasks_per_step, 4.0 * L);
  EXPECT_LE(messages_per_step, static_cast<double>(L * (L - 1)));
  EXPECT_EQ(solver.plan().total_messages, L * (L - 1));
}

// ------------------------------------------- hostile merged messages ----

namespace {

namespace net = nlh::net;

/// Plant `make(solver)` as the step-0 message from locality 0 to 1 of a 2x2
/// column split (tag 0 * L^2 + 0 * L + 1), then step: the receiver matches
/// it before the real one and has to decode it.
void step_with_planted(const std::function<net::byte_buffer(dist::dist_solver&)>& make) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.comm().send(0, 1, 1, make(solver));
  solver.step();
}

/// Every strip locality 0 sends locality 1, in wire order and sized to its
/// collar, except that the first carries `extra` more doubles.
net::byte_buffer strips_0_to_1(dist::dist_solver& solver, std::size_t extra) {
  net::archive_writer w;
  for (const auto& msg : solver.plan().messages) {
    if (msg.src_locality != 0 || msg.dst_locality != 1) continue;
    for (std::size_t k = 0; k < msg.ghosts.size(); ++k) {
      const auto dps = solver.sd_tiling().recv_rect(msg.ghosts[k].dir).area();
      w.write(std::vector<double>(static_cast<std::size_t>(dps) + (k == 0 ? extra : 0), 1.0));
    }
  }
  return w.take();
}

}  // namespace

TEST(GhostMessage, PlantedWellFormedMessageIsDecoded) {
  // The control for the death tests below: planting itself is harmless.
  step_with_planted([](dist::dist_solver& s) { return strips_0_to_1(s, 0); });
}

TEST(GhostMessageDeathTest, TruncatedMessageAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(step_with_planted([](dist::dist_solver& s) {
                 auto buf = strips_0_to_1(s, 0);
                 buf.resize(buf.size() - sizeof(double));
                 return buf;
               }),
               "underrun");
}

TEST(GhostMessageDeathTest, TrailingBytesAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(step_with_planted([](dist::dist_solver& s) {
                 auto buf = strips_0_to_1(s, 0);
                 buf.push_back(std::byte{0});
                 return buf;
               }),
               "trailing bytes");
}

TEST(GhostMessageDeathTest, StripThatDoesNotFitItsCollarAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(step_with_planted([](dist::dist_solver& s) { return strips_0_to_1(s, 1); }),
               "does not match the collar");
}

// ------------------------------------------------ a throwing scenario ----

namespace {

/// Test-only scenario whose source_into throws for every rectangle that
/// reads across the column split of a 2x2 grid. Those are the strips gated
/// on a message, so with late messages they run inside an unpack.
class throwing_strip_scenario final : public api::scenario {
 public:
  std::string name() const override { return "throwing_strip"; }
  double initial(double x1, double x2) const override { return x1 * x2; }
  void source_into(const api::scenario_context& ctx, double, const std::vector<double>&,
                   const nl::dp_rect& rect, std::vector<double>& out) const override {
    const int mid = ctx.grid->n() / 2, w = ctx.grid->ghost();
    if (rect.col_begin < mid + w && rect.col_end > mid - w)
      throw std::runtime_error("scenario bug in a gated strip");
    for (int i = rect.row_begin; i < rect.row_end; ++i)
      for (int j = rect.col_begin; j < rect.col_end; ++j) out[ctx.grid->flat(i, j)] = 0.0;
  }
};

}  // namespace

TEST(ScenarioThrowDeathTest, ThrowInAStripRunByAnUnpackEndsTheProcess) {
  // scenario.hpp: a throw from the scenario ends the process, on whichever
  // part runs the rectangle; it must never leave step() waiting forever.
  // If it does, SIGALRM kills the child after 5 s without the expected
  // message, which fails the test instead of hanging it.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        alarm(5);
        dist::dist_config cfg;
        cfg.sd_rows = cfg.sd_cols = 2;
        cfg.sd_size = 8;
        cfg.epsilon_factor = 2;
        cfg.schedule = dist::overlap_schedule::per_direction;
        const dist::tiling t(2, 2, 8, 2);
        dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}),
                                 std::make_shared<throwing_strip_scenario>());
        solver.set_initial_condition();
        solver.comm().set_delay_model([](int, int, std::uint64_t) { return 0.05; });
        solver.step();
      },
      "terminate called");
}
