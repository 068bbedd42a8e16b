// Checkpoint/restart tests for the distributed solver, including the
// rejection of malformed snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "ckpt/codec.hpp"
#include "dist/dist_solver.hpp"
#include "net/serializer.hpp"

namespace dist = nlh::dist;
namespace net = nlh::net;

namespace {

dist::dist_config small_config() {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  return cfg;
}

double max_field_diff(const dist::dist_solver& a, const dist::dist_solver& b) {
  const auto fa = a.gather();
  const auto fb = b.gather();
  const auto& g = a.grid();
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(fa[g.flat(i, j)] - fb[g.flat(i, j)]));
  return m;
}

}  // namespace

TEST(Checkpoint, RoundTripPreservesState) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(small_config(), dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.run(3);
  const auto state = solver.checkpoint();

  dist::dist_solver restored(small_config(), dist::ownership_map(t, 2, {0, 0, 1, 1}));
  restored.restore(state);
  EXPECT_EQ(restored.current_step(), 3);
  EXPECT_EQ(restored.owners().raw(), solver.owners().raw());
  EXPECT_DOUBLE_EQ(max_field_diff(solver, restored), 0.0);
}

TEST(Checkpoint, RestartContinuesIdentically) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver straight(small_config(), dist::ownership_map(t, 2, {0, 1, 0, 1}));
  straight.set_initial_condition();
  straight.run(5);

  dist::dist_solver first_half(small_config(), dist::ownership_map(t, 2, {0, 1, 0, 1}));
  first_half.set_initial_condition();
  first_half.run(2);
  const auto state = first_half.checkpoint();

  dist::dist_solver second_half(small_config(),
                                dist::ownership_map(t, 2, {0, 1, 0, 1}));
  second_half.restore(state);
  second_half.run(3);
  EXPECT_EQ(second_half.current_step(), 5);
  EXPECT_LT(max_field_diff(straight, second_half), 1e-14);
}

TEST(Checkpoint, CapturesMigratedOwnership) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(small_config(), dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.run(1);
  solver.migrate_sd(0, 1);
  const auto state = solver.checkpoint();

  dist::dist_solver restored(small_config(), dist::ownership_map(t, 2, {0, 0, 1, 1}));
  restored.restore(state);
  EXPECT_EQ(restored.owners().owner(0), 1);
  restored.run(2);  // must run cleanly under the restored ownership
  solver.run(2);
  EXPECT_LT(max_field_diff(solver, restored), 1e-14);
}

TEST(Checkpoint, StateIsSelfContainedBytes) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(small_config(), dist::ownership_map(t, 2, {0, 1, 1, 0}));
  solver.set_initial_condition();
  // Headers included, the delta-coded blob must come in under the raw
  // bytes of the 4 SD interiors of 64 doubles it holds (docs/checkpoint.md;
  // the hard ratio gate lives in bench/micro_checkpoint).
  EXPECT_LT(solver.checkpoint().size(), 4u * 64u * 8u);
}

TEST(Checkpoint, RestoreAfterMigrationRecompilesThePlan) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(small_config(), dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.run(2);               // compiles the initial plan
  solver.migrate_sd(1, 0);     // epoch-tagged migration dirties it
  solver.run(1);               // recompile under the migrated ownership
  const auto state = solver.checkpoint();

  dist::dist_solver restored(small_config(),
                             dist::ownership_map(t, 2, {0, 0, 1, 1}));
  restored.set_initial_condition();
  restored.run(1);
  const auto compiles_before = restored.plan_compiles();
  EXPECT_EQ(compiles_before, 1u);

  // restore() adopts the checkpoint's migrated ownership, so the cached
  // step plan is stale: the next step must recompile, exactly once.
  restored.restore(state);
  EXPECT_EQ(restored.owners().owner(1), 0);
  restored.run(2);
  EXPECT_EQ(restored.plan_compiles(), compiles_before + 1);

  solver.run(2);
  EXPECT_LT(max_field_diff(solver, restored), 1e-14);
}

TEST(CheckpointDeathTest, MalformedSnapshotsAbort) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(small_config(), dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.run(1);
  const auto state = solver.checkpoint();
  const auto restore_into_2x2 = [&t](const net::byte_buffer& blob) {
    dist::dist_solver s(small_config(), dist::ownership_map(t, 2, {0, 0, 1, 1}));
    s.restore(blob);
  };
  restore_into_2x2(state);  // the well-formed blob restores

  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(restore_into_2x2(net::byte_buffer(64, std::byte{0x5a})),
               "not a checkpoint blob");

  // A blob in the earlier "NLK1" layout: kind byte, codec name, sequence
  // number, then per SD a frame kind and migration epoch before each frame.
  net::archive_writer old;
  old.write(std::uint32_t{0x4e4c4b31});
  old.write(static_cast<std::uint8_t>('F'));
  old.write(std::string("delta"));
  old.write(std::uint64_t{0});
  old.write(std::int64_t{1});
  old.write(solver.owners().raw());
  const std::vector<double> zeros(64, 0.0);
  for (int sd = 0; sd < 4; ++sd) {
    old.write(static_cast<std::uint8_t>('F'));
    old.write(std::uint64_t{0});
    nlh::ckpt::encode_frame(zeros.data(), zeros.size(), old);
  }
  EXPECT_DEATH(restore_into_2x2(old.take()), "not a checkpoint blob");

  // A blob of another SD grid.
  auto wide = small_config();
  wide.sd_rows = wide.sd_cols = 3;
  const dist::tiling t3(3, 3, 8, 2);
  dist::dist_solver nine(wide, dist::ownership_map(t3, 2, {0, 0, 0, 0, 1, 1, 1, 1, 1}));
  EXPECT_DEATH(restore_into_2x2(nine.checkpoint()), "SD count mismatch");

  // A blob whose owners name a locality this solver lacks.
  dist::dist_solver three(small_config(), dist::ownership_map(t, 3, {0, 1, 2, 2}));
  EXPECT_DEATH(restore_into_2x2(three.checkpoint()), "owner out of range");

  auto trailing = state;
  trailing.push_back(std::byte{0});
  EXPECT_DEATH(restore_into_2x2(trailing), "trailing bytes");

  auto truncated = state;
  truncated.pop_back();
  EXPECT_DEATH(restore_into_2x2(truncated), "underrun");
}
