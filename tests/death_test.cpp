// Assertion-contract death tests for key invariants: archive underrun,
// grid bounds, SD size against the horizon, capacity-trace ordering and
// ownership node ids all abort through NLH_ASSERT.

#include <gtest/gtest.h>

#include "dist/ownership.hpp"
#include "dist/tiling.hpp"
#include "net/serializer.hpp"
#include "nonlocal/grid2d.hpp"
#include "sim/capacity_trace.hpp"

namespace dist = nlh::dist;

using DeathTest = ::testing::Test;

TEST(DeathTest, ArchiveUnderrunAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nlh::net::archive_writer w;
  w.write(1);
  const auto buf = w.take();
  nlh::net::archive_reader r(buf);
  r.read<int>();
  EXPECT_DEATH(r.read<double>(), "underrun");
}

TEST(DeathTest, GridOutOfBoundsAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nlh::nonlocal::grid2d g(4, 0.25);
  EXPECT_DEATH(g.flat(100, 0), "NLH_ASSERT");
}

TEST(DeathTest, TilingRejectsSdSmallerThanHorizon) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(dist::tiling(2, 2, 2, 4), "horizon");
}

TEST(DeathTest, CapacityTraceRejectsUnorderedSegments) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nlh::sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  EXPECT_DEATH(t.add_segment(0.0, 2.0), "out of order");
}

TEST(DeathTest, OwnershipRejectsBadNodeId) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const dist::tiling t(2, 2, 8, 2);
  EXPECT_DEATH(dist::ownership_map(t, 2, {0, 1, 2, 0}), "out of range");
}
