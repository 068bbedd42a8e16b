// Tests for the workload / capacity models: crack geometry and capacity
// trace builders.

#include <gtest/gtest.h>

#include "model/capacity.hpp"
#include "model/crack.hpp"

namespace model = nlh::model;
namespace dist = nlh::dist;

// ------------------------------------------------------------------ crack ----

TEST(Crack, SegmentRectIntersection) {
  const model::crack_line diag{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(model::segment_intersects_rect(diag, 0.4, 0.4, 0.6, 0.6));
  EXPECT_FALSE(model::segment_intersects_rect(diag, 0.8, 0.0, 1.0, 0.2));
  const model::crack_line horiz{0.1, 0.5, 0.9, 0.5};
  EXPECT_TRUE(model::segment_intersects_rect(horiz, 0.0, 0.4, 0.3, 0.6));
  EXPECT_FALSE(model::segment_intersects_rect(horiz, 0.0, 0.6, 1.0, 0.9));
}

TEST(Crack, EndpointInsideCounts) {
  const model::crack_line c{0.5, 0.5, 0.55, 0.55};
  EXPECT_TRUE(model::segment_intersects_rect(c, 0.4, 0.4, 0.6, 0.6));
}

TEST(Crack, DegenerateSegmentIsPoint) {
  const model::crack_line c{0.5, 0.5, 0.5, 0.5};
  EXPECT_TRUE(model::segment_intersects_rect(c, 0.4, 0.4, 0.6, 0.6));
  EXPECT_FALSE(model::segment_intersects_rect(c, 0.6, 0.6, 0.8, 0.8));
}

TEST(Crack, HorizontalCrackScalesMiddleRow) {
  dist::tiling t(5, 5, 4, 1);
  const model::crack_line c{0.05, 0.5, 0.95, 0.5};  // through SD row 2 boundary
  const auto scale = model::crack_work_scale(t, c, 0.4);
  int reduced = 0;
  for (double s : scale) reduced += s < 1.0;
  // The y=0.5 line touches rows 2 and the row boundary: at least the 5 SDs
  // of one row (boundary touching counts both rows).
  EXPECT_GE(reduced, 5);
  EXPECT_LE(reduced, 10);
  for (double s : scale) EXPECT_TRUE(s == 1.0 || s == 0.6);
}

TEST(Crack, DiagonalCrackHitsDiagonalSds) {
  dist::tiling t(4, 4, 4, 1);
  const model::crack_line c{0.01, 0.01, 0.99, 0.99};
  const auto scale = model::crack_work_scale(t, c, 0.5);
  // Every diagonal SD must be reduced.
  for (int i = 0; i < 4; ++i)
    EXPECT_LT(scale[static_cast<std::size_t>(t.sd_at(i, i))], 1.0) << i;
  // Far off-diagonal corners untouched.
  EXPECT_DOUBLE_EQ(scale[static_cast<std::size_t>(t.sd_at(0, 3))], 1.0);
  EXPECT_DOUBLE_EQ(scale[static_cast<std::size_t>(t.sd_at(3, 0))], 1.0);
}

TEST(Crack, ZeroReductionIsAllOnes) {
  dist::tiling t(3, 3, 4, 1);
  const auto scale =
      model::crack_work_scale(t, model::crack_line{0, 0, 1, 1}, 0.0);
  for (double s : scale) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(Crack, GrowingCrackReducesMoreSdsOverTime) {
  dist::tiling t(6, 6, 4, 1);
  // Prefixes of the crack (0.01, 0.5) -> (0.99, 0.5) at 10%, 20%, 60% and
  // 100% of its length.
  auto count_reduced = [&](double x1) {
    const auto scale =
        model::crack_work_scale(t, model::crack_line{0.01, 0.5, x1, 0.5}, 0.5);
    int n = 0;
    for (double s : scale) n += s < 1.0;
    return n;
  };
  EXPECT_LE(count_reduced(0.206), count_reduced(0.598));
  EXPECT_LE(count_reduced(0.598), count_reduced(0.99));
  EXPECT_GT(count_reduced(0.99), count_reduced(0.108));
}

// --------------------------------------------------------------- capacity ----

TEST(Capacity, UniformCluster) {
  const auto traces = model::uniform_cluster(3, 2.0);
  ASSERT_EQ(traces.size(), 3u);
  for (const auto& t : traces) EXPECT_DOUBLE_EQ(t.speed_at(100.0), 2.0);
}

TEST(Capacity, HeterogeneousCluster) {
  const auto traces = model::heterogeneous_cluster({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(traces[0].speed_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(traces[2].speed_at(0.0), 4.0);
}
