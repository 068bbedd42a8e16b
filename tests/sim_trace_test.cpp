// Tests for capacity traces.

#include <gtest/gtest.h>

#include <vector>

#include "sim/capacity_trace.hpp"

namespace sim = nlh::sim;

// --------------------------------------------------------- capacity_trace ----

TEST(CapacityTrace, ConstantSpeed) {
  auto t = sim::capacity_trace::constant(2.0);
  EXPECT_DOUBLE_EQ(t.speed_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(t.speed_at(100.0), 2.0);
  EXPECT_DOUBLE_EQ(t.work_done(1.0, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(t.finish_time(1.0, 4.0), 3.0);
}

TEST(CapacityTrace, ZeroWorkFinishesImmediately) {
  auto t = sim::capacity_trace::constant(1.0);
  EXPECT_DOUBLE_EQ(t.finish_time(5.0, 0.0), 5.0);
}

TEST(CapacityTrace, StepChange) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  t.add_segment(10.0, 0.5);  // half speed from t=10
  EXPECT_DOUBLE_EQ(t.speed_at(9.999), 1.0);
  EXPECT_DOUBLE_EQ(t.speed_at(10.0), 0.5);
  // 8 units starting at t=6: 4 at speed 1 (6..10), 4 at 0.5 (10..18).
  EXPECT_DOUBLE_EQ(t.finish_time(6.0, 8.0), 18.0);
  EXPECT_DOUBLE_EQ(t.work_done(6.0, 18.0), 8.0);
}

TEST(CapacityTrace, WorkDoneAcrossManySegments) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  t.add_segment(1.0, 2.0);
  t.add_segment(2.0, 3.0);
  EXPECT_DOUBLE_EQ(t.work_done(0.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(t.work_done(0.5, 2.5), 0.5 + 2.0 + 1.5);
}

TEST(CapacityTrace, FinishInLaterSegment) {
  sim::capacity_trace t;
  t.add_segment(0.0, 0.0);   // stalled
  t.add_segment(5.0, 2.0);   // then fast
  EXPECT_DOUBLE_EQ(t.finish_time(0.0, 4.0), 7.0);
}

TEST(CapacityTrace, WorkDoneEmptyInterval) {
  auto t = sim::capacity_trace::constant(3.0);
  EXPECT_DOUBLE_EQ(t.work_done(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(t.work_done(3.0, 2.0), 0.0);
}

TEST(CapacityTrace, FinishConsistentWithWorkDone) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.5);
  t.add_segment(4.0, 0.25);
  t.add_segment(9.0, 3.0);
  for (double start : {0.0, 2.0, 4.5, 8.0, 12.0}) {
    for (double work : {0.1, 1.0, 5.0, 20.0}) {
      const double fin = t.finish_time(start, work);
      EXPECT_NEAR(t.work_done(start, fin), work, 1e-9)
          << "start=" << start << " work=" << work;
    }
  }
}
