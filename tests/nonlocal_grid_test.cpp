// Tests for grid2d, the influence function/scaling constant and the
// epsilon-ball stencil.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/stencil.hpp"

namespace nl = nlh::nonlocal;

// --------------------------------------------------------------- grid2d ----

TEST(Grid2d, BasicGeometry) {
  nl::grid2d g(8, 0.25);  // h = 1/8, eps = 2h
  EXPECT_EQ(g.n(), 8);
  EXPECT_DOUBLE_EQ(g.h(), 0.125);
  EXPECT_EQ(g.ghost(), 2);
  EXPECT_EQ(g.stride(), 12);
  EXPECT_EQ(g.total(), 144u);
}

TEST(Grid2d, CellCenteredCoordinates) {
  nl::grid2d g(4, 0.25);
  EXPECT_DOUBLE_EQ(g.x(0), 0.125);
  EXPECT_DOUBLE_EQ(g.x(3), 0.875);
  EXPECT_DOUBLE_EQ(g.y(1), 0.375);
  // Collar extends beyond [0,1].
  EXPECT_LT(g.x(-1), 0.0);
  EXPECT_GT(g.x(4), 1.0);
}

TEST(Grid2d, FlatIndexingCoversPaddedBox) {
  nl::grid2d g(4, 0.25);  // ghost 1
  EXPECT_EQ(g.flat(-1, -1), 0u);
  EXPECT_EQ(g.flat(0, 0), static_cast<std::size_t>(g.stride() + 1));
  EXPECT_EQ(g.flat(4, 4), g.total() - 1);
}

TEST(Grid2d, GhostCoversEpsilonExactMultiple) {
  nl::grid2d g(16, 8.0 / 16);  // eps = 8h exactly
  EXPECT_EQ(g.ghost(), 8);
}

TEST(Grid2d, GhostRoundsUp) {
  nl::grid2d g(10, 0.25);  // eps = 2.5h
  EXPECT_EQ(g.ghost(), 3);
}

TEST(Grid2d, InteriorPredicate) {
  nl::grid2d g(4, 0.25);
  EXPECT_TRUE(g.is_interior(0, 0));
  EXPECT_TRUE(g.is_interior(3, 3));
  EXPECT_FALSE(g.is_interior(-1, 0));
  EXPECT_FALSE(g.is_interior(0, 4));
}

TEST(Grid2d, CellVolume) {
  nl::grid2d g(10, 0.2);
  EXPECT_DOUBLE_EQ(g.cell_volume(), 0.01);
}

// ------------------------------------------------------------ influence ----

TEST(Influence, ConstantKernel) {
  nl::influence J(nl::influence_kind::constant);
  EXPECT_DOUBLE_EQ(J(0.0), 1.0);
  EXPECT_DOUBLE_EQ(J(1.0), 1.0);
  EXPECT_DOUBLE_EQ(J.moment(0), 1.0);
  EXPECT_DOUBLE_EQ(J.moment(3), 0.25);
}

TEST(Influence, LinearKernel) {
  nl::influence J(nl::influence_kind::linear);
  EXPECT_DOUBLE_EQ(J(0.0), 1.0);
  EXPECT_DOUBLE_EQ(J(1.0), 0.0);
  EXPECT_DOUBLE_EQ(J.moment(0), 0.5);
  // M3 = 1/4 - 1/5.
  EXPECT_NEAR(J.moment(3), 0.05, 1e-12);
}

TEST(Influence, GaussianMomentsMatchQuadratureReference) {
  nl::influence J(nl::influence_kind::gaussian);
  EXPECT_DOUBLE_EQ(J(0.0), 1.0);
  EXPECT_NEAR(J(1.0), std::exp(-4.0), 1e-12);
  // Reference values from high-resolution trapezoid integration.
  double ref = 0.0;
  const int n = 100000;
  for (int i = 0; i <= n; ++i) {
    const double r = static_cast<double>(i) / n;
    const double f = std::exp(-4.0 * r * r) * r * r * r;
    ref += (i == 0 || i == n) ? f / 2 : f;
  }
  ref /= n;
  EXPECT_NEAR(J.moment(3), ref, 1e-8);
}

TEST(Influence, ScalingConstant2d) {
  // d=2, J=1: c = 2k / (pi eps^4 M3) = 8k / (pi eps^4).
  nl::influence J(nl::influence_kind::constant);
  const double eps = 0.1;
  const double k = 2.0;
  EXPECT_NEAR(J.scaling_constant(k, eps),
              8.0 * k / (M_PI * eps * eps * eps * eps), 1e-9);
}

// -------------------------------------------------------------- stencil ----

TEST(Stencil, ExcludesCenterAndRespectsRadius) {
  nl::grid2d g(16, 2.0 / 16);  // eps = 2h
  nl::influence J;
  nl::stencil st(g, J);
  for (const auto& e : st.entries()) {
    EXPECT_FALSE(e.di == 0 && e.dj == 0);
    const double dist = std::hypot(e.di, e.dj) * g.h();
    EXPECT_LE(dist, g.epsilon() + 1e-12);
  }
}

TEST(Stencil, Eps2hOffsetCount) {
  // Offsets with di^2+dj^2 <= 4, excluding origin: 12.
  nl::grid2d g(16, 2.0 / 16);
  nl::stencil st(g, nl::influence{});
  EXPECT_EQ(st.size(), 12u);
  EXPECT_EQ(st.reach(), 2);
}

TEST(Stencil, WeightSumIsVolumeTimesCount) {
  // Constant J: weight sum = count * h^2.
  nl::grid2d g(16, 2.0 / 16);
  nl::stencil st(g, nl::influence{});
  EXPECT_NEAR(st.weight_sum(), 12.0 * g.cell_volume(), 1e-15);
}

TEST(Stencil, WeightSumApproximatesBallArea) {
  // sum w = sum J*h^2 over the discrete ball -> area of B_eps as h -> 0.
  nl::grid2d g(512, 16.0 / 512);  // eps = 16h, small relative to domain
  nl::stencil st(g, nl::influence{});
  const double ball_area = M_PI * g.epsilon() * g.epsilon();
  EXPECT_NEAR(st.weight_sum(), ball_area, 0.05 * ball_area);
}

TEST(Stencil, ReachBoundedByGhost) {
  for (int factor : {2, 4, 8}) {
    nl::grid2d g(64, static_cast<double>(factor) / 64);
    nl::stencil st(g, nl::influence{});
    EXPECT_LE(st.reach(), g.ghost());
    EXPECT_EQ(st.reach(), factor);  // exact multiple: reach = factor
  }
}

TEST(Stencil, StableDtPositive) {
  nl::grid2d g(32, 4.0 / 32);
  nl::influence J;
  nl::stencil st(g, J);
  const double c = J.scaling_constant(1.0, g.epsilon());
  const double dt = nl::stable_dt(c, st);
  EXPECT_GT(dt, 0.0);
  EXPECT_NEAR(dt * c * st.weight_sum(), 1.0, 1e-12);
}

TEST(Stencil, LinearKernelWeightsDecay) {
  nl::grid2d g(32, 4.0 / 32);
  nl::stencil st(g, nl::influence{nl::influence_kind::linear});
  // Nearest offsets weigh more than the farthest ones.
  double near_w = 0.0, far_w = 1e9;
  for (const auto& e : st.entries()) {
    const double d2 = static_cast<double>(e.di) * e.di + static_cast<double>(e.dj) * e.dj;
    if (d2 <= 1.0) near_w = std::max(near_w, e.w);
    if (d2 >= 15.0) far_w = std::min(far_w, e.w);
  }
  EXPECT_GT(near_w, far_w);
}
