// Tests for the vectorized kernel subsystem (src/nonlocal/kernel/): stencil
// canonicalization, run compilation invariants, bitwise/ULP agreement of the
// scalar / row_run / simd / avx512 backends across horizon factors,
// non-square rects and rects touching the ghost border, the blocked
// execution plan (cache-model clamping, blocked == unblocked bitwise), and
// the avx512 narrow tile against the documented per-DP chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "api/session.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/serial_solver.hpp"
#include "support/rng.hpp"

namespace nl = nlh::nonlocal;

namespace {

/// Deterministic pseudo-random field over the whole padded box, collar
/// included, so boundary-touching rects read non-trivial ghost values.
std::vector<double> random_field(const nl::grid2d& g, unsigned seed) {
  auto u = g.make_field();
  nlh::support::rng r(seed);
  for (auto& v : u) v = r.uniform(-1.0, 1.0);
  return u;
}

/// Apply via the raw plan entry point with an explicit backend.
std::vector<double> apply_backend(const nl::grid2d& g, const nl::stencil_plan& plan,
                                  double c, const std::vector<double>& u,
                                  const nl::dp_rect& rect, nl::kernel_backend b) {
  auto out = g.make_field();
  nl::apply_nonlocal_operator_raw(u.data(), out.data(), g.stride(), g.ghost(), plan, c,
                                  rect, b);
  return out;
}

/// Absolute tolerance for cross-backend comparison: the backends sum the
/// same entries in the same order but with different association of the
/// center term (and FMA on the simd path), so agreement is a few ULPs of
/// the natural magnitude scale c * weight_sum * max|u|, not bitwise.
double agreement_tol(const nl::stencil_plan& plan, double c, double umax) {
  return 1e-12 * c * plan.weight_sum() * umax;
}

void expect_rect_near(const nl::grid2d& g, const std::vector<double>& a,
                      const std::vector<double>& b, const nl::dp_rect& rect,
                      double tol) {
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j)
      ASSERT_NEAR(a[g.flat(i, j)], b[g.flat(i, j)], tol)
          << "at (" << i << ", " << j << ")";
}

/// Every selectable backend (unavailable ones dispatch through their
/// documented fallback chain, so each is always safe to request).
constexpr nl::kernel_backend kAllBackends[] = {
    nl::kernel_backend::scalar, nl::kernel_backend::row_run,
    nl::kernel_backend::simd, nl::kernel_backend::avx512};

}  // namespace

// ------------------------------------------------------------- canonical ----

TEST(Stencil, EntriesAreCanonicalRowMajor) {
  for (const int f : {2, 3, 8}) {
    nl::grid2d g(32, static_cast<double>(f) / 32);
    nl::stencil st(g, nl::influence{});
    const auto& e = st.entries();
    ASSERT_FALSE(e.empty());
    EXPECT_TRUE(std::is_sorted(e.begin(), e.end(), nl::stencil_entry_less));
    // No duplicates and no center entry.
    for (std::size_t k = 1; k < e.size(); ++k)
      EXPECT_TRUE(e[k - 1].di != e[k].di || e[k - 1].dj != e[k].dj);
    for (const auto& entry : e) EXPECT_TRUE(entry.di != 0 || entry.dj != 0);
  }
}

// ------------------------------------------------------------ plan layout ----

TEST(StencilPlan, RunsReconstructEntriesExactly) {
  for (const int f : {2, 4, 8, 16}) {
    nl::grid2d g(2 * f, static_cast<double>(f) / (2 * f));
    nl::stencil st(g, nl::influence(nl::influence_kind::gaussian));
    nl::stencil_plan plan(st);

    ASSERT_EQ(plan.size(), st.size());
    ASSERT_EQ(plan.weights().size(), st.size());

    // Expand runs back into (di, dj, w) and compare against the stencil.
    std::vector<nl::stencil_entry> rebuilt;
    for (const auto& r : plan.runs()) {
      ASSERT_GE(r.length, 1);
      for (int e = 0; e < r.length; ++e)
        rebuilt.push_back(nl::stencil_entry{
            r.di, r.dj_begin + e,
            plan.weights()[static_cast<std::size_t>(r.weight_index + e)]});
    }
    ASSERT_EQ(rebuilt.size(), st.entries().size());
    for (std::size_t k = 0; k < rebuilt.size(); ++k) {
      EXPECT_EQ(rebuilt[k].di, st.entries()[k].di);
      EXPECT_EQ(rebuilt[k].dj, st.entries()[k].dj);
      EXPECT_EQ(rebuilt[k].w, st.entries()[k].w);  // exact copy, not recompute
    }
  }
}

TEST(StencilPlan, RunsAreMaximal) {
  // Adjacent runs must not be mergeable: a new run starts only on a di
  // change or a dj gap (the center row splits around the excluded (0,0)).
  nl::grid2d g(32, 4.0 / 32);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto& runs = plan.runs();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const bool same_di = runs[k - 1].di == runs[k].di;
    if (same_di)
      EXPECT_GT(runs[k].dj_begin, runs[k - 1].dj_begin + runs[k - 1].length);
    else
      EXPECT_LT(runs[k - 1].di, runs[k].di);
  }
  // One run per di row except di == 0, which has exactly two.
  int center_runs = 0;
  for (const auto& r : runs)
    if (r.di == 0) ++center_runs;
  EXPECT_EQ(center_runs, 2);
}

TEST(StencilPlan, PreservesWeightSumReachAndStableDt) {
  nl::grid2d g(24, 3.0 / 24);
  nl::stencil st(g, nl::influence(nl::influence_kind::linear));
  nl::stencil_plan plan(st);
  EXPECT_EQ(plan.weight_sum(), st.weight_sum());
  EXPECT_EQ(plan.reach(), st.reach());
  const double c = 7.5;
  EXPECT_EQ(nl::stable_dt(c, plan), nl::stable_dt(c, st));
}

// ------------------------------------------------------- backend agreement ----

TEST(KernelBackends, ScalarBackendIsBitwiseTheLegacyKernel) {
  for (const int f : {2, 4, 8, 16}) {
    const int n = 32;
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    nl::stencil_plan plan(st);
    const auto u = random_field(g, 1234 + static_cast<unsigned>(f));
    const nl::dp_rect all{0, n, 0, n};

    auto legacy = g.make_field();
    nl::apply_nonlocal_operator(g, st, 2.5, u, legacy, all);
    const auto scalar = apply_backend(g, plan, 2.5, u, all, nl::kernel_backend::scalar);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(legacy[g.flat(i, j)], scalar[g.flat(i, j)]);
  }
}

TEST(KernelBackends, AgreeAcrossEpsilonFactors) {
  for (const int f : {2, 4, 8, 16}) {
    const int n = 48;
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    nl::stencil_plan plan(st);
    const auto u = random_field(g, 42 + static_cast<unsigned>(f));
    const double c = 1.75;
    const nl::dp_rect all{0, n, 0, n};
    const double tol = agreement_tol(plan, c, 1.0);

    const auto scalar = apply_backend(g, plan, c, u, all, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, all, b);
      expect_rect_near(g, scalar, out, all, tol);
    }
  }
}

TEST(KernelBackends, AgreeOnNonSquareRects) {
  const int n = 40;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence(nl::influence_kind::gaussian));
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 7);
  const double c = 3.0;
  const double tol = agreement_tol(plan, c, 1.0);

  // Wide, tall, thin strips and a single DP — including odd widths that
  // exercise the SIMD remainder lanes.
  const nl::dp_rect rects[] = {
      {3, 7, 0, n}, {0, n, 5, 9}, {11, 12, 2, 37}, {4, 31, 17, 18}, {20, 21, 20, 21},
  };
  for (const auto& rect : rects) {
    const auto scalar = apply_backend(g, plan, c, u, rect, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, rect, b);
      expect_rect_near(g, scalar, out, rect, tol);
    }
  }
}

TEST(KernelBackends, AgreeOnRectsTouchingGhostBorder) {
  const int n = 36;
  nl::grid2d g(n, 6.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 99);  // collar holds non-zero ghost values
  const double c = 0.8;
  const double tol = agreement_tol(plan, c, 1.0);

  // Every edge and corner of the interior, where the reads reach maximally
  // into the ghost collar.
  const nl::dp_rect rects[] = {
      {0, 2, 0, n},          // top edge
      {n - 2, n, 0, n},      // bottom edge
      {0, n, 0, 2},          // left edge
      {0, n, n - 2, n},      // right edge
      {0, 3, 0, 3},          // top-left corner
      {n - 3, n, n - 3, n},  // bottom-right corner
  };
  for (const auto& rect : rects) {
    const auto scalar = apply_backend(g, plan, c, u, rect, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, rect, b);
      expect_rect_near(g, scalar, out, rect, tol);
    }
  }
}

TEST(KernelBackends, RectPartitionInvariantBitwise) {
  // The bitwise serial/distributed guarantee (DESIGN.md) needs every
  // backend to produce identical bits for a DP whether it was computed as
  // part of a full-width row or of a narrow SD rectangle — i.e. regardless
  // of where the DP falls relative to vector-body/tail boundaries.
  const int n = 40;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 21);
  const double c = 1.1;

  for (const auto b : kAllBackends) {
    const auto full =
        apply_backend(g, plan, c, u, {0, n, 0, n}, nl::kernel_backend(b));
    // Vertical strips of width 5 force different body/tail splits, plus a
    // horizontal split at an odd row.
    auto split = g.make_field();
    for (int cb = 0; cb < n; cb += 5) {
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {0, 13, cb, std::min(cb + 5, n)}, b);
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {13, n, cb, std::min(cb + 5, n)}, b);
    }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(full[g.flat(i, j)], split[g.flat(i, j)])
            << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
  }
}

TEST(KernelBackends, AllZeroOnConstantField) {
  // sum w*(u_j - u_i) and sum w*u_j - W*u_i both vanish analytically on a
  // constant field; numerically the hoisted form leaves only rounding noise.
  const int n = 24;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  auto u = g.make_field();
  for (auto& v : u) v = 3.7;
  const nl::dp_rect all{0, n, 0, n};
  for (const auto b : kAllBackends) {
    const auto out = apply_backend(g, plan, 5.0, u, all, b);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) ASSERT_NEAR(out[g.flat(i, j)], 0.0, 1e-12);
  }
}

// ---------------------------------------------------------------- dispatch ----

TEST(KernelDispatch, DefaultBackendEntryPointMatchesExplicit) {
  const int n = 20;
  nl::grid2d g(n, 2.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 5);
  const nl::dp_rect all{0, n, 0, n};

  const auto saved = nl::kernel_default_backend();
  for (const auto b : kAllBackends) {
    nl::set_kernel_default_backend(b);
    EXPECT_EQ(nl::kernel_default_backend(), b);
    auto via_default = g.make_field();
    nl::apply_nonlocal_operator_raw(u.data(), via_default.data(), g.stride(),
                                    g.ghost(), plan, 1.3, all);
    const auto explicit_out = apply_backend(g, plan, 1.3, u, all, b);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(via_default[g.flat(i, j)], explicit_out[g.flat(i, j)]);
  }
  nl::set_kernel_default_backend(saved);
}

TEST(KernelDispatch, BackendNamesRoundTrip) {
  for (const auto b : kAllBackends) {
    const auto parsed = nl::parse_kernel_backend(nl::kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(nl::parse_kernel_backend("avx2048").has_value());
  EXPECT_FALSE(nl::parse_kernel_backend("").has_value());
}

TEST(KernelDispatch, SimdAvailabilityIsConsistent) {
  // Whatever the build/CPU, dispatch must execute: simd either runs
  // intrinsics or falls back to row_run, never aborts.
  const int level = nl::kernel_simd_compiled_level();
  EXPECT_GE(level, 0);
  EXPECT_LE(level, 2);
  if (nl::kernel_simd_available()) {
    EXPECT_GT(level, 0);
  }

  nl::grid2d g(8, 2.0 / 8);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 11);
  const auto out =
      apply_backend(g, plan, 1.0, u, {0, 8, 0, 8}, nl::kernel_backend::simd);
  EXPECT_EQ(out.size(), g.total());
}

TEST(KernelDispatch, Avx512AvailabilityIsConsistent) {
  // Same contract as simd: requesting avx512 either runs AVX-512F
  // intrinsics or walks the simd -> row_run fallback chain, never aborts.
  const int level = nl::kernel_avx512_compiled_level();
  EXPECT_GE(level, 0);
  EXPECT_LE(level, 1);
  if (nl::kernel_avx512_available()) {
    EXPECT_EQ(level, 1);
  }

  nl::grid2d g(8, 2.0 / 8);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 13);
  const auto out =
      apply_backend(g, plan, 1.0, u, {0, 8, 0, 8}, nl::kernel_backend::avx512);
  EXPECT_EQ(out.size(), g.total());
}

// ----------------------------------------------------------- blocked plan ----

TEST(KernelBlockPlan, ProbedGeometryIsSane) {
  const auto cg = nl::probe_cache_geometry();
  EXPECT_GE(cg.l1d_bytes, 4ll * 1024);
  EXPECT_LE(cg.l1d_bytes, 1ll * 1024 * 1024 * 1024);
  EXPECT_GE(cg.l2_bytes, 4ll * 1024);
  EXPECT_LE(cg.l2_bytes, 1ll * 1024 * 1024 * 1024);
}

TEST(KernelBlockPlan, GeometryClampsDegenerateInputs) {
  // The derivation must be total: any (reach, tuning, cache) combination —
  // zero caches, absurd reaches, out-of-range overrides — yields dims
  // inside the documented bounds.
  const nl::cache_geometry cases[] = {
      {0, 0}, {-5, -5}, {1, 1}, {48 * 1024, 2 * 1024 * 1024},
      {1ll << 40, 1ll << 41}};
  for (const auto& cache : cases) {
    for (const int reach : {-3, 0, 1, 8, 64, 100000}) {
      const auto g = nl::compute_block_geometry(reach, nl::kernel_tuning{}, cache);
      // Derived tiles never starve the widest vector body.
      EXPECT_GE(g.col_tile, nl::kernel_derived_min_col_tile);
      EXPECT_LE(g.col_tile, nl::kernel_max_col_tile);
      EXPECT_EQ(g.col_tile % nl::kernel_min_col_tile, 0);
      EXPECT_GE(g.row_block, nl::kernel_min_row_block);
      EXPECT_LE(g.row_block, nl::kernel_max_row_block);
    }
  }

  // Explicit overrides are honored but clamped, never trusted blindly.
  nl::kernel_tuning t;
  t.row_block = 1;
  t.col_tile = 1;
  auto g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, nl::kernel_min_row_block);
  EXPECT_EQ(g.col_tile, nl::kernel_min_col_tile);
  t.row_block = 1 << 30;
  t.col_tile = 1 << 30;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, nl::kernel_max_row_block);
  EXPECT_EQ(g.col_tile, nl::kernel_max_col_tile);
  t.row_block = 24;
  t.col_tile = 64;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, 24);
  EXPECT_EQ(g.col_tile, 64);
  // Off-quantum explicit tiles are aligned down to the tile quantum.
  t.col_tile = 48;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.col_tile, nl::kernel_min_col_tile);

  // A tighter cache budget can only narrow the derived tile.
  const auto wide =
      nl::compute_block_geometry(8, nl::kernel_tuning{}, {256 * 1024, 8 * 1024 * 1024});
  const auto narrow =
      nl::compute_block_geometry(8, nl::kernel_tuning{}, {8 * 1024, 64 * 1024});
  EXPECT_LE(narrow.col_tile, wide.col_tile);
}

TEST(KernelBlockPlan, CountBlocksMatchesAlignedIteration) {
  nl::block_geometry g;
  g.row_block = 4;
  g.col_tile = 16;
  EXPECT_EQ(nl::count_blocks(g, 0, 8, 0, 32), 4);   // 2 row blocks x 2 tiles
  EXPECT_EQ(nl::count_blocks(g, 0, 4, 0, 16), 1);
  EXPECT_EQ(nl::count_blocks(g, 0, 0, 0, 16), 0);   // empty
  // Off-boundary origins get a leading partial block per dimension.
  EXPECT_EQ(nl::count_blocks(g, 2, 6, 8, 24), 4);
  EXPECT_EQ(nl::count_blocks(g, 3, 4, 15, 16), 1);
  // Aligned spans of a decomposition sum to the full-rect count.
  EXPECT_EQ(nl::count_blocks(g, 0, 5, 0, 32) + nl::count_blocks(g, 5, 8, 0, 32),
            nl::count_blocks(g, 0, 8, 0, 32) + 2);  // row split off-boundary
}

TEST(KernelBlocking, BlockedMatchesUnblockedBitwiseOnAwkwardRects) {
  // Blocking only reorders which DP is computed when; each DP's
  // accumulation chain is unchanged, so a plan with aggressive blocking
  // must reproduce the single-block (pre-blocking) execution bit for bit —
  // for every backend, on every awkward rect shape: single rows, widths
  // below/off the tile size, and a reach exceeding the rect height.
  const int n = 56;
  nl::grid2d g(n, 8.0 / n);  // reach 8: wider than several rects below
  nl::stencil st(g, nl::influence{});

  nl::stencil_plan blocked(st);
  nl::kernel_tuning tight;
  tight.row_block = nl::kernel_min_row_block;  // 4-row blocks
  tight.col_tile = nl::kernel_min_col_tile;    // 32-col tiles
  blocked.set_tuning(tight);

  nl::stencil_plan unblocked(st);
  unblocked.set_tuning(nl::kernel_tuning_unblocked());

  const auto u = random_field(g, 77);
  const double c = 2.25;
  const nl::dp_rect rects[] = {
      {0, 1, 0, n},        // 1-row rect, full width
      {5, 6, 3, 11},       // 1-row rect, width < tile
      {10, 16, 20, 33},    // width % tile != 0, reach > height
      {0, n, 0, n},        // full interior, n % tile != 0
      {2, 7, 0, 32},       // aligned tile, off-boundary rows
      {17, 18, 17, 18},    // single DP
  };
  for (const auto b : kAllBackends) {
    for (const auto& rect : rects) {
      const auto got = apply_backend(g, blocked, c, u, rect, b);
      const auto want = apply_backend(g, unblocked, c, u, rect, b);
      for (int i = rect.row_begin; i < rect.row_end; ++i)
        for (int j = rect.col_begin; j < rect.col_end; ++j)
          ASSERT_EQ(got[g.flat(i, j)], want[g.flat(i, j)])
              << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelBlocking, StripDecompositionInvariantUnderBlocking) {
  // The distributed solver's fine strips must see the same absolute block
  // boundaries as the full-rect sweep: partition invariance has to hold
  // not just for the default geometry (RectPartitionInvariantBitwise) but
  // under any explicit blocking.
  const int n = 48;
  nl::grid2d g(n, 6.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  nl::kernel_tuning tight;
  tight.row_block = 8;
  tight.col_tile = 32;
  plan.set_tuning(tight);
  const auto u = random_field(g, 31);
  const double c = 1.6;

  for (const auto b : kAllBackends) {
    const auto full = apply_backend(g, plan, c, u, {0, n, 0, n}, b);
    auto split = g.make_field();
    // Strip widths 7 and 9: both off the block boundaries, forcing leading
    // partial blocks inside most strips.
    for (int cb = 0; cb < n; cb += 7) {
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {0, 9, cb, std::min(cb + 7, n)}, b);
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {9, n, cb, std::min(cb + 7, n)}, b);
    }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(full[g.flat(i, j)], split[g.flat(i, j)])
            << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
  }
}

TEST(KernelAvx512, NarrowRectsMatchWideRectAndClassOrderedChain) {
  // The avx512 backend computes a block's last 1-31 columns in masked
  // 8-column narrow tiles (4 rows, then 1 row at a time). Every DP of every narrow
  // rect — each width 1..40 at each column offset mod 8, 1..9 rows, under
  // the default and a tight block geometry — must carry the bits of (a) the
  // same DP computed inside one wide rect (mostly the 96-column body) and
  // (b) the documented per-DP chain, replayed here with scalar fma: runs
  // in plan order, alignment class e mod 8, ascending within the class.
  if (!nl::kernel_avx512_available()) GTEST_SKIP() << "CPU/build without AVX-512F";
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const int n = 104;
  const double c = 1.3;
  for (const int f : {2, 8}) {
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    const auto u = random_field(g, 500 + static_cast<unsigned>(f));

    // (b) the class-ordered reference chain.
    nl::stencil_plan plan(st);
    auto chain = g.make_field();
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (const auto& r : plan.runs()) {
          const double* w = plan.weights().data() + r.weight_index;
          for (int e8 = 0; e8 < 8 && e8 < r.length; ++e8)
            for (int e = e8; e < r.length; e += 8)
              acc = std::fma(w[e], u[g.flat(i + r.di, j + r.dj_begin + e)], acc);
        }
        chain[g.flat(i, j)] = c * std::fma(-plan.weight_sum(), u[g.flat(i, j)], acc);
      }

    nl::stencil_plan tight(st);
    nl::kernel_tuning t;
    t.row_block = nl::kernel_min_row_block;
    t.col_tile = nl::kernel_min_col_tile;
    tight.set_tuning(t);
    for (const auto* p : {&plan, &tight}) {
      // (a) one wide rect over the whole interior.
      const auto wide =
          apply_backend(g, *p, c, u, {0, n, 0, n}, nl::kernel_backend::avx512);
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          ASSERT_EQ(bits(wide[g.flat(i, j)]), bits(chain[g.flat(i, j)]))
              << "eps " << f << " wide rect at (" << i << ", " << j << ")";

      auto got = g.make_field();  // zero again outside each rect after use
      for (int width = 1; width <= 40; ++width)
        for (int off = 0; off < 8; ++off)
          for (int rows = 1; rows <= 9; ++rows) {
            const int r0 = (width + 3 * off + rows) % (n - rows + 1);
            const int c0 = 24 + off;  // crosses the 32-column tile boundary
            const nl::dp_rect rect{r0, r0 + rows, c0, c0 + width};
            nl::apply_nonlocal_operator_raw(u.data(), got.data(), g.stride(),
                                            g.ghost(), *p, c, rect,
                                            nl::kernel_backend::avx512);
            // A tile's reach: its rows and eight columns on either side;
            // the masked stores must leave all but the rect's DPs alone.
            for (int i = std::max(r0 - 4, 0); i < std::min(r0 + rows + 4, n); ++i)
              for (int j = c0 - 8; j < c0 + width + 8; ++j) {
                const bool in = i >= rect.row_begin && i < rect.row_end &&
                                j >= rect.col_begin && j < rect.col_end;
                ASSERT_EQ(bits(got[g.flat(i, j)]), in ? bits(wide[g.flat(i, j)]) : 0u)
                    << "eps " << f << " rect " << rows << "x" << width << " at col "
                    << c0 << ": DP (" << i << ", " << j << ")";
                got[g.flat(i, j)] = 0.0;
              }
          }
    }
  }
}

// ------------------------------------------------------- solver integration ----

TEST(KernelSolvers, SerialSolverErrorIsBackendIndependent) {
  // The measured discretization error must not depend on which backend
  // evaluated the operator (beyond FP noise far below the error itself).
  // Each serial session pins its own backend; e = sum_k e_k is summed by
  // the observer after every step, as bench/fig08 does.
  struct errors {
    double total_error_e = 0.0;
    double final_ek = 0.0;
  };
  const auto run_on = [](const char* backend) {
    nlh::api::session_options opt;
    opt.mode = nlh::api::execution_mode::serial;
    opt.n = 24;
    opt.epsilon_factor = 3;
    opt.kernel_backend = backend;
    nlh::api::session session(opt);
    auto& solver = session.solver();
    errors e;
    solver.set_observer([&](const nlh::api::step_event&) {
      e.total_error_e += solver.error_ek_vs_exact();
    });
    solver.run(10);
    solver.set_observer(nullptr);
    e.final_ek = solver.error_ek_vs_exact();
    return e;
  };
  const auto ref = run_on("scalar");
  for (const char* b : {"row_run", "simd", "avx512"}) {
    const auto res = run_on(b);
    EXPECT_NEAR(res.total_error_e, ref.total_error_e,
                1e-9 * std::abs(ref.total_error_e));
    EXPECT_NEAR(res.final_ek, ref.final_ek, 1e-9 * std::abs(ref.final_ek));
  }
}

TEST(KernelSolvers, SolverKernelCountersFollowTheDerivedGeometry) {
  // The solver keeps the plan's cache-derived block geometry; its kernel
  // counters must reflect the blocked sweep over that geometry. (Bitwise
  // invariance under forced geometries is KernelBlocking's job.)
  nl::solver_config cfg;
  cfg.n = 40;
  cfg.epsilon_factor = 8;
  const int num_steps = 5;

  nl::serial_solver solver(cfg);
  solver.set_initial_condition();
  for (int k = 0; k < num_steps; ++k) solver.step(k);

  const auto& plan = solver.kernel_plan();
  EXPECT_EQ(plan.blocking().row_block,
            nl::compute_block_geometry(plan.reach()).row_block);
  EXPECT_EQ(plan.blocking().col_tile,
            nl::compute_block_geometry(plan.reach()).col_tile);
  const auto& ks = solver.kernel_stats();
  EXPECT_EQ(ks.applies, static_cast<std::uint64_t>(num_steps));
  EXPECT_EQ(ks.dps, static_cast<std::uint64_t>(num_steps) * cfg.n * cfg.n);
  EXPECT_EQ(ks.blocks, static_cast<std::uint64_t>(num_steps) *
                           static_cast<std::uint64_t>(nl::count_blocks(
                               plan.blocking(), 0, cfg.n, 0, cfg.n)));
  EXPECT_GT(ks.seconds, 0.0);
  EXPECT_GT(ks.mdps(), 0.0);
}
