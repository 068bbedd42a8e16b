#pragma once
///
/// \file block_plan.hpp
/// \brief Cache-aware blocked execution plan for the nonlocal kernel: the
/// (row-block x column-tile) geometry every backend iterates, sized from the
/// stencil reach and the machine's cache hierarchy (docs/kernels.md).
///
/// The big-stencil regime is memory bound: one output row reads
/// `2*reach + 1` input rows, and at large epsilon that sliding window no
/// longer fits the L1d cache, so the FMA units stall on L2 (or DRAM) for
/// every run. The block plan restores locality by tiling the output rect
/// into column tiles narrow enough that the whole input window of a tile
/// stays cache resident while a block of output rows sweeps over it — each
/// input row loaded for output row `i` is then reused by every remaining
/// row of the block before eviction.
///
/// Geometry is derived once per stencil_plan from a probed cache model
/// (`probe_cache_geometry`, Linux sysfs with conservative fallbacks) and
/// can be overridden per plan through `kernel_tuning`
/// (`stencil_plan::set_tuning`; the kernel bench's unblocked arm and the
/// kernel tests use it, the solvers keep the derived geometry). Every
/// derived dimension is clamped to documented bounds, so degenerate inputs
/// (zero-size caches, reaches wider than the cache) still yield a valid
/// plan.
///
/// Blocking never changes results: blocks partition the rect, each DP is
/// written exactly once, and every backend accumulates a DP's stencil sum
/// in the same canonical order regardless of which block the DP landed in.
/// Block boundaries are aligned to absolute multiples of the block dims in
/// the rect's coordinate frame, so a rect split into strips (the
/// distributed solver's fine strips) sees the same boundaries as the
/// full-rect sweep instead of fighting them.
///

#include <cstdint>

namespace nlh::obs {
struct metrics_snapshot;
}

namespace nlh::nonlocal {

/// Per-plan kernel tuning knobs. Zero means "derive": probe the cache
/// sizes, size the block dims from the stencil reach. Explicit values are
/// clamped to the documented bounds, never trusted blindly.
struct kernel_tuning {
  long long l1d_bytes = 0;  ///< L1 data cache budget source (0 = probe)
  long long l2_bytes = 0;   ///< L2 cache budget source (0 = probe)
  int row_block = 0;        ///< output rows per block (0 = derive)
  int col_tile = 0;         ///< output columns per tile (0 = derive)
};

/// What the machine probe (or the tuning override) reports.
struct cache_geometry {
  long long l1d_bytes = 0;
  long long l2_bytes = 0;
};

/// L1d/L2 sizes of the running machine: Linux sysfs
/// (/sys/devices/system/cpu/cpu0/cache) when available, else conservative
/// defaults (32 KiB / 1 MiB). Probed once per process and cached.
cache_geometry probe_cache_geometry();

/// Clamp bounds for derived and explicit block dims. The column tile cap is
/// also the size of the row_run backend's stack accumulator, so it is a
/// hard architectural limit, not just a heuristic. Tiles are always
/// multiples of kernel_min_col_tile (32 doubles = one full zmm×4 register
/// block), so no backend's vector body ever straddles a tile boundary.
inline constexpr int kernel_min_col_tile = 32;
inline constexpr int kernel_max_col_tile = 1024;
inline constexpr int kernel_min_row_block = 4;
inline constexpr int kernel_max_row_block = 65536;

/// Floor for *derived* tiles (explicit overrides may go down to
/// kernel_min_col_tile, which tests use to force many tiny blocks). The
/// AVX-512 backend's widest register block covers 96 columns; a derived
/// tile narrower than that would push every DP through the narrow body and
/// cost more in register-block efficiency than the cache model can win
/// back, so the model never chooses one.
inline constexpr int kernel_derived_min_col_tile = 96;

/// The blocked execution geometry of one stencil_plan.
struct block_geometry {
  int row_block = kernel_max_row_block;
  int col_tile = kernel_max_col_tile;
};

/// Derive the geometry for a stencil of the given reach under `tuning`,
/// using `cache` as the machine model. Deterministic and total: any inputs
/// (including negative or absurd ones) produce dims inside the clamp
/// bounds above, with col_tile a multiple of kernel_min_col_tile.
block_geometry compute_block_geometry(int reach, const kernel_tuning& tuning,
                                      const cache_geometry& cache);

/// Same, against the probed machine geometry (tuning cache fields, when
/// positive, override the probe).
block_geometry compute_block_geometry(int reach, const kernel_tuning& tuning = {});

/// Tuning that pins both dims to their maxima — a single block for every
/// rect up to kernel_max_col_tile columns, i.e. the pre-blocking execution
/// order. The bench guard measures blocked vs unblocked through this.
kernel_tuning kernel_tuning_unblocked();

/// Number of (row-block x column-tile) blocks the aligned iteration visits
/// for a rows x cols rect — the `kernel/blocks` observable. Counts the
/// absolute-aligned tiling: a rect whose origin is off-boundary gets a
/// leading partial block per dimension.
std::int64_t count_blocks(const block_geometry& g, int row_begin, int row_end,
                          int col_begin, int col_end);

/// Cumulative kernel execution observables one solver accumulates and
/// exports as `kernel/*` metrics (docs/kernels.md).
struct kernel_exec_stats {
  std::uint64_t applies = 0;  ///< apply_nonlocal_operator_raw calls
  std::uint64_t blocks = 0;   ///< blocks visited across those calls
  std::uint64_t dps = 0;      ///< DP updates performed
  double seconds = 0.0;       ///< wall seconds inside the kernel
  /// Effective throughput in million DP updates per second (0 when no
  /// kernel time has been measured yet).
  double mdps() const { return seconds > 0.0 ? dps / seconds / 1e6 : 0.0; }
  /// Append the `kernel/*` metrics: these counters, the throughput and the
  /// block geometry `g` of the solver's plan. Both solvers export through
  /// here, so the names never branch on the execution mode.
  void metrics_into(obs::metrics_snapshot& snap, const block_geometry& g) const;
};

}  // namespace nlh::nonlocal
