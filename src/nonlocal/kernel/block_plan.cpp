///
/// \file block_plan.cpp
/// \brief Cache probe and block-geometry derivation for the blocked kernel
/// pipeline (see block_plan.hpp and docs/kernels.md).
///

#include "nonlocal/kernel/block_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace nlh::nonlocal {

namespace {

/// Conservative fallbacks when the machine cannot be probed: small enough
/// to be safe on any x86-64/ARM server of the last 15 years.
constexpr long long fallback_l1d = 32ll * 1024;
constexpr long long fallback_l2 = 1ll * 1024 * 1024;

/// Sanity clamp for probed or user-supplied cache sizes: below 4 KiB the
/// model would degenerate (every tile at the minimum), above 1 GiB the
/// "cache" is not a cache. Applied uniformly so a hostile override cannot
/// push the geometry outside its bounds.
long long clamp_cache_bytes(long long bytes, long long fallback) {
  if (bytes <= 0) return fallback;
  return std::clamp(bytes, 4ll * 1024, 1ll * 1024 * 1024 * 1024);
}

/// Parse one sysfs cache size file ("48K", "2048K", "32M"...). Returns 0 on
/// any malformed content.
long long read_sysfs_size(const char* path) {
  std::FILE* fp = std::fopen(path, "r");
  if (!fp) return 0;
  char buf[64] = {};
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, fp);
  std::fclose(fp);
  if (got == 0) return 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf, &end, 10);
  if (v <= 0 || end == buf) return 0;
  if (*end == 'K') return v * 1024;
  if (*end == 'M') return v * 1024 * 1024;
  if (*end == 'G') return v * 1024 * 1024 * 1024;
  return v;
}

cache_geometry probe_once() {
  cache_geometry g{fallback_l1d, fallback_l2};
#if defined(__linux__)
  // Walk cpu0's cache indices; index layout varies across kernels, so match
  // on (level, type) instead of hardcoding index numbers.
  for (int idx = 0; idx < 8; ++idx) {
    char path[128];
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu0/cache/index%d/level", idx);
    std::FILE* fp = std::fopen(path, "r");
    if (!fp) continue;
    int level = 0;
    const bool have_level = std::fscanf(fp, "%d", &level) == 1;
    std::fclose(fp);
    if (!have_level) continue;

    char type[32] = {};
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu0/cache/index%d/type", idx);
    fp = std::fopen(path, "r");
    if (!fp) continue;
    const bool have_type = std::fscanf(fp, "%31s", type) == 1;
    std::fclose(fp);
    if (!have_type) continue;
    if (std::strcmp(type, "Instruction") == 0) continue;

    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/cpu/cpu0/cache/index%d/size", idx);
    const long long bytes = read_sysfs_size(path);
    if (bytes <= 0) continue;
    if (level == 1) g.l1d_bytes = bytes;
    if (level == 2) g.l2_bytes = bytes;
  }
#endif
  g.l1d_bytes = clamp_cache_bytes(g.l1d_bytes, fallback_l1d);
  g.l2_bytes = clamp_cache_bytes(g.l2_bytes, fallback_l2);
  return g;
}

/// Largest multiple of kernel_min_col_tile such that the sliding input
/// window of one column tile — (2*reach + 1) row segments of
/// (tile + 2*reach) doubles — fits in `budget_bytes`. 0 when even the
/// minimum tile does not fit.
int tile_fitting_budget(int reach, long long budget_bytes) {
  const long long window_rows = 2ll * reach + 1;
  const long long per_col = window_rows * static_cast<long long>(sizeof(double));
  // tile <= budget/per_col - 2*reach
  const long long raw = budget_bytes / per_col - 2ll * reach;
  if (raw < kernel_min_col_tile) return 0;
  const long long aligned =
      (raw / kernel_min_col_tile) * kernel_min_col_tile;
  return static_cast<int>(std::min<long long>(aligned, kernel_max_col_tile));
}

}  // namespace

cache_geometry probe_cache_geometry() {
  static const cache_geometry g = probe_once();
  return g;
}

block_geometry compute_block_geometry(int reach, const kernel_tuning& tuning,
                                      const cache_geometry& cache) {
  const int r = std::max(reach, 0);
  const long long l1 = clamp_cache_bytes(tuning.l1d_bytes > 0 ? tuning.l1d_bytes
                                                              : cache.l1d_bytes,
                                         fallback_l1d);
  const long long l2 = clamp_cache_bytes(tuning.l2_bytes > 0 ? tuning.l2_bytes
                                                             : cache.l2_bytes,
                                         fallback_l2);

  block_geometry g;

  if (tuning.col_tile > 0) {
    // Explicit tile: honor it, clamped and aligned down to the tile quantum
    // so the row_run stack accumulator and the SIMD bodies stay within
    // their assumptions.
    const int clamped = std::clamp(tuning.col_tile, kernel_min_col_tile,
                                   kernel_max_col_tile);
    g.col_tile = (clamped / kernel_min_col_tile) * kernel_min_col_tile;
  } else {
    // Half the cache for the sliding window; the other half absorbs the
    // output tile, the weights and whatever else the caller keeps warm.
    // Prefer L1d; when the window cannot fit L1d even at the minimum tile
    // (very large reach), fall back to sizing against L2, and when even
    // that fails, run at the floor — L2-resident halos still beat DRAM.
    // Derived tiles never go below kernel_derived_min_col_tile: the widest
    // AVX-512 register block is 96 columns and starving it costs more than
    // a snug window saves.
    int tile = tile_fitting_budget(r, l1 / 2);
    if (tile == 0) tile = tile_fitting_budget(r, l2 / 2);
    if (tile < kernel_derived_min_col_tile) tile = kernel_derived_min_col_tile;
    g.col_tile = tile;
  }

  if (tuning.row_block > 0) {
    g.row_block = std::clamp(tuning.row_block, kernel_min_row_block,
                             kernel_max_row_block);
  } else {
    // Each block reloads a 2*reach-row halo of its column tiles; a block of
    // 8*reach rows bounds that overhead at 25% while keeping blocks small
    // enough to align with the distributed solver's fine strips.
    g.row_block = std::clamp(8 * std::max(r, 1), kernel_min_row_block,
                             kernel_max_row_block);
  }
  return g;
}

block_geometry compute_block_geometry(int reach, const kernel_tuning& tuning) {
  return compute_block_geometry(reach, tuning, probe_cache_geometry());
}

kernel_tuning kernel_tuning_unblocked() {
  kernel_tuning t;
  t.row_block = kernel_max_row_block;
  t.col_tile = kernel_max_col_tile;
  return t;
}

std::int64_t count_blocks(const block_geometry& g, int row_begin, int row_end,
                          int col_begin, int col_end) {
  if (row_end <= row_begin || col_end <= col_begin) return 0;
  // Absolute alignment: boundaries sit at multiples of the block dims, so
  // the first block of each dimension may be partial.
  const auto spans = [](int begin, int end, int dim) -> std::int64_t {
    const std::int64_t first = begin / dim;
    const std::int64_t last = (end - 1) / dim;
    return last - first + 1;
  };
  return spans(row_begin, row_end, g.row_block) *
         spans(col_begin, col_end, g.col_tile);
}

void kernel_exec_stats::metrics_into(obs::metrics_snapshot& snap,
                                     const block_geometry& g) const {
  snap.add_counter("kernel/applies", applies);
  snap.add_counter("kernel/blocks", blocks);
  snap.add_counter("kernel/dps", dps);
  snap.add_gauge("kernel/mdps", mdps());
  snap.add_gauge("kernel/block_rows", static_cast<double>(g.row_block));
  snap.add_gauge("kernel/col_tile", static_cast<double>(g.col_tile));
}

}  // namespace nlh::nonlocal
