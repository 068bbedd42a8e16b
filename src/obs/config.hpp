#pragma once
///
/// \file config.hpp
/// \brief Observability switches: the process-wide runtime tracing toggle
/// and ring capacity (docs/observability.md).
///
/// Tracing has one gate: `set_tracing_enabled(bool)` toggles recording at
/// runtime, and the disabled fast path is one relaxed atomic load and a
/// predictable branch per instrumentation site (bench/micro_obs
/// `BM_ObsSpanDisabled`).
///
/// Metrics (obs/metrics.hpp) have no switch: histograms and counters are
/// recorded at step/job/chunk granularity, far off any per-DP loop.
///

#include <atomic>
#include <cstddef>

namespace nlh::obs {

/// Tunables applied to trace rings created after `configure()`; existing
/// per-thread rings keep their capacity (they are fixed-size by design).
struct config {
  /// Events each thread's ring holds before wrapping (oldest overwritten).
  /// 16384 events x 40 B is well under 1 MiB per traced thread.
  std::size_t ring_capacity = 16384;
};

namespace detail {
extern std::atomic<bool> tracing_enabled;
}  // namespace detail

/// Runtime master switch for trace recording. Off by default; flipping it
/// on/off mid-run is safe from any thread (spans opened while enabled still
/// close and record).
void set_tracing_enabled(bool on);

inline bool tracing_enabled() {
  return detail::tracing_enabled.load(std::memory_order_relaxed);
}

/// Install `cfg` for rings created from now on (typically called once,
/// before the first traced region).
void configure(const config& cfg);
config current_config();

}  // namespace nlh::obs
