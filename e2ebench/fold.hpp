#pragma once
///
/// \file fold.hpp
/// \brief Order statistics and span self-time folding for the end-to-end
/// benchmark (e2ebench/README.md).
///
/// `fold_spans` turns the process tracer's complete ('X') events into
/// per-name self time: on each thread, a span nested inside another is its
/// child, and a span's self time is its duration minus the time its direct
/// children cover. Spans recorded by RAII guards on one thread nest
/// properly or are disjoint; a span that only partially overlaps the open
/// one is treated as a sibling, never as a child.
///

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.hpp"

namespace nlh::e2e {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (the "type 7" estimator). 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Median of `values` (quantile 0.5).
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Aggregate of every span of one name.
struct span_total {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  ///< summed durations
  std::int64_t self_ns = 0;   ///< summed durations minus direct children
};

/// One span with its position in the nesting, as folded.
struct folded_span {
  const char* name = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t arg = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  int parent = -1;  ///< index into fold_result::spans; -1 = top level
};

struct fold_result {
  std::vector<folded_span> spans;            ///< every 'X' event, folded
  std::map<std::string, span_total> by_name; ///< self/total time per span name
  std::map<std::string, std::uint64_t> instants;  ///< 'i' events per name
};

/// Fold `events` (any order, any mix of threads). Events outside
/// [window_begin_ns, window_end_ns) by start time are ignored; the default
/// window takes everything.
fold_result fold_spans(const std::vector<obs::trace_event>& events,
                       std::int64_t window_begin_ns = INT64_MIN,
                       std::int64_t window_end_ns = INT64_MAX);

}  // namespace nlh::e2e
