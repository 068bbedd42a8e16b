#pragma once
///
/// \file metrics.hpp
/// \brief Counters, gauges and fixed-bucket latency histograms with
/// p50/p90/p99 estimation — the metrics pillar of `src/obs/`
/// (docs/observability.md).
///
/// Naming convention: `subsystem/entity/metric`, e.g.
/// `dist/ghost/message_bytes` or `svc/batch/queue_wait_seconds`. There is
/// no registry: each producer (solver, service, scheduler, quota ledger,
/// hibernation manager) owns its instruments as members and names them
/// only when it exports them through its `metrics_into(snapshot)` into a
/// plain `metrics_snapshot`, which `obs/metrics_export.hpp` serializes to
/// JSON.
///
/// Histograms use log-spaced buckets (`buckets_per_decade` per decade
/// between `min_value` and `max_value`, plus underflow/overflow): the
/// relative quantile error is bounded by the bucket ratio (~33% per bucket
/// at the default 8/decade, interpolated geometrically within the bucket),
/// which is the right trade for latency tails spanning microseconds to
/// seconds. All instruments are thread safe; recording is a handful of
/// arithmetic ops plus one uncontended mutex acquisition.
///

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nlh::obs {

/// Monotonic event/byte counter.
class counter {
 public:
  void add(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value.
class gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

struct histogram_options {
  double min_value = 1e-7;    ///< lower bound of the first regular bucket
  double max_value = 1e3;     ///< upper bound of the last regular bucket
  int buckets_per_decade = 8; ///< log-spaced resolution
};

/// Frozen view of one histogram; quantiles are geometric interpolations
/// within their bucket. All fields are 0 when `count` is 0.
struct histogram_summary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class histogram {
 public:
  explicit histogram(histogram_options opt = {});

  void record(double value);
  /// Estimate quantile `q` in [0, 1] from the bucket counts.
  double quantile(double q) const;
  histogram_summary summary() const;
  void reset();

 private:
  /// Caller holds m_.
  double quantile_locked(double q) const;

  histogram_options opt_;
  double log_min_;
  double inv_log_step_;  ///< buckets per natural-log unit
  mutable std::mutex m_;
  std::vector<std::uint64_t> buckets_;  ///< [underflow, b0..bn-1, overflow]
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Plain-data snapshot of the instruments the producers export.
struct metrics_snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, histogram_summary>> histograms;

  void add_counter(std::string name, std::uint64_t v) {
    counters.emplace_back(std::move(name), v);
  }
  void add_gauge(std::string name, double v) { gauges.emplace_back(std::move(name), v); }
  void add_histogram(std::string name, histogram_summary s) {
    histograms.emplace_back(std::move(name), s);
  }
  /// Append everything from `other` (prefix applied to its names).
  void merge(const metrics_snapshot& other, const std::string& prefix = "");
};

}  // namespace nlh::obs
