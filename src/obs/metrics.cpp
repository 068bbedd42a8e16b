///
/// \file metrics.cpp
/// \brief Histogram bucketing/quantiles and snapshot merging.
///

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace nlh::obs {

histogram::histogram(histogram_options opt) : opt_(opt) {
  NLH_ASSERT_MSG(opt_.min_value > 0.0 && opt_.max_value > opt_.min_value,
                 "histogram: bounds must satisfy 0 < min < max");
  NLH_ASSERT_MSG(opt_.buckets_per_decade >= 1,
                 "histogram: need at least 1 bucket per decade");
  log_min_ = std::log(opt_.min_value);
  // b buckets per decade => bucket width ln(10)/b in log space.
  inv_log_step_ = static_cast<double>(opt_.buckets_per_decade) / std::log(10.0);
  const auto decades = std::log(opt_.max_value / opt_.min_value) / std::log(10.0);
  const auto regular = static_cast<std::size_t>(
      std::ceil(decades * opt_.buckets_per_decade - 1e-9));
  buckets_.assign(regular + 2, 0);  // + underflow + overflow
}

void histogram::record(double value) {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t idx;
  if (!(value >= opt_.min_value)) {  // also catches NaN -> underflow
    idx = 0;
  } else if (value >= opt_.max_value) {
    idx = buckets_.size() - 1;
  } else {
    idx = 1 + static_cast<std::size_t>((std::log(value) - log_min_) * inv_log_step_);
    idx = std::min(idx, buckets_.size() - 2);  // guard fp edge at max_value
  }
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil: the sample such that a fraction
  // q of the population is at or below it).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets_[i];
    if (cum < rank) continue;
    // The quantile falls in bucket i: geometric interpolation between its
    // bounds by the within-bucket rank fraction, clamped to observed range.
    double lo, hi;
    if (i == 0) {
      lo = min_;
      hi = opt_.min_value;
    } else if (i == buckets_.size() - 1) {
      lo = opt_.max_value;
      hi = max_;
    } else {
      lo = std::exp(log_min_ + static_cast<double>(i - 1) / inv_log_step_);
      hi = std::exp(log_min_ + static_cast<double>(i) / inv_log_step_);
    }
    lo = std::clamp(lo, min_, max_);
    hi = std::clamp(hi, min_, max_);
    if (!(lo > 0.0) || !(hi > 0.0) || hi <= lo)
      return std::clamp(hi, min_, max_);
    const double frac = static_cast<double>(rank - prev) /
                        static_cast<double>(buckets_[i]);
    return lo * std::exp(frac * std::log(hi / lo));
  }
  return max_;
}

double histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lk(m_);
  return quantile_locked(q);
}

histogram_summary histogram::summary() const {
  std::lock_guard<std::mutex> lk(m_);
  histogram_summary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = quantile_locked(0.50);
  s.p90 = quantile_locked(0.90);
  s.p99 = quantile_locked(0.99);
  return s;
}

void histogram::reset() {
  std::lock_guard<std::mutex> lk(m_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

void metrics_snapshot::merge(const metrics_snapshot& other,
                             const std::string& prefix) {
  for (const auto& [n, v] : other.counters) counters.emplace_back(prefix + n, v);
  for (const auto& [n, v] : other.gauges) gauges.emplace_back(prefix + n, v);
  for (const auto& [n, v] : other.histograms) histograms.emplace_back(prefix + n, v);
}

}  // namespace nlh::obs
