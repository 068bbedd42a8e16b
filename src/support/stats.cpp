#include "support/stats.hpp"

#include <cmath>
#include <cstddef>

namespace nlh::support {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  std::size_t n = 0;
  double m = 0.0, m2 = 0.0;
  for (double x : xs) {
    ++n;
    const double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
  }
  return std::sqrt(n ? m2 / static_cast<double>(n) : 0.0);
}

double imbalance_cov(const std::vector<double>& busy_times) {
  const double m = mean(busy_times);
  if (m == 0.0) return 0.0;
  return stddev(busy_times) / m;
}

}  // namespace nlh::support
