#include "nonlocal/error.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace nlh::nonlocal {

double error_ek(const grid2d& grid, const std::vector<double>& exact,
                const std::vector<double>& numerical) {
  NLH_ASSERT(exact.size() == grid.total() && numerical.size() == grid.total());
  double sum = 0.0;
  for (int i = 0; i < grid.n(); ++i)
    for (int j = 0; j < grid.n(); ++j) {
      const auto idx = grid.flat(i, j);
      const double d = exact[idx] - numerical[idx];
      sum += d * d;
    }
  return grid.cell_volume() * sum;
}

double error_max_relative(const grid2d& grid, const std::vector<double>& exact,
                          const std::vector<double>& numerical) {
  NLH_ASSERT(exact.size() == grid.total() && numerical.size() == grid.total());
  double max_diff = 0.0;
  double max_exact = 0.0;
  for (int i = 0; i < grid.n(); ++i)
    for (int j = 0; j < grid.n(); ++j) {
      const auto idx = grid.flat(i, j);
      max_diff = std::max(max_diff, std::abs(exact[idx] - numerical[idx]));
      max_exact = std::max(max_exact, std::abs(exact[idx]));
    }
  if (max_exact == 0.0) return 0.0;
  return max_diff / max_exact;
}

}  // namespace nlh::nonlocal
