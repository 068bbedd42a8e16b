#include "nonlocal/influence.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace nlh::nonlocal {

double influence::operator()(double r) const {
  switch (kind_) {
    case influence_kind::constant:
      return 1.0;
    case influence_kind::linear:
      return 1.0 - r;
    case influence_kind::gaussian:
      return std::exp(-4.0 * r * r);
  }
  NLH_ASSERT_MSG(false, "influence: unknown kind");
  return 0.0;
}

double influence::moment(int i) const {
  NLH_ASSERT(i >= 0);
  switch (kind_) {
    case influence_kind::constant:
      // \int_0^1 r^i dr
      return 1.0 / (i + 1);
    case influence_kind::linear:
      // \int_0^1 (1-r) r^i dr = 1/(i+1) - 1/(i+2)
      return 1.0 / (i + 1) - 1.0 / (i + 2);
    case influence_kind::gaussian: {
      // Composite Simpson over [0,1]; J is smooth, 256 panels is plenty.
      const int panels = 256;
      const double dr = 1.0 / panels;
      auto f = [&](double r) { return std::exp(-4.0 * r * r) * std::pow(r, i); };
      double sum = f(0.0) + f(1.0);
      for (int p = 1; p < panels; ++p) sum += (p % 2 ? 4.0 : 2.0) * f(p * dr);
      return sum * dr / 3.0;
    }
  }
  NLH_ASSERT_MSG(false, "influence: unknown kind");
  return 0.0;
}

double influence::scaling_constant(double conductivity, double epsilon) const {
  NLH_ASSERT(epsilon > 0.0);
  const double pi = 3.14159265358979323846;
  return 2.0 * conductivity / (pi * epsilon * epsilon * epsilon * epsilon * moment(3));
}

}  // namespace nlh::nonlocal
