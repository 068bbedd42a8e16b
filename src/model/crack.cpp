#include "model/crack.hpp"

#include "support/assert.hpp"

namespace nlh::model {

namespace {

/// Liang-Barsky style clip test: does the parametric segment enter the box?
bool clip_test(double p, double q, double& t0, double& t1) {
  if (p == 0.0) return q >= 0.0;  // parallel: inside iff q >= 0
  const double r = q / p;
  if (p < 0.0) {
    if (r > t1) return false;
    if (r > t0) t0 = r;
  } else {
    if (r < t0) return false;
    if (r < t1) t1 = r;
  }
  return true;
}

}  // namespace

bool segment_intersects_rect(const crack_line& c, double rx0, double ry0, double rx1,
                             double ry1) {
  NLH_ASSERT(rx0 <= rx1 && ry0 <= ry1);
  const double dx = c.x1 - c.x0;
  const double dy = c.y1 - c.y0;
  double t0 = 0.0, t1 = 1.0;
  if (!clip_test(-dx, c.x0 - rx0, t0, t1)) return false;
  if (!clip_test(dx, rx1 - c.x0, t0, t1)) return false;
  if (!clip_test(-dy, c.y0 - ry0, t0, t1)) return false;
  if (!clip_test(dy, ry1 - c.y0, t0, t1)) return false;
  return t0 <= t1;
}

std::vector<double> crack_work_scale(const dist::tiling& t, const crack_line& c,
                                     double work_reduction) {
  NLH_ASSERT(work_reduction >= 0.0 && work_reduction < 1.0);
  // SD physical extent: the domain is [0,1]^2 tiled uniformly by the SD grid.
  const double sd_w = 1.0 / t.sd_cols();
  const double sd_h = 1.0 / t.sd_rows();
  std::vector<double> scale(static_cast<std::size_t>(t.num_sds()), 1.0);
  for (int sd = 0; sd < t.num_sds(); ++sd) {
    const double x0 = t.sd_col(sd) * sd_w;
    const double y0 = t.sd_row(sd) * sd_h;
    if (segment_intersects_rect(c, x0, y0, x0 + sd_w, y0 + sd_h))
      scale[static_cast<std::size_t>(sd)] = 1.0 - work_reduction;
  }
  return scale;
}

}  // namespace nlh::model
