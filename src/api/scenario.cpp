///
/// \file scenario.cpp
/// \brief Built-in scenarios and their string-keyed lookup. The
/// manufactured scenario reproduces nonlocal::manufactured_problem bit for
/// bit, so routing the solvers through it changes no bits of any existing
/// run. Its w and dw/dt fills use the separable form f(t) * sin(2 pi x) *
/// sin(2 pi y): the time factor once per call, sin(2 pi x_j) once per
/// column and sin(2 pi y_i) once per row of each 64-column chunk of the
/// rect, multiplied in the per-DP functions' order (f(t) * sx) * sy, so the
/// values are the same bits as manufactured_problem::w / dwdt at a fraction
/// of the trig calls.
///

#include "api/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dist/tiling.hpp"
#include "model/crack.hpp"
#include "nonlocal/problem.hpp"
#include "support/assert.hpp"

namespace nlh::api {

// ------------------------------------------------------- scenario defaults --

void scenario::fill_aux(const scenario_context&, double, const nonlocal::dp_rect&,
                        std::vector<double>&) const {}

void scenario::source_into(const scenario_context& ctx, double,
                           const std::vector<double>&, const nonlocal::dp_rect& rect,
                           std::vector<double>& out) const {
  const auto& g = *ctx.grid;
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j) out[g.flat(i, j)] = 0.0;
}

double scenario::exact(double, double, double) const {
  NLH_ASSERT_MSG(false, "scenario::exact called on a scenario without an exact "
                        "solution (check has_exact() first)");
  return 0.0;
}

std::vector<char> scenario::sd_mask(int, int) const { return {}; }

std::vector<double> scenario::sd_work(int, int) const { return {}; }

// --------------------------------------------------------------- registry --

namespace {

template <class S>
std::shared_ptr<const scenario> make_default() {
  return std::make_shared<const S>();
}

/// The built-ins by name, sorted; a fixed table, read without a lock.
constexpr struct {
  const char* name;
  std::shared_ptr<const scenario> (*make)();
} builtins[] = {
    {"crack", make_default<crack_scenario>},
    {"gaussian_pulse", make_default<gaussian_pulse_scenario>},
    {"lshape", make_default<lshape_scenario>},
    {"manufactured", make_default<manufactured_scenario>},
};

}  // namespace

std::shared_ptr<const scenario> make_scenario(const std::string& name) {
  for (const auto& b : builtins)
    if (name == b.name) return b.make();
  std::ostringstream msg;
  msg << "unknown scenario '" << name << "'; registered scenarios:";
  for (const auto& b : builtins) msg << " " << b.name;
  throw std::invalid_argument(msg.str());
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& b : builtins) names.emplace_back(b.name);
  return names;
}

// ----------------------------------------------------------- manufactured --

namespace {

constexpr double two_pi = 2.0 * 3.14159265358979323846;

/// Call `emit(flat index, value)` for every DP of the interior rect `rect`
/// with value (ft * sin(2 pi x_j)) * sin(2 pi y_i): manufactured_problem::w
/// / dwdt with their time factor `ft` hoisted (interior DPs lie on the unit
/// square, so their zero-outside branch never fires). Columns go through a
/// stack buffer in chunks, so a call never touches the heap; each row's
/// flat index is asserted at its first and last column.
template <typename Emit>
void for_each_separable(const nonlocal::grid2d& g, double ft,
                        const nonlocal::dp_rect& rect, Emit&& emit) {
  constexpr int chunk = 64;
  double ft_sx[chunk];
  for (int c0 = rect.col_begin; c0 < rect.col_end; c0 += chunk) {
    const int c1 = std::min(c0 + chunk, rect.col_end);
    for (int j = c0; j < c1; ++j) ft_sx[j - c0] = ft * std::sin(two_pi * g.x(j));
    for (int i = rect.row_begin; i < rect.row_end; ++i) {
      const double sy = std::sin(two_pi * g.y(i));
      g.flat(i, c1 - 1);
      const std::size_t row = g.flat(i, c0);
      for (int j = c0; j < c1; ++j)
        emit(row + static_cast<std::size_t>(j - c0), ft_sx[j - c0] * sy);
    }
  }
}

}  // namespace

double manufactured_scenario::initial(double x1, double x2) const {
  return nonlocal::manufactured_problem::u0(x1, x2);
}

void manufactured_scenario::fill_aux(const scenario_context& ctx, double t,
                                     const nonlocal::dp_rect& rect,
                                     std::vector<double>& aux) const {
  // w(t, x, y) = cos(2 pi t) * sin(2 pi x) * sin(2 pi y).
  for_each_separable(*ctx.grid, std::cos(two_pi * t), rect,
                     [&](std::size_t idx, double w) { aux[idx] = w; });
}

void manufactured_scenario::source_into(const scenario_context& ctx, double t,
                                        const std::vector<double>& aux,
                                        const nonlocal::dp_rect& rect,
                                        std::vector<double>& out) const {
  const auto& g = *ctx.grid;
  NLH_ASSERT(aux.size() == g.total() && out.size() == g.total());
  // b = dw/dt - L_h[w] over rect: identical expression order to
  // manufactured_problem::source_into, so the bits match the historical
  // hard-wired path. dw/dt = -2 pi sin(2 pi t) * sin(2 pi x) * sin(2 pi y).
  nonlocal::apply_nonlocal_operator(g, *ctx.plan, ctx.scaling_constant, aux, out, rect);
  for_each_separable(g, -two_pi * std::sin(two_pi * t), rect,
                     [&](std::size_t idx, double dwdt) { out[idx] = dwdt - out[idx]; });
}

double manufactured_scenario::exact(double t, double x1, double x2) const {
  return nonlocal::manufactured_problem::w(t, x1, x2);
}

// --------------------------------------------------------- gaussian pulse --

gaussian_pulse_scenario::gaussian_pulse_scenario(double center_x, double center_y,
                                                 double sigma, double amplitude,
                                                 double support_radius)
    : cx_(center_x),
      cy_(center_y),
      sigma_(sigma),
      amplitude_(amplitude),
      support_radius_(support_radius) {
  NLH_ASSERT_MSG(sigma > 0.0, "gaussian_pulse_scenario: sigma must be positive");
  NLH_ASSERT_MSG(support_radius >= 0.0,
                 "gaussian_pulse_scenario: support_radius must be >= 0");
}

double gaussian_pulse_scenario::initial(double x1, double x2) const {
  if (x1 < 0.0 || x1 > 1.0 || x2 < 0.0 || x2 > 1.0) return 0.0;
  const double dx = x1 - cx_;
  const double dy = x2 - cy_;
  const double r2 = dx * dx + dy * dy;
  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);
  if (support_radius_ > 0.0) {
    if (r2 >= support_radius_ * support_radius_) return 0.0;
    // Shift the profile so it reaches the cutoff continuously; the far
    // field is exact 0.0, not a tiny tail.
    return amplitude_ *
           (std::exp(-r2 * inv2s2) -
            std::exp(-support_radius_ * support_radius_ * inv2s2));
  }
  return amplitude_ * std::exp(-r2 * inv2s2);
}

// ------------------------------------------------------------------ lshape --

double lshape_scenario::initial(double x1, double x2) const {
  // Pulse centered in the lower-left quadrant, away from the re-entrant
  // corner of the L.
  return gaussian_pulse_scenario(0.3, 0.3, 0.08).initial(x1, x2);
}

std::vector<char> lshape_scenario::sd_mask(int sd_rows, int sd_cols) const {
  // Top-right SD quadrant void — matches dist::domain_mask::l_shape.
  const int half_rows = sd_rows / 2;
  const int half_cols = sd_cols / 2;
  std::vector<char> mask(static_cast<std::size_t>(sd_rows) * sd_cols, 1);
  for (int r = 0; r < half_rows; ++r)
    for (int c = half_cols; c < sd_cols; ++c)
      mask[static_cast<std::size_t>(r) * sd_cols + c] = 0;
  return mask;
}

// ------------------------------------------------------------------- crack --

crack_scenario::crack_scenario(double x0, double y0, double x1, double y1,
                               double work_reduction)
    : x0_(x0), y0_(y0), x1_(x1), y1_(y1), reduction_(work_reduction) {
  NLH_ASSERT_MSG(work_reduction >= 0.0 && work_reduction < 1.0,
                 "crack_scenario: work_reduction must be in [0, 1)");
}

double crack_scenario::initial(double x1, double x2) const {
  // The crack perturbs work, not temperature: start from the same smooth
  // field as the manufactured problem so the solve stays comparable.
  return nonlocal::manufactured_problem::u0(x1, x2);
}

std::vector<double> crack_scenario::sd_work(int sd_rows, int sd_cols) const {
  // crack_work_scale only reads the SD-grid geometry, so a unit tiling is
  // enough to reuse it here.
  const dist::tiling t(sd_rows, sd_cols, 1, 1);
  return model::crack_work_scale(t, model::crack_line{x0_, y0_, x1_, y1_},
                                 reduction_);
}

}  // namespace nlh::api
