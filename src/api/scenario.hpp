#pragma once
///
/// \file scenario.hpp
/// \brief Pluggable workload scenarios and their string-keyed lookup —
/// the "what to solve" half of the `nlh::api` facade (docs/api.md).
///
/// A scenario supplies everything about the model that is not
/// discretization machinery: the initial condition, the discrete source
/// term, an optional exact solution (enabling error-vs-exact metrics) and
/// optional SD-grid metadata (material mask, per-SD work weights) the
/// session feeds to the partitioner. Both solvers
/// (`nonlocal::serial_solver` and `dist::dist_solver`) route their IC and
/// source evaluation through this interface; the `manufactured` scenario
/// reproduces the historical hard-wired problem bit for bit and stays the
/// default, so the serial==distributed bitwise guarantee is untouched.
///
/// This header is deliberately dependency-light (grid, kernel plan and DP
/// rectangles only) so the numeric layers underneath the facade can
/// consume it without a dependency cycle.
///

#include <memory>
#include <string>
#include <vector>

#include "nonlocal/grid2d.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"

namespace nlh::api {

/// Discretization context handed to scenario evaluations: the padded grid,
/// the compiled stencil plan and the model scaling constant c. All three
/// are owned by the calling solver and outlive the call.
struct scenario_context {
  const nonlocal::grid2d* grid = nullptr;
  const nonlocal::stencil_plan* plan = nullptr;
  double scaling_constant = 0.0;
};

class scenario {
 public:
  virtual ~scenario() = default;

  /// Registry key / display name.
  virtual std::string name() const = 0;

  /// Initial condition u0(x1, x2) on the interior (the collar keeps the
  /// volumetric boundary condition u = 0, paper eq. 4).
  virtual double initial(double x1, double x2) const = 0;

  /// Fill the auxiliary field over `rect` (interior DP indices) at time
  /// `t` — whatever source_into() needs precomputed on the global padded
  /// grid (manufactured: the exact solution w(t, .)); write only inside
  /// `rect`. Every step covers the whole interior with such calls, but not
  /// behind a barrier: the distributed solver fills one SD per call on the
  /// SD's owner, concurrently with the fills of other SDs and with
  /// source_into() over other rectangles. What it guarantees is order per
  /// rectangle: every fill covering a source_into() rect widened by the
  /// ghost width (the aux values that call may read) finishes before that
  /// call starts. Like source_into(), it runs inside the distributed
  /// solver's pool tasks and must not throw: an exception there ends the
  /// process. Default: no-op (no auxiliary data needed).
  virtual void fill_aux(const scenario_context& ctx, double t,
                        const nonlocal::dp_rect& rect,
                        std::vector<double>& aux) const;

  /// Discrete source b(t) over `rect`, written into `out` (padded layout,
  /// interior indices; the collar is never written). `aux` holds the
  /// fill_aux() result of the same step and may be read up to the ghost
  /// width beyond `rect`. Default: zero source.
  virtual void source_into(const scenario_context& ctx, double t,
                           const std::vector<double>& aux,
                           const nonlocal::dp_rect& rect,
                           std::vector<double>& out) const;

  /// True when exact() is meaningful (enables error-vs-exact metrics).
  virtual bool has_exact() const { return false; }

  /// Exact solution w(t, x1, x2); only called when has_exact(). The
  /// default aborts.
  virtual double exact(double t, double x1, double x2) const;

  /// Optional material mask on a row-major SD grid (non-zero = the SD
  /// carries material). Empty = every SD active (the square domain). The
  /// session partitions the masked dual graph when this is non-empty.
  virtual std::vector<char> sd_mask(int sd_rows, int sd_cols) const;

  /// Optional per-SD work multipliers (row-major), fed to the partitioner
  /// as vertex weights. Empty = uniform work per DP.
  virtual std::vector<double> sd_work(int sd_rows, int sd_cols) const;
};

// --------------------------------------------------------------- registry --

/// Instantiate a built-in scenario with its default parameters. Throws
/// std::invalid_argument naming the unknown key and listing the known
/// ones. A scenario of your own goes in session_options::custom_scenario.
std::shared_ptr<const scenario> make_scenario(const std::string& name);

/// Sorted registry keys: "crack", "gaussian_pulse", "lshape",
/// "manufactured".
std::vector<std::string> scenario_names();

// ------------------------------------------------------ built-in scenarios --
// Concrete classes are exposed so callers can instantiate them with
// non-default parameters and hand them to session_options::custom_scenario;
// make_scenario builds default-parameter instances.

/// The paper's manufactured problem (§3.2): w = cos(2 pi t) sin(2 pi x1)
/// sin(2 pi x2), source manufactured at the discrete level. The default
/// scenario; reproduces `nonlocal::manufactured_problem` bitwise.
class manufactured_scenario final : public scenario {
 public:
  std::string name() const override { return "manufactured"; }
  double initial(double x1, double x2) const override;
  void fill_aux(const scenario_context& ctx, double t,
                const nonlocal::dp_rect& rect,
                std::vector<double>& aux) const override;
  void source_into(const scenario_context& ctx, double t,
                   const std::vector<double>& aux, const nonlocal::dp_rect& rect,
                   std::vector<double>& out) const override;
  bool has_exact() const override { return true; }
  double exact(double t, double x1, double x2) const override;
};

/// Source-free Gaussian temperature pulse that diffuses and decays — the
/// simplest "real" workload (no exact solution).
class gaussian_pulse_scenario final : public scenario {
 public:
  /// `support_radius > 0` truncates the pulse to compact support: the
  /// profile is continuity-shifted (`exp(-r²/2σ²) − exp(-R²/2σ²)`) inside
  /// radius R and *exactly* 0.0 outside. Exact zeros propagate under the
  /// source-free forward-Euler update, which is what the delta codec's RLE
  /// fast path compresses (docs/checkpoint.md) — the registry default
  /// (support_radius = 0, infinite support) is bitwise unchanged.
  explicit gaussian_pulse_scenario(double center_x = 0.5, double center_y = 0.5,
                                   double sigma = 0.1, double amplitude = 1.0,
                                   double support_radius = 0.0);
  std::string name() const override { return "gaussian_pulse"; }
  double initial(double x1, double x2) const override;

 private:
  double cx_, cy_, sigma_, amplitude_, support_radius_;
};

/// L-shaped material domain (the paper's future-work item): the top-right
/// SD quadrant carries no material; a pulse starts in the lower-left
/// quadrant. The mask shapes the dual graph the partitioner sees.
class lshape_scenario final : public scenario {
 public:
  std::string name() const override { return "lshape"; }
  double initial(double x1, double x2) const override;
  std::vector<char> sd_mask(int sd_rows, int sd_cols) const override;
};

/// Cracked plate (paper §7): the crack segment scales down the work of
/// every SD it crosses, which the session forwards to the partitioner as
/// vertex weights — the load-imbalance source Algorithm 1 targets.
class crack_scenario final : public scenario {
 public:
  /// Crack segment (x0,y0)-(x1,y1) in domain coordinates [0,1]^2; cracked
  /// SDs do (1 - work_reduction) of normal work.
  explicit crack_scenario(double x0 = 0.02, double y0 = 0.25, double x1 = 0.98,
                          double y1 = 0.25, double work_reduction = 0.6);
  std::string name() const override { return "crack"; }
  double initial(double x1, double x2) const override;
  std::vector<double> sd_work(int sd_rows, int sd_cols) const override;
  double work_reduction() const { return reduction_; }

 private:
  double x0_, y0_, x1_, y1_, reduction_;
};

}  // namespace nlh::api
