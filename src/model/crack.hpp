#pragma once
///
/// \file crack.hpp
/// \brief Peridynamics-motivated crack workload (paper §7).
///
/// In nonlocal fracture models, DPs on opposite sides of a crack line stop
/// interacting, so SDs crossed by the crack carry less work. This module
/// turns a crack segment in [0,1]^2 into per-SD work
/// multipliers consumed by the simulator's cost model — exercising exactly
/// the load-imbalance source the paper's balancer targets.
///

#include <vector>

#include "dist/tiling.hpp"

namespace nlh::model {

/// Line segment in domain coordinates ([0,1]^2).
struct crack_line {
  double x0 = 0.0, y0 = 0.0;
  double x1 = 0.0, y1 = 0.0;
};

/// True when the segment intersects the axis-aligned rectangle
/// [rx0, rx1] x [ry0, ry1] (endpoint containment counts).
bool segment_intersects_rect(const crack_line& c, double rx0, double ry0, double rx1,
                             double ry1);

/// Per-SD work multipliers: SDs crossed by the crack get
/// 1 - work_reduction, everyone else 1. work_reduction in [0, 1).
std::vector<double> crack_work_scale(const dist::tiling& t, const crack_line& c,
                                     double work_reduction);

}  // namespace nlh::model
