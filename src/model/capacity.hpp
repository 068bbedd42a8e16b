#pragma once
///
/// \file capacity.hpp
/// \brief Builders for node capacity scenarios: a uniform cluster and
/// static heterogeneity.
///

#include <vector>

#include "sim/capacity_trace.hpp"

namespace nlh::model {

/// All nodes the same constant speed.
std::vector<sim::capacity_trace> uniform_cluster(int nodes, double speed);

/// Per-node constant speeds (e.g. {1, 2, 3, 4} for a 1:2:3:4 cluster).
std::vector<sim::capacity_trace> heterogeneous_cluster(const std::vector<double>& speeds);

}  // namespace nlh::model
