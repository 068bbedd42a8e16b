#pragma once
///
/// \file stats.hpp
/// \brief Batch descriptive statistics for the load balancer's busy-time
/// analysis.
///

#include <vector>

namespace nlh::support {

/// Batch helpers over a sample vector; 0 for an empty one.
double mean(const std::vector<double>& xs);
/// Population standard deviation, by Welford's one-pass update.
double stddev(const std::vector<double>& xs);

/// Coefficient of variation of busy times: the paper's implicit imbalance
/// signal ("significantly different busy times ... indicate a load
/// imbalance"). 0 = perfectly balanced.
double imbalance_cov(const std::vector<double>& busy_times);

}  // namespace nlh::support
