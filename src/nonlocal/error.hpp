#pragma once
///
/// \file error.hpp
/// \brief Error norms of paper §3.2: e_k = h^d sum_i |u_exact - u_h|^2
/// (eq. 7; a run's total e = sum_k e_k is summed by its caller, e.g. a
/// solver_handle observer) plus max-relative error (Fig. 8 axis).
///

#include <vector>

#include "nonlocal/grid2d.hpp"

namespace nlh::nonlocal {

/// e_k per eq. (7) at one time level (d = 2).
double error_ek(const grid2d& grid, const std::vector<double>& exact,
                const std::vector<double>& numerical);

/// max_i |exact_i - num_i| / max_i |exact_i| (0/0 -> 0).
double error_max_relative(const grid2d& grid, const std::vector<double>& exact,
                          const std::vector<double>& numerical);

}  // namespace nlh::nonlocal
