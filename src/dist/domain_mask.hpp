#pragma once
///
/// \file domain_mask.hpp
/// \brief Active/inactive SD masks for non-rectangular material domains
/// (the paper's future-work item: L-shapes, disks, cracked plates).
///
/// A mask flags which SDs carry material. It shapes the partition and the
/// virtual-time twin: inactive SDs are excluded from the dual graph the
/// partitioner sees (build_mesh_dual_masked), and in the twin
/// (sim_cost_model::sd_active) they never compute or exchange ghosts, with
/// the case split treating an inactive neighbor exactly like the domain
/// boundary. The real solvers still compute every SD.
///

#include <functional>
#include <vector>

#include "dist/tiling.hpp"

namespace nlh::dist {

class domain_mask {
 public:
  /// Every SD active (the square domain).
  static domain_mask full(const tiling& t);

  /// L-shape: the top-right quadrant of the SD grid removed.
  static domain_mask l_shape(const tiling& t);

  /// Disk inscribed in the SD grid (SD centers within the radius kept).
  static domain_mask disk(const tiling& t);

  /// Arbitrary shape from a predicate on the SD grid position.
  static domain_mask from_predicate(const tiling& t,
                                    const std::function<bool(int row, int col)>& keep);

  bool active(int sd) const {
    NLH_ASSERT(sd >= 0 && sd < static_cast<int>(active_.size()));
    return active_[static_cast<std::size_t>(sd)] != 0;
  }

  int num_active() const;

  /// Active SD ids, ascending.
  std::vector<int> active_sds() const;

  /// One flag per row-major SD — the format build_mesh_dual_masked and
  /// sim_cost_model::sd_active consume.
  const std::vector<char>& raw() const { return active_; }

 private:
  explicit domain_mask(std::vector<char> active) : active_(std::move(active)) {}

  std::vector<char> active_;
};

}  // namespace nlh::dist
