#pragma once
///
/// \file ownership.hpp
/// \brief SD -> locality assignment (the paper's sub-partitions, SPs).
///
/// The ownership map is the single mutable piece of the distribution: the
/// tiling is fixed geometry, while Algorithm 1 migrates SDs between
/// localities by rewriting this map one SD at a time (set_owner). Per-SD
/// ownership metadata follows the NVMSorting Partition shape: a flat
/// row-major vector, O(1) lookup, derived views (counts, per-node lists,
/// node adjacency) computed on demand.
///

#include <vector>

#include "dist/tiling.hpp"

namespace nlh::dist {

class ownership_map {
 public:
  /// \param owner one locality id per SD, row-major; each in [0, num_nodes).
  ownership_map(const tiling& t, int num_nodes, std::vector<int> owner);

  /// Everything on locality 0 (the shared-memory baseline).
  static ownership_map single_node(const tiling& t);

  /// Adopt a partition vector from the partitioner layer verbatim.
  static ownership_map from_partition(const tiling& t, int num_nodes,
                                      const std::vector<int>& part);

  int num_nodes() const { return num_nodes_; }
  int num_sds() const { return static_cast<int>(owner_.size()); }

  int owner(int sd) const {
    NLH_ASSERT(sd >= 0 && sd < num_sds());
    return owner_[static_cast<std::size_t>(sd)];
  }

  /// Reassign one SD (the migration primitive of Algorithm 1).
  void set_owner(int sd, int node);

  /// SDs owned by `node`, ascending.
  std::vector<int> sds_of(int node) const;

  /// Owned-SD count per node.
  std::vector<int> sd_counts() const;

  /// For each node, the sorted list of other nodes owning a neighbor of one
  /// of its SDs — the tree edges Algorithm 1 redistributes along.
  std::vector<std::vector<int>> node_adjacency(const tiling& t) const;

  const std::vector<int>& raw() const { return owner_; }

 private:
  int num_nodes_;
  std::vector<int> owner_;
};

}  // namespace nlh::dist
