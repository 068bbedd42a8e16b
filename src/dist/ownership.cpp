///
/// \file ownership.cpp
/// \brief ownership_map construction and the derived views (per-node SD
/// lists, counts, node adjacency, SP-boundary membership) Algorithm 1 reads.
///

#include "dist/ownership.hpp"

#include <algorithm>

namespace nlh::dist {

ownership_map::ownership_map(const tiling& t, int num_nodes, std::vector<int> owner)
    : num_nodes_(num_nodes), owner_(std::move(owner)) {
  NLH_ASSERT(num_nodes >= 1);
  NLH_ASSERT_MSG(static_cast<int>(owner_.size()) == t.num_sds(),
                 "ownership_map: one owner entry per SD required");
  for (int o : owner_)
    NLH_ASSERT_MSG(o >= 0 && o < num_nodes_, "ownership_map: owner out of range");
}

ownership_map ownership_map::single_node(const tiling& t) {
  return ownership_map(t, 1, std::vector<int>(static_cast<std::size_t>(t.num_sds()), 0));
}

ownership_map ownership_map::from_partition(const tiling& t, int num_nodes,
                                            const std::vector<int>& part) {
  return ownership_map(t, num_nodes, part);
}

void ownership_map::set_owner(int sd, int node) {
  NLH_ASSERT(sd >= 0 && sd < num_sds());
  NLH_ASSERT_MSG(node >= 0 && node < num_nodes_, "ownership_map: owner out of range");
  owner_[static_cast<std::size_t>(sd)] = node;
}

std::vector<int> ownership_map::sds_of(int node) const {
  std::vector<int> out;
  for (int sd = 0; sd < num_sds(); ++sd)
    if (owner_[static_cast<std::size_t>(sd)] == node) out.push_back(sd);
  return out;
}

std::vector<int> ownership_map::sd_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(num_nodes_), 0);
  for (int o : owner_) ++counts[static_cast<std::size_t>(o)];
  return counts;
}

std::vector<std::vector<int>> ownership_map::node_adjacency(const tiling& t) const {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(num_nodes_));
  for (int sd = 0; sd < num_sds(); ++sd) {
    const int me = owner(sd);
    for (const auto& [d, nb] : t.neighbors(sd)) {
      const int other = owner(nb);
      if (other != me) adj[static_cast<std::size_t>(me)].push_back(other);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

}  // namespace nlh::dist
