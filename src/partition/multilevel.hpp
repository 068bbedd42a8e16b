#pragma once
///
/// \file multilevel.hpp
/// \brief Multilevel k-way graph partitioner — the METIS substitute.
///
/// Three classical phases (Karypis & Kumar):
///  1. Coarsening via heavy-edge matching until the graph is small,
///  2. Initial partitioning of the coarsest graph by greedy graph growing,
///  3. Uncoarsening with greedy boundary (KL/FM-style) refinement per level.
///
/// A final contiguity pass reassigns stray components and repairs balance
/// with connectivity-preserving moves, so grid dual graphs get the
/// contiguous parts the paper's solver and load balancer assume.
///

#include "partition/partitioner.hpp"

namespace nlh::partition {

/// Max part weight / ideal part weight multilevel_partition allows.
inline constexpr double multilevel_balance_tolerance = 1.10;

/// Partition `g` into opt.k balanced parts (within
/// multilevel_balance_tolerance) minimizing weighted edge cut.
/// Deterministic for a fixed seed. Aborts (assert) on k < 1 or k > V.
partition_vector multilevel_partition(const graph& g, const partition_options& opt);

/// Greedy boundary refinement pass used during uncoarsening; exposed for
/// testing and for the balancer's repair step. Returns number of moves.
int refine_partition(const graph& g, partition_vector& part, int k,
                     double balance_tolerance, int max_passes);

/// Reassign all but the heaviest connected component of every part to the
/// best adjacent part; returns true if anything changed.
bool absorb_stray_components(const graph& g, partition_vector& part, int k);

/// Balance repair restricted to moves that keep the source part connected.
/// Returns number of moves performed.
int rebalance_contiguous(const graph& g, partition_vector& part, int k,
                         double balance_tolerance, int max_moves);

/// Induced subgraph over `vertices` (ids into g). Edge and vertex weights
/// carry over; `vertices[i]` becomes vertex i of the result.
graph induced_subgraph(const graph& g, const std::vector<vid>& vertices);

/// Recursive-bisection k-way partitioning (METIS_PartGraphRecursive's
/// strategy): repeatedly 2-way multilevel-partition the subgraphs. Requires
/// k to be a power of two. Often slightly better cuts than direct k-way on
/// small k, at higher cost.
partition_vector recursive_bisection_partition(const graph& g,
                                               const partition_options& opt);

}  // namespace nlh::partition
