#pragma once
///
/// \file partitioner.hpp
/// \brief Partitioner interface plus naive baselines the paper's METIS
/// approach is compared against.
///

#include "partition/graph.hpp"

namespace nlh::partition {

struct partition_options {
  int k = 2;              ///< number of parts
  unsigned seed = 12345;  ///< RNG seed for deterministic runs
};

/// Contiguous strip partition over a row-major R x C grid dual graph: parts
/// are bands of consecutive rows. Mirrors naive 1-D decompositions.
partition_vector strip_partition(int rows, int cols, int k);

/// 2-D block partition: a kr x kc grid of rectangular blocks, kr*kc == k
/// (chooses the most square factorization of k).
partition_vector block_partition(int rows, int cols, int k);

/// Random assignment baseline (worst case for communication).
partition_vector random_partition(vid num_vertices, int k, unsigned seed);

/// Most-square factorization k = kr * kc with kr <= kc.
std::pair<int, int> square_factors(int k);

}  // namespace nlh::partition
