#pragma once
///
/// \file sim_dist.hpp
/// \brief Virtual-time twin of the distributed solver: build the per-step
/// task DAG of a tiling + ownership and replay it on sim::cluster_sim.
///
/// Per SD and step the DAG mirrors the real schedule: a case-2 interior
/// task (depends on the SD's and its same-locality neighbors' previous
/// step), a pack task feeding cross-locality messages, a zero-work unpack
/// join that waits for all incoming ghosts, and a case-1 boundary task
/// gated on the unpack. With overlap off (the bulk-synchronous baseline)
/// the interior task is gated on the unpack too — same work and traffic,
/// communication on the critical path.
///

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "dist/ownership.hpp"
#include "dist/tiling.hpp"
#include "sim/capacity_trace.hpp"
#include "sim/cluster_sim.hpp"

namespace nlh::dist {

/// Abstract cost of the solver's building blocks, in simulator work units.
struct sim_cost_model {
  double work_per_dp = 1.0;       ///< one eq.-5 right-hand-side evaluation
  double bytes_per_dp = 8.0;      ///< ghost payload per DP (one double)
  double pack_work_per_dp = 0.0;  ///< strip serialization cost
  bool overlap = true;            ///< false = bulk-synchronous baseline
  /// Optional per-SD work multiplier (crack workloads); empty = all 1.
  std::vector<double> sd_work_scale;
  /// Optional active mask (masked domains); empty = all active.
  std::vector<char> sd_active;
};

/// The modeled cluster the DAG executes on.
struct sim_cluster_config {
  int cores_per_node = 1;
  sim::network_model net;
  /// Per-node capacity traces; empty = constant speed 1 everywhere.
  std::vector<sim::capacity_trace> node_capacity;
  /// When set, the executed schedule is written as Chrome tracing JSON.
  std::ostream* chrome_trace = nullptr;
};

/// Virtual-time outcome of one simulated run.
struct sim_result {
  double makespan = 0.0;
  std::vector<double> node_busy;           ///< virtual busy seconds per node
  std::vector<double> node_busy_fraction;  ///< busy / (makespan * cores)
  double network_bytes = 0.0;              ///< inter-node ghost traffic
  std::int64_t network_messages = 0;
};

/// Build the task DAG for `steps` timesteps of the tiling under `own` and
/// execute it on the virtual cluster.
sim_result simulate_timestepping(const tiling& t, const ownership_map& own, int steps,
                                 const sim_cost_model& cost,
                                 const sim_cluster_config& cluster);

}  // namespace nlh::dist
