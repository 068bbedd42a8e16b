///
/// \file sim_dist.cpp
/// \brief Builds the per-step task DAG of a tiling + ownership (interior,
/// pack, unpack-join and boundary tasks) and replays it on sim::cluster_sim.
///

#include "dist/sim_dist.hpp"

#include <string>

#include "support/assert.hpp"

namespace nlh::dist {

namespace {

double sd_scale(const sim_cost_model& cost, int sd) {
  return cost.sd_work_scale.empty() ? 1.0
                                    : cost.sd_work_scale[static_cast<std::size_t>(sd)];
}

bool sd_is_active(const sim_cost_model& cost, int sd) {
  return cost.sd_active.empty() || cost.sd_active[static_cast<std::size_t>(sd)] != 0;
}

}  // namespace

sim_result simulate_timestepping(const tiling& t, const ownership_map& own, int steps,
                                 const sim_cost_model& cost,
                                 const sim_cluster_config& cluster) {
  NLH_ASSERT(steps >= 0);
  NLH_ASSERT(own.num_sds() == t.num_sds());
  NLH_ASSERT(cost.sd_work_scale.empty() ||
             static_cast<int>(cost.sd_work_scale.size()) == t.num_sds());
  NLH_ASSERT(cost.sd_active.empty() ||
             static_cast<int>(cost.sd_active.size()) == t.num_sds());

  const int nodes = own.num_nodes();
  sim::cluster_sim cs(nodes, cluster.cores_per_node);
  cs.set_network(cluster.net);
  if (!cluster.node_capacity.empty()) {
    NLH_ASSERT(static_cast<int>(cluster.node_capacity.size()) == nodes);
    for (int n = 0; n < nodes; ++n)
      cs.set_capacity(n, cluster.node_capacity[static_cast<std::size_t>(n)]);
  }

  // Per-SD static structure: case split, remote edges, same-locality edges.
  struct sd_info {
    bool active = false;
    int node = 0;
    double interior_work = 0.0;
    double boundary_work = 0.0;
    double pack_work = 0.0;
    std::vector<std::pair<int, double>> remote;  ///< (neighbor sd, bytes sent)
    std::vector<int> local_nbrs;                 ///< same-locality active neighbors
  };
  const int num_sds = t.num_sds();
  std::vector<sd_info> info(static_cast<std::size_t>(num_sds));
  const std::vector<char>* mask = cost.sd_active.empty() ? nullptr : &cost.sd_active;
  for (int sd = 0; sd < num_sds; ++sd) {
    auto& in = info[static_cast<std::size_t>(sd)];
    in.active = sd_is_active(cost, sd);
    if (!in.active) continue;
    in.node = own.owner(sd);
    const auto split = compute_case_split(t, sd, own.raw(), mask);
    const double per_dp = cost.work_per_dp * sd_scale(cost, sd);
    in.interior_work = static_cast<double>(split.interior_dps()) * per_dp;
    in.boundary_work = static_cast<double>(split.strip_dps()) * per_dp;
    for (const auto& [d, nb] : t.neighbors(sd)) {
      if (!sd_is_active(cost, nb)) continue;
      if (own.owner(nb) == in.node) {
        in.local_nbrs.push_back(nb);
      } else {
        const double dps = static_cast<double>(t.strip_dps(d));
        in.remote.emplace_back(nb, dps * cost.bytes_per_dp);
        in.pack_work += dps * cost.pack_work_per_dp;
      }
    }
  }

  // Unroll the timestep DAG. All dependency edges point at the previous
  // step; message edges connect pack -> unpack within a step.
  std::vector<int> prev_interior(static_cast<std::size_t>(num_sds), -1);
  std::vector<int> prev_boundary(static_cast<std::size_t>(num_sds), -1);
  std::vector<int> pack_id(static_cast<std::size_t>(num_sds), -1);
  std::vector<int> unpack_id(static_cast<std::size_t>(num_sds), -1);
  std::vector<int> cur_interior(static_cast<std::size_t>(num_sds), -1);
  std::vector<int> cur_boundary(static_cast<std::size_t>(num_sds), -1);

  auto prev_tasks_of = [&](int sd, std::vector<int>& deps) {
    if (prev_interior[static_cast<std::size_t>(sd)] >= 0)
      deps.push_back(prev_interior[static_cast<std::size_t>(sd)]);
    if (prev_boundary[static_cast<std::size_t>(sd)] >= 0)
      deps.push_back(prev_boundary[static_cast<std::size_t>(sd)]);
  };

  for (int k = 0; k < steps; ++k) {
    const std::string at = "@" + std::to_string(k);
    // Exchange endpoints first so compute tasks may depend on them.
    for (int sd = 0; sd < num_sds; ++sd) {
      const auto& in = info[static_cast<std::size_t>(sd)];
      if (!in.active || in.remote.empty()) continue;
      std::vector<int> deps;
      prev_tasks_of(sd, deps);
      pack_id[static_cast<std::size_t>(sd)] = cs.add_task(
          in.node, in.pack_work, deps, "sd" + std::to_string(sd) + ":pack" + at);
      unpack_id[static_cast<std::size_t>(sd)] = cs.add_task(
          in.node, 0.0, {}, "sd" + std::to_string(sd) + ":unpack" + at);
    }
    // Compute tasks.
    for (int sd = 0; sd < num_sds; ++sd) {
      const auto& in = info[static_cast<std::size_t>(sd)];
      if (!in.active) continue;
      std::vector<int> deps;
      prev_tasks_of(sd, deps);
      for (int nb : in.local_nbrs) prev_tasks_of(nb, deps);
      if (!cost.overlap && unpack_id[static_cast<std::size_t>(sd)] >= 0)
        deps.push_back(unpack_id[static_cast<std::size_t>(sd)]);
      cur_interior[static_cast<std::size_t>(sd)] = cs.add_task(
          in.node, in.interior_work, deps,
          "sd" + std::to_string(sd) + ":interior" + at);
      if (!in.remote.empty()) {
        // Boundary strips read the same-locality collars too (a strip spans
        // the full SD side), so they carry the local-neighbor deps the
        // interior has, plus the ghost join.
        std::vector<int> bdeps;
        prev_tasks_of(sd, bdeps);
        for (int nb : in.local_nbrs) prev_tasks_of(nb, bdeps);
        bdeps.push_back(unpack_id[static_cast<std::size_t>(sd)]);
        cur_boundary[static_cast<std::size_t>(sd)] = cs.add_task(
            in.node, in.boundary_work, bdeps,
            "sd" + std::to_string(sd) + ":boundary" + at);
      } else {
        cur_boundary[static_cast<std::size_t>(sd)] = -1;
      }
    }
    // Ghost messages: every remote edge carries one strip per step.
    for (int sd = 0; sd < num_sds; ++sd) {
      const auto& in = info[static_cast<std::size_t>(sd)];
      for (const auto& [nb, bytes] : in.remote)
        cs.add_message(pack_id[static_cast<std::size_t>(sd)],
                       unpack_id[static_cast<std::size_t>(nb)], bytes);
    }
    prev_interior = cur_interior;
    prev_boundary = cur_boundary;
  }

  cs.run();
  if (cluster.chrome_trace) cs.write_chrome_trace(*cluster.chrome_trace);

  sim_result res;
  res.makespan = cs.makespan();
  res.network_bytes = cs.network_bytes();
  res.network_messages = cs.network_messages();
  res.node_busy.resize(static_cast<std::size_t>(nodes));
  res.node_busy_fraction.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    res.node_busy[static_cast<std::size_t>(n)] = cs.node_busy_time(n);
    res.node_busy_fraction[static_cast<std::size_t>(n)] =
        res.makespan > 0.0 ? cs.node_busy_fraction(n, 0.0, res.makespan) : 0.0;
  }
  return res;
}

}  // namespace nlh::dist
