#include "partition/multilevel.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <queue>

#include "partition/metrics.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace nlh::partition {

namespace {

/// Greedy boundary refinement passes per uncoarsening level.
constexpr int passes_per_level = 8;

struct coarse_level {
  graph g;
  std::vector<vid> cmap;  ///< fine vertex -> coarse vertex
};

/// Heavy-edge matching coarsening: unmatched vertices pair with the
/// unmatched neighbor of maximum edge weight; pairs collapse into coarse
/// vertices whose weight is the sum and whose edges merge.
coarse_level coarsen_once(const graph& g, support::rng& gen) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<vid> match(n, -1);
  std::vector<vid> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Random visitation order decorrelates matchings across levels.
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[gen.uniform_u64(0, i - 1)]);

  for (vid u : order) {
    if (match[static_cast<std::size_t>(u)] != -1) continue;
    vid best = -1;
    weight_t best_w = -1;
    for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
      const vid v = g.adjncy(e);
      if (match[static_cast<std::size_t>(v)] == -1 && g.adjwgt(e) > best_w) {
        best_w = g.adjwgt(e);
        best = v;
      }
    }
    if (best != -1) {
      match[static_cast<std::size_t>(u)] = best;
      match[static_cast<std::size_t>(best)] = u;
    } else {
      match[static_cast<std::size_t>(u)] = u;  // stays alone
    }
  }

  coarse_level lvl;
  lvl.cmap.assign(n, -1);
  vid next = 0;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    if (lvl.cmap[static_cast<std::size_t>(u)] != -1) continue;
    const vid m = match[static_cast<std::size_t>(u)];
    lvl.cmap[static_cast<std::size_t>(u)] = next;
    lvl.cmap[static_cast<std::size_t>(m)] = next;  // m == u when unmatched
    ++next;
  }

  std::vector<weight_t> cvwgt(static_cast<std::size_t>(next), 0);
  for (vid u = 0; u < g.num_vertices(); ++u)
    cvwgt[static_cast<std::size_t>(lvl.cmap[static_cast<std::size_t>(u)])] += g.vwgt(u);

  // Merge edges between coarse vertices (each undirected fine edge visited
  // once via u < v).
  std::vector<std::map<vid, weight_t>> merged(static_cast<std::size_t>(next));
  for (vid u = 0; u < g.num_vertices(); ++u) {
    const vid cu = lvl.cmap[static_cast<std::size_t>(u)];
    for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
      const vid v = g.adjncy(e);
      if (u >= v) continue;
      const vid cv = lvl.cmap[static_cast<std::size_t>(v)];
      if (cu == cv) continue;  // edge collapsed inside a coarse vertex
      const vid lo = std::min(cu, cv), hi = std::max(cu, cv);
      merged[static_cast<std::size_t>(lo)][hi] += g.adjwgt(e);
    }
  }
  std::vector<std::vector<std::pair<vid, weight_t>>> adj(static_cast<std::size_t>(next));
  for (vid cu = 0; cu < next; ++cu)
    for (const auto& [cv, w] : merged[static_cast<std::size_t>(cu)])
      adj[static_cast<std::size_t>(cu)].emplace_back(cv, w);

  lvl.g = graph::from_adjacency(adj, std::move(cvwgt));
  return lvl;
}

/// Pseudo-peripheral vertex: farthest vertex from a double-BFS start.
vid peripheral_vertex(const graph& g, vid start) {
  vid far = start;
  for (int round = 0; round < 2; ++round) {
    std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
    std::queue<vid> bfs;
    bfs.push(far);
    dist[static_cast<std::size_t>(far)] = 0;
    vid last = far;
    while (!bfs.empty()) {
      const vid u = bfs.front();
      bfs.pop();
      last = u;
      for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
        const vid v = g.adjncy(e);
        if (dist[static_cast<std::size_t>(v)] == -1) {
          dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
          bfs.push(v);
        }
      }
    }
    far = last;
  }
  return far;
}

/// Greedy graph growing: grow part p from a seed, absorbing the frontier
/// vertex most connected to the part, until the weight target is reached.
partition_vector greedy_grow(const graph& g, int k, support::rng& gen) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  partition_vector part(n, -1);
  if (k == 1) {
    std::fill(part.begin(), part.end(), 0);
    return part;
  }
  const double target = g.total_vwgt() / static_cast<double>(k);

  std::size_t assigned = 0;
  for (int p = 0; p < k - 1 && assigned < n; ++p) {
    // Seed: an unassigned vertex adjacent to the assigned region if any,
    // otherwise a pseudo-peripheral vertex of the remaining graph.
    vid seed = -1;
    if (p == 0) {
      vid anyv = static_cast<vid>(gen.uniform_u64(0, n - 1));
      seed = peripheral_vertex(g, anyv);
    } else {
      weight_t best_conn = -1;
      for (vid u = 0; u < g.num_vertices(); ++u) {
        if (part[static_cast<std::size_t>(u)] != -1) continue;
        weight_t conn = 0;
        for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e)
          if (part[static_cast<std::size_t>(g.adjncy(e))] != -1) conn += g.adjwgt(e);
        if (conn > best_conn) {
          best_conn = conn;
          seed = u;
        }
      }
    }
    NLH_ASSERT(seed != -1);

    // Grow with a max-connection priority queue (lazy deletion).
    std::vector<weight_t> conn(n, 0);
    using qe = std::pair<weight_t, vid>;
    std::priority_queue<qe> frontier;
    double grown = 0.0;
    auto absorb = [&](vid u) {
      part[static_cast<std::size_t>(u)] = p;
      ++assigned;
      grown += g.vwgt(u);
      for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
        const vid v = g.adjncy(e);
        if (part[static_cast<std::size_t>(v)] == -1) {
          conn[static_cast<std::size_t>(v)] += g.adjwgt(e);
          frontier.push({conn[static_cast<std::size_t>(v)], v});
        }
      }
    };
    absorb(seed);
    // Leave at least one vertex for every part still to be grown.
    const std::size_t reserve_for_rest = static_cast<std::size_t>(k - 1 - p);
    while (grown < target && assigned < n - reserve_for_rest) {
      vid next = -1;
      while (!frontier.empty()) {
        const auto [w, v] = frontier.top();
        frontier.pop();
        if (part[static_cast<std::size_t>(v)] == -1 && w == conn[static_cast<std::size_t>(v)]) {
          next = v;
          break;
        }
      }
      if (next == -1) {
        // Disconnected remainder: restart from a fresh unassigned seed.
        for (vid u = 0; u < g.num_vertices(); ++u)
          if (part[static_cast<std::size_t>(u)] == -1) {
            next = u;
            break;
          }
        if (next == -1) break;
      }
      absorb(next);
    }
  }
  // Remainder goes to the last part.
  for (auto& pv : part)
    if (pv == -1) pv = k - 1;
  return part;
}

}  // namespace

int refine_partition(const graph& g, partition_vector& part, int k,
                     double balance_tolerance, int max_passes) {
  validate_partition(g, part, k);
  auto weights = part_weights(g, part, k);
  const double ideal = g.total_vwgt() / static_cast<double>(k);
  const double max_allowed = ideal * balance_tolerance;

  int total_moves = 0;
  std::vector<weight_t> conn(static_cast<std::size_t>(k));
  for (int pass = 0; pass < max_passes; ++pass) {
    int moves = 0;
    for (vid u = 0; u < g.num_vertices(); ++u) {
      const int from = part[static_cast<std::size_t>(u)];
      if (g.degree(u) == 0) continue;
      std::fill(conn.begin(), conn.end(), 0);
      bool boundary = false;
      for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
        const int pv = part[static_cast<std::size_t>(g.adjncy(e))];
        conn[static_cast<std::size_t>(pv)] += g.adjwgt(e);
        if (pv != from) boundary = true;
      }
      if (!boundary) continue;

      int best_to = -1;
      weight_t best_gain = 0;
      for (int to = 0; to < k; ++to) {
        if (to == from || conn[static_cast<std::size_t>(to)] == 0) continue;
        if (weights[static_cast<std::size_t>(to)] + g.vwgt(u) > max_allowed) continue;
        const weight_t gain =
            conn[static_cast<std::size_t>(to)] - conn[static_cast<std::size_t>(from)];
        const bool better_cut = gain > best_gain;
        const bool same_cut_better_balance =
            gain == best_gain && best_to == -1 && gain == 0 &&
            weights[static_cast<std::size_t>(from)] >
                weights[static_cast<std::size_t>(to)] + g.vwgt(u);
        if (better_cut || same_cut_better_balance) {
          best_gain = gain;
          best_to = to;
        }
      }
      if (best_to != -1 &&
          weights[static_cast<std::size_t>(from)] - g.vwgt(u) > 0) {  // never empty a part
        part[static_cast<std::size_t>(u)] = best_to;
        weights[static_cast<std::size_t>(from)] -= g.vwgt(u);
        weights[static_cast<std::size_t>(best_to)] += g.vwgt(u);
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }
  return total_moves;
}

bool absorb_stray_components(const graph& g, partition_vector& part, int k) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  bool changed = false;

  for (int p = 0; p < k; ++p) {
    // Label components of part p.
    std::vector<int> comp(n, -1);
    int num_comp = 0;
    std::vector<weight_t> comp_weight;
    for (vid s = 0; s < g.num_vertices(); ++s) {
      if (part[static_cast<std::size_t>(s)] != p || comp[static_cast<std::size_t>(s)] != -1)
        continue;
      comp_weight.push_back(0);
      std::queue<vid> bfs;
      bfs.push(s);
      comp[static_cast<std::size_t>(s)] = num_comp;
      while (!bfs.empty()) {
        const vid u = bfs.front();
        bfs.pop();
        comp_weight[static_cast<std::size_t>(num_comp)] += g.vwgt(u);
        for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
          const vid v = g.adjncy(e);
          if (part[static_cast<std::size_t>(v)] == p && comp[static_cast<std::size_t>(v)] == -1) {
            comp[static_cast<std::size_t>(v)] = num_comp;
            bfs.push(v);
          }
        }
      }
      ++num_comp;
    }
    if (num_comp <= 1) continue;

    const int keep = static_cast<int>(
        std::max_element(comp_weight.begin(), comp_weight.end()) - comp_weight.begin());
    // Reassign every stray component vertex to its most-connected foreign part.
    for (vid u = 0; u < g.num_vertices(); ++u) {
      if (part[static_cast<std::size_t>(u)] != p) continue;
      if (comp[static_cast<std::size_t>(u)] == keep) continue;
      std::vector<weight_t> conn(static_cast<std::size_t>(k), 0);
      for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e)
        conn[static_cast<std::size_t>(part[static_cast<std::size_t>(g.adjncy(e))])] +=
            g.adjwgt(e);
      conn[static_cast<std::size_t>(p)] = 0;
      const int to = static_cast<int>(
          std::max_element(conn.begin(), conn.end()) - conn.begin());
      if (conn[static_cast<std::size_t>(to)] > 0) {
        part[static_cast<std::size_t>(u)] = to;
        changed = true;
      }
    }
  }
  return changed;
}

int rebalance_contiguous(const graph& g, partition_vector& part, int k,
                         double balance_tolerance, int max_moves) {
  validate_partition(g, part, k);
  const double ideal = g.total_vwgt() / static_cast<double>(k);
  const double max_allowed = ideal * balance_tolerance;
  auto weights = part_weights(g, part, k);

  auto stays_connected_without = [&](vid u) {
    const int p = part[static_cast<std::size_t>(u)];
    // BFS over part p excluding u; connected iff it reaches all of p \ {u}.
    vid start = -1;
    std::size_t count = 0;
    for (vid v = 0; v < g.num_vertices(); ++v)
      if (v != u && part[static_cast<std::size_t>(v)] == p) {
        if (start == -1) start = v;
        ++count;
      }
    if (count == 0) return false;  // would empty the part
    std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
    std::queue<vid> bfs;
    bfs.push(start);
    seen[static_cast<std::size_t>(start)] = 1;
    std::size_t reached = 1;
    while (!bfs.empty()) {
      const vid x = bfs.front();
      bfs.pop();
      for (auto e = g.xadj(x); e < g.xadj(x + 1); ++e) {
        const vid v = g.adjncy(e);
        if (v == u || part[static_cast<std::size_t>(v)] != p ||
            seen[static_cast<std::size_t>(v)])
          continue;
        seen[static_cast<std::size_t>(v)] = 1;
        ++reached;
        bfs.push(v);
      }
    }
    return reached == count;
  };

  int moves = 0;
  while (moves < max_moves) {
    const int heavy = static_cast<int>(
        std::max_element(weights.begin(), weights.end()) - weights.begin());
    if (weights[static_cast<std::size_t>(heavy)] <= max_allowed) break;

    // Best move: boundary vertex of the heavy part into its lightest
    // adjacent part, preferring high connection to the destination.
    vid best_u = -1;
    int best_to = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (vid u = 0; u < g.num_vertices(); ++u) {
      if (part[static_cast<std::size_t>(u)] != heavy) continue;
      std::vector<weight_t> conn(static_cast<std::size_t>(k), 0);
      bool boundary = false;
      for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
        const int pv = part[static_cast<std::size_t>(g.adjncy(e))];
        conn[static_cast<std::size_t>(pv)] += g.adjwgt(e);
        if (pv != heavy) boundary = true;
      }
      if (!boundary) continue;
      for (int to = 0; to < k; ++to) {
        if (to == heavy || conn[static_cast<std::size_t>(to)] == 0) continue;
        if (weights[static_cast<std::size_t>(to)] + g.vwgt(u) >
            weights[static_cast<std::size_t>(heavy)])
          continue;  // move must reduce the max
        // Prefer lighter destinations, then higher connection (less cut harm).
        const double score = -weights[static_cast<std::size_t>(to)] * 1e6 +
                             static_cast<double>(conn[static_cast<std::size_t>(to)]);
        if (score > best_score && stays_connected_without(u)) {
          best_score = score;
          best_u = u;
          best_to = to;
        }
      }
    }
    if (best_u == -1) break;  // no contiguity-safe move exists
    weights[static_cast<std::size_t>(heavy)] -= g.vwgt(best_u);
    weights[static_cast<std::size_t>(best_to)] += g.vwgt(best_u);
    part[static_cast<std::size_t>(best_u)] = best_to;
    ++moves;
  }
  return moves;
}

partition_vector multilevel_partition(const graph& g, const partition_options& opt) {
  NLH_ASSERT(opt.k >= 1);
  NLH_ASSERT_MSG(opt.k <= g.num_vertices(), "multilevel: more parts than vertices");
  support::rng gen(opt.seed);

  if (opt.k == 1) return partition_vector(static_cast<std::size_t>(g.num_vertices()), 0);

  // Phase 1: coarsen.
  const vid stop_at = std::max<vid>(static_cast<vid>(8 * opt.k), 32);
  std::vector<coarse_level> levels;
  const graph* current = &g;
  while (current->num_vertices() > stop_at) {
    coarse_level lvl = coarsen_once(*current, gen);
    // Matching found nothing to merge: stop, or we loop forever.
    if (lvl.g.num_vertices() >= current->num_vertices()) break;
    levels.push_back(std::move(lvl));
    current = &levels.back().g;
  }

  // Phase 2: initial partition of the coarsest graph.
  partition_vector part = greedy_grow(*current, opt.k, gen);
  refine_partition(*current, part, opt.k, multilevel_balance_tolerance, passes_per_level);

  // Phase 3: uncoarsen + refine at every level.
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const graph& finer = (std::next(it) != levels.rend()) ? std::next(it)->g : g;
    partition_vector fine_part(static_cast<std::size_t>(finer.num_vertices()));
    for (vid u = 0; u < finer.num_vertices(); ++u)
      fine_part[static_cast<std::size_t>(u)] =
          part[static_cast<std::size_t>(it->cmap[static_cast<std::size_t>(u)])];
    part = std::move(fine_part);
    refine_partition(finer, part, opt.k, multilevel_balance_tolerance, passes_per_level);
  }

  // Contiguity cleanup on the finest graph. First absorb stray components
  // to a fixed point (interior vertices of an island only become movable
  // after its boundary peels off, so this may take several rounds; each
  // round strictly shrinks some island). Only then repair balance with
  // contiguity-preserving moves — interleaving the two oscillates.
  while (absorb_stray_components(g, part, opt.k)) {
  }
  rebalance_contiguous(g, part, opt.k, multilevel_balance_tolerance,
                       static_cast<int>(g.num_vertices()));
  validate_partition(g, part, opt.k);
  return part;
}

graph induced_subgraph(const graph& g, const std::vector<vid>& vertices) {
  std::vector<vid> to_local(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const vid u = vertices[i];
    NLH_ASSERT(u >= 0 && u < g.num_vertices());
    NLH_ASSERT_MSG(to_local[static_cast<std::size_t>(u)] == -1,
                   "induced_subgraph: duplicate vertex");
    to_local[static_cast<std::size_t>(u)] = static_cast<vid>(i);
  }
  std::vector<std::vector<std::pair<vid, weight_t>>> adj(vertices.size());
  std::vector<weight_t> vwgt(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const vid u = vertices[i];
    vwgt[i] = g.vwgt(u);
    for (auto e = g.xadj(u); e < g.xadj(u + 1); ++e) {
      const vid v = g.adjncy(e);
      if (u >= v) continue;  // each undirected edge once
      const vid lv = to_local[static_cast<std::size_t>(v)];
      if (lv == -1) continue;
      adj[i].emplace_back(lv, g.adjwgt(e));
    }
  }
  return graph::from_adjacency(adj, std::move(vwgt));
}

namespace {

void bisect_recursive(const graph& g, const std::vector<vid>& vertices, int k,
                      int part_offset, const partition_options& opt,
                      partition_vector& out) {
  if (k == 1) {
    for (vid u : vertices) out[static_cast<std::size_t>(u)] = part_offset;
    return;
  }
  const graph sub = induced_subgraph(g, vertices);
  partition_options two = opt;
  two.k = 2;
  // Vary the seed per level/branch so sibling bisections decorrelate.
  two.seed = opt.seed * 31u + static_cast<unsigned>(part_offset) * 7u +
             static_cast<unsigned>(k);
  const auto half = multilevel_partition(sub, two);
  std::vector<vid> left, right;
  for (std::size_t i = 0; i < vertices.size(); ++i)
    (half[i] == 0 ? left : right).push_back(vertices[i]);
  bisect_recursive(g, left, k / 2, part_offset, opt, out);
  bisect_recursive(g, right, k / 2, part_offset + k / 2, opt, out);
}

}  // namespace

partition_vector recursive_bisection_partition(const graph& g,
                                               const partition_options& opt) {
  NLH_ASSERT(opt.k >= 1);
  NLH_ASSERT_MSG((opt.k & (opt.k - 1)) == 0,
                 "recursive_bisection: k must be a power of two");
  NLH_ASSERT(opt.k <= g.num_vertices());
  partition_vector out(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<vid> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  bisect_recursive(g, all, opt.k, 0, opt, out);
  validate_partition(g, out, opt.k);
  return out;
}

}  // namespace nlh::partition
