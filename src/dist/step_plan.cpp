///
/// \file step_plan.cpp
/// \brief step_plan compilation: case splits, merged message tables, the
/// per-locality driver lists and the gated rectangle groups, resolved once
/// per (tiling, ownership) pair.
///

#include "dist/step_plan.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

namespace nlh::dist {

namespace {

/// Cut `g.rects` into at most `workers` contiguous chunks of about equal DP
/// count; returns the chunks beyond the first (each one more step part).
int chunk(plan_group& g, int workers) {
  long long total = 0;
  for (const auto& r : g.rects) total += r.rect.area();
  const int n = std::min(workers, static_cast<int>(g.rects.size()));
  long long acc = 0;
  for (int i = 0; i < static_cast<int>(g.rects.size()); ++i) {
    acc += g.rects[static_cast<std::size_t>(i)].rect.area();
    const auto k = static_cast<long long>(g.chunks.size());
    if (k < n && acc * n >= total * k) g.chunks.push_back(i + 1);
  }
  if (g.chunks.back() != static_cast<int>(g.rects.size()))
    g.chunks.push_back(static_cast<int>(g.rects.size()));
  return std::max(0, static_cast<int>(g.chunks.size()) - 2);
}

}  // namespace

step_plan compile_step_plan(const tiling& t, const ownership_map& own,
                            overlap_schedule sched, int workers) {
  NLH_ASSERT(own.num_sds() == t.num_sds());
  NLH_ASSERT(workers >= 1);
  const int L = own.num_nodes();
  const auto num_sds = static_cast<std::size_t>(t.num_sds());

  step_plan plan;
  plan.sds.resize(num_sds);
  plan.localities.resize(static_cast<std::size_t>(L));

  // One message per (src, dst) pair that shares an SD boundary, numbered in
  // the order the pairs first appear below.
  std::vector<int> pair_message(static_cast<std::size_t>(L) * L, -1);
  for (int sd = 0; sd < t.num_sds(); ++sd) {
    auto& ps = plan.sds[static_cast<std::size_t>(sd)];
    const int dst = own.owner(sd);
    // Receiver-major, direction-enum order: the wire order of every message.
    for (const auto& [d, nb] : t.neighbors(sd)) {
      const int src = own.owner(nb);
      if (src == dst) {
        ps.local_fills.emplace_back(d, nb);
        continue;
      }
      ps.boundary = true;
      int& m = pair_message[static_cast<std::size_t>(src * L + dst)];
      if (m < 0) {
        m = static_cast<int>(plan.messages.size());
        plan.messages.push_back({src, dst, {}, {}});
        plan.localities[static_cast<std::size_t>(src)].sends.push_back(m);
      }
      ps.recvs.emplace_back(d, m);
      plan.messages[static_cast<std::size_t>(m)].ghosts.push_back({nb, sd, d});
    }

    ps.split = compute_case_split(t, sd, own.raw());
    long long fine_area = 0;
    for (auto& fine : compute_fine_strips(t, sd, own.raw())) {
      fine_area += fine.rect.area();
      if (fine.deps.empty())
        ps.ready_strips.push_back(fine.rect);
      else
        ps.strips.push_back(std::move(fine));
    }
    NLH_ASSERT_MSG(fine_area == ps.split.strip_dps(),
                   "step_plan: fine strips must tile the coarse case-1 region");
    plan.total_strips += static_cast<int>(ps.strips.size());
    plan.total_ready_strips += static_cast<int>(ps.ready_strips.size());
    plan.total_local_fills += static_cast<int>(ps.local_fills.size());
    plan.boundary_sds += ps.boundary;
  }

  for (const bool boundary : {true, false})
    for (int sd = 0; sd < t.num_sds(); ++sd)
      if (plan.sds[static_cast<std::size_t>(sd)].boundary == boundary) {
        auto& loc = plan.localities[static_cast<std::size_t>(own.owner(sd))];
        loc.sds.push_back(sd);
        loc.boundary_sds += boundary;
      }

  // Gates: the messages an SD's recvs come through, restricted to `dirs`
  // when given (a per_direction strip's dependencies).
  const auto gate_of = [](const plan_sd& ps, const std::vector<direction>* dirs) {
    std::vector<int> gate;
    for (const auto& [d, m] : ps.recvs)
      if (!dirs || std::find(dirs->begin(), dirs->end(), d) != dirs->end())
        gate.push_back(m);
    NLH_ASSERT_MSG(!dirs || gate.size() == dirs->size(),
                   "step_plan: a strip depends on a direction with no receive");
    std::sort(gate.begin(), gate.end());
    gate.erase(std::unique(gate.begin(), gate.end()), gate.end());
    return gate;
  };
  std::vector<int> every_message(plan.messages.size());
  std::iota(every_message.begin(), every_message.end(), 0);

  std::map<std::pair<int, std::vector<int>>, int> group_of;
  const auto add = [&](int l, int sd, const nonlocal::dp_rect& r, bool strip,
                       std::vector<int> gate) {
    if (r.empty()) return;
    const auto [it, fresh] =
        group_of.try_emplace({l, std::move(gate)}, static_cast<int>(plan.groups.size()));
    if (fresh)
      plan.groups.push_back({l, static_cast<int>(it->first.second.size()) + 1, {}, {0}});
    plan.groups[static_cast<std::size_t>(it->second)].rects.push_back({sd, r, strip});
  };
  const bool bulk = sched == overlap_schedule::bulk_sync;
  const bool coarse = sched == overlap_schedule::coarse;
  for (int l = 0; l < L; ++l)
    for (const int sd : plan.localities[static_cast<std::size_t>(l)].sds) {
      const auto& ps = plan.sds[static_cast<std::size_t>(sd)];
      const auto sd_gate = bulk ? every_message : gate_of(ps, nullptr);
      add(l, sd, ps.split.interior, false, bulk ? every_message : std::vector<int>{});
      for (const auto& r : ps.ready_strips)
        add(l, sd, r, true, bulk || coarse ? sd_gate : std::vector<int>{});
      for (const auto& s : ps.strips)
        add(l, sd, s.rect, true, bulk || coarse ? sd_gate : gate_of(ps, &s.deps));
    }

  // Gate order puts a locality's early group (no message in its gate)
  // first, so its driver runs it before the others.
  for (const auto& [key, g] : group_of) {
    plan.localities[static_cast<std::size_t>(key.first)].groups.push_back(g);
    for (const int m : key.second)
      plan.messages[static_cast<std::size_t>(m)].gates.push_back(g);
  }
  plan.total_messages = static_cast<int>(plan.messages.size());
  plan.parts = plan.total_messages + static_cast<int>(plan.groups.size());
  for (const auto& loc : plan.localities) plan.parts += loc.sds.empty() ? 0 : 1;
  for (auto& g : plan.groups) plan.parts += chunk(g, workers);
  return plan;
}

}  // namespace nlh::dist
