#include "fold.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace nlh::e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

fold_result fold_spans(const std::vector<obs::trace_event>& events,
                       std::int64_t window_begin_ns, std::int64_t window_end_ns) {
  fold_result fr;
  for (const auto& e : events) {
    if (e.ts_ns < window_begin_ns || e.ts_ns >= window_end_ns) continue;
    if (e.phase == 'X') {
      folded_span s;
      s.name = e.name;
      s.tid = e.tid;
      s.arg = e.arg;
      s.begin_ns = e.ts_ns;
      s.end_ns = e.ts_ns + e.dur_ns;
      s.self_ns = e.dur_ns;
      fr.spans.push_back(s);
    } else if (e.phase == 'i') {
      ++fr.instants[e.name];
    }
  }

  // Per thread, by start time; of two spans starting together the longer
  // one is the parent.
  std::vector<std::size_t> order(fr.spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = fr.spans[a];
    const auto& y = fr.spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.begin_ns != y.begin_ns) return x.begin_ns < y.begin_ns;
    return x.end_ns > y.end_ns;
  });

  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const auto i : order) {
    auto& s = fr.spans[i];
    if (open.empty() || s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty() && fr.spans[open.back()].end_ns <= s.begin_ns) open.pop_back();
    // A partial overlap is not nesting: close the open span as a sibling.
    while (!open.empty() && fr.spans[open.back()].end_ns < s.end_ns) open.pop_back();
    if (!open.empty()) {
      s.parent = static_cast<int>(open.back());
      fr.spans[open.back()].self_ns -= s.end_ns - s.begin_ns;
    }
    open.push_back(i);
  }

  for (const auto& s : fr.spans) {
    auto& t = fr.by_name[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.begin_ns;
    t.self_ns += s.self_ns;
  }
  return fr;
}

}  // namespace nlh::e2e
