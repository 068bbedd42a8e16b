#include "model/capacity.hpp"

#include "support/assert.hpp"

namespace nlh::model {

std::vector<sim::capacity_trace> uniform_cluster(int nodes, double speed) {
  NLH_ASSERT(nodes >= 1 && speed > 0.0);
  return std::vector<sim::capacity_trace>(static_cast<std::size_t>(nodes),
                                          sim::capacity_trace::constant(speed));
}

std::vector<sim::capacity_trace> heterogeneous_cluster(const std::vector<double>& speeds) {
  std::vector<sim::capacity_trace> out;
  out.reserve(speeds.size());
  for (double s : speeds) {
    NLH_ASSERT(s > 0.0);
    out.push_back(sim::capacity_trace::constant(s));
  }
  return out;
}

}  // namespace nlh::model
