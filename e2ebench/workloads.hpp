#pragma once
///
/// \file workloads.hpp
/// \brief The four end-to-end workloads (e2ebench/README.md): two closed-loop
/// solves that stress different layers, a live-rebalancing hotspot solve,
/// and an open-loop MMPP service trace.
///

#include <cstdint>
#include <string>
#include <vector>

namespace nlh::e2e {

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;  ///< measured time of one run
  bool trace = false;    ///< per-layer run: tracing on for part of the run
  std::string out_dir;   ///< where the traced run writes its Perfetto trace
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_report {
  bool correct = true;           ///< every output check passed
  std::uint64_t attempted = 0;   ///< operations attempted (steps or jobs)
  std::uint64_t failed = 0;      ///< failed, shed or incorrect operations
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  std::vector<std::string> report;  ///< human-readable lines (layer table)
};

std::vector<std::string> workload_names();

/// Run one workload; throws std::invalid_argument for an unknown name.
run_report run_workload(const run_config& cfg);

}  // namespace nlh::e2e
