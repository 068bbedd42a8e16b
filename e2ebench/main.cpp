///
/// \file main.cpp
/// \brief e2ebench: run one workload and print its report, ending with one
/// JSON line `{"correct", "attempted", "failed", "metrics"}` (end-to-end
/// metrics, or per-layer metrics with `--trace 1`). Exits non-zero when an
/// output check fails. Usually driven through `e2ebench/run.py`.
///
///   e2ebench --workload solve_wide --seed 3 --seconds 5 --trace 0 [--out-dir DIR]
///

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out-dir DIR]\nworkloads:";
  for (const auto& w : nlh::e2e::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  nlh::e2e::run_config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        cfg.out_dir = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a + ": " + v).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  nlh::e2e::run_report rep;
  try {
    rep = nlh::e2e::run_workload(cfg);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  for (const auto& line : rep.report) std::cout << line << '\n';
  const auto& metrics = cfg.trace ? rep.per_layer : rep.end_to_end;
  for (const auto& m : metrics)
    std::cout << "  " << m.name << " = " << json_number(m.value) << ' ' << m.unit << '\n';

  bool finite = true;
  std::string json = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return rep.correct && rep.failed == 0 && finite ? 0 : 1;
}
