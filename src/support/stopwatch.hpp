#pragma once
///
/// \file stopwatch.hpp
/// \brief Monotonic wall-clock stopwatch used for kernel calibration and the
/// real (non-simulated) busy-time performance counters.
///

#include <chrono>

namespace nlh::support {

class stopwatch {
 public:
  stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last restart().
  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace nlh::support
