#pragma once
// Wall-clock stopwatch. Phase timing (the paper's Eq. 7 decomposition) is
// telemetry's job: see telemetry/taxonomy.hpp.

#include <chrono>

namespace awp {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void restart() { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace awp
