// Wall-clock stopwatch used by the experiment harnesses to report training
// and per-classification latency (paper §VIII-A2).
#pragma once

#include <chrono>
#include <cstdint>

namespace mlad {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }
  double elapsed_us() const { return elapsed_seconds() * 1e6; }
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mlad
