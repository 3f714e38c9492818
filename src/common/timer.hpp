// Wall-clock timing utilities for benchmarks and overhead accounting.
#pragma once

#include <chrono>

namespace fth {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fth
