// Timing and summary statistics for the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace hq::util {

/// Wall-clock stopwatch.
class stopwatch {
 public:
  stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

struct summary {
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double median = 0;
  double q1 = 0;  ///< first quartile
  double q3 = 0;  ///< third quartile
  std::size_t n = 0;
};

/// Mean / stddev / min / quartiles / max of a sample vector. Quantiles
/// interpolate linearly between order statistics, so an even-sized
/// sample's median is the mean of its two middle values.
summary summarize(std::vector<double> xs);

}  // namespace hq::util
