#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace hq::util {

namespace {

/// Quantile p of sorted, non-empty `xs`: linear interpolation between the
/// order statistics around rank p * (n - 1).
double quantile(const std::vector<double>& xs, double p) {
  const double rank = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[lo + 1] - xs[lo]);
}

}  // namespace

summary summarize(std::vector<double> xs) {
  summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  s.q1 = quantile(xs, 0.25);
  s.median = quantile(xs, 0.5);
  s.q3 = quantile(xs, 0.75);
  double sum = 0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1 ? std::sqrt(var / static_cast<double>(xs.size() - 1)) : 0.0;
  return s;
}

}  // namespace hq::util
