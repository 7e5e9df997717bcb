#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const auto n = samples.size();
  // Rank in 1..n; p = 0 selects the minimum.
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return samples[rank - 1];
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 50);
  s.p99 = percentile(samples, 99);
  return s;
}

}  // namespace perfbench
